import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masonet import layers as L
from masonet import partition
from masonet.ndcore import DomainError, ShapeError
from masonet.partition import (
    grid_scan,
    layer_codes_batch,
    nearest_neighbors,
    region_stats,
    vq_distance,
)
from masonet.partition import _code_dtype, _code_matrix, _tabulate
from test_analysis import every_kind_net


def tiny_net(seed=0):
    return L.make_mlp([2, 5, 3, 2], seed=seed)


# --- codes ----------------------------------------------------------------------

def test_layer_code_collects_selector_layers_only(rng):
    net = tiny_net()
    x = rng.standard_normal((1, 2))
    # two relu layers select, widths 5 and 3; dense layers do not
    assert layer_codes_batch(net, x, len(net.layers)).shape == (1, 8)
    assert layer_codes_batch(net, x, 2).shape == (1, 5)
    assert layer_codes_batch(net, x, 3).shape == (1, 5)


def test_layer_code_zero_prefix_is_empty(rng):
    net = tiny_net()
    assert layer_codes_batch(net, rng.standard_normal((3, 2)), 0).shape == (3, 0)


def test_layer_code_matches_forward_selections(rng):
    net = tiny_net()
    x = rng.standard_normal(2)
    code = layer_codes_batch(net, x[None, :], len(net.layers))[0]
    _, rows = L.network_forward(net, x)
    assert [r is None for r in rows] == [True, False, True, False, True]
    assert np.array_equal(code, np.concatenate([r for r in rows if r is not None]))


def test_layer_codes_batch_rows_match_single(rng):
    net = tiny_net()
    X = rng.standard_normal((7, 2))
    mat = layer_codes_batch(net, X, len(net.layers))
    assert mat.shape == (7, 8)
    for i in range(7):
        assert np.array_equal(mat[i], layer_codes_batch(net, X[i : i + 1], len(net.layers))[0])


def test_layer_code_prefix_out_of_range(rng):
    with pytest.raises(ShapeError):
        layer_codes_batch(tiny_net(), rng.standard_normal((1, 2)), 9)


# --- grid scan --------------------------------------------------------------------

def test_grid_scan_shapes_and_total(rng):
    net = tiny_net()
    table, points, ids = grid_scan(net, [(-2, 2), (-2, 2)], 21, len(net.layers))
    assert points.shape == (441, 2)
    assert ids.shape == (441,)
    assert table.total == 441
    assert sum(e["count"] for e in table.entries.values()) == 441


def test_grid_scan_ids_are_traversal_invariant(rng):
    # ids rank codes lexicographically, so mirroring the bounds only
    # permutes which points carry which id, not the id-to-code mapping
    net = tiny_net()
    t1, p1, i1 = grid_scan(net, [(-1, 1), (-1, 1)], 11, len(net.layers))
    t2, p2, i2 = grid_scan(net, [(1, -1), (1, -1)], 11, len(net.layers))
    assert set(t1.entries) == set(t2.entries)
    lex1 = sorted(t1.entries)
    lex2 = sorted(t2.entries)
    assert lex1 == lex2
    # same physical point gets the same id under both traversals
    key1 = {tuple(np.round(p, 9)): i for p, i in zip(p1, i1)}
    for p, i in zip(p2, i2):
        assert key1[tuple(np.round(p, 9))] == i


def test_grid_scan_zero_prefix_single_region(rng):
    net = tiny_net()
    table, _, ids = grid_scan(net, [(-1, 1), (-1, 1)], 5, 0)
    assert table.entries == {(): {"count": 25, "representative": 0}}
    assert np.all(ids == 0)


def test_grid_scan_representative_is_first_index(rng):
    net = tiny_net()
    table, points, ids = grid_scan(net, [(-2, 2), (-2, 2)], 15, len(net.layers))
    for code, entry in table.entries.items():
        rep = entry["representative"]
        assert ids[rep] == ids[rep]  # index valid
        firsts = np.nonzero(ids == ids[rep])[0]
        assert rep == firsts.min()


def test_grid_scan_validation(rng):
    net = tiny_net()
    with pytest.raises(DomainError):
        grid_scan(net, [(-1, 1), (-1, 1)], 1, 2)
    with pytest.raises(ShapeError):
        grid_scan(net, [(-1, 1)], 5, 2)
    four = L.make_mlp([4, 3, 2], seed=0)
    with pytest.raises(DomainError):
        grid_scan(four, [(-1, 1)] * 4, 3, 1)


def test_grid_scan_1d_region_count_matches_kinks():
    # one relu unit with threshold at 0.5: exactly two regions on a line
    net = L.Network(
        [L.Dense(np.array([[2.0]]), np.array([-1.0])), L.Activation("relu", 1)],
        (1,), 1,
    )
    table, _, ids = grid_scan(net, [(-1.0, 1.0)], 101, 2)
    assert len(table.entries) == 2
    assert ids[0] != ids[-1]


def test_grid_scan_boundary_point_codes_off():
    # make_mlp has zero biases, so at the origin every first-layer unit sits
    # exactly on its boundary; Z > 0 codes the tie as off, and on an odd
    # lattice through the origin that one point is a "region" of its own
    net = L.make_mlp([2, 45, 3, 4], seed=0)
    table, points, ids = grid_scan(net, [(-2, 2), (-2, 2)], 101, 2)
    origin = int(np.flatnonzero(np.all(points == 0.0, axis=1))[0])
    code = next(c for c, e in table.entries.items() if e["representative"] == origin)
    assert code == (0,) * 45
    assert table.entries[code]["count"] == 1


# --- packed codes ------------------------------------------------------------------

def _reference_table(mat):
    """The RegionTable entries and ids that np.unique over int64 rows gives."""
    n = mat.shape[0]
    if mat.shape[1] == 0:
        return {(): {"count": n, "representative": 0}}, np.zeros(n, dtype=np.int64)
    uniq, ids, counts = np.unique(mat, axis=0, return_inverse=True, return_counts=True)
    ids = ids.reshape(n)
    entries = {
        tuple(int(v) for v in row): {"count": int(c), "representative": int(np.flatnonzero(ids == i)[0])}
        for i, (row, c) in enumerate(zip(uniq, counts))
    }
    return entries, ids


@st.composite
def code_matrices(draw):
    """Int64 code matrices with repeated rows; widths include 0, a single
    row is allowed, and the largest entry is below 256 or at/above it."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(0, 6))
    top = draw(st.sampled_from([1, 3, 255, 256, 300, 65535, 65536, 2**40]))
    values = np.array([0, top] + draw(st.lists(st.integers(0, top), max_size=3)), dtype=np.int64)
    mat = values[draw(arrays(np.int64, (n, width), elements=st.integers(0, len(values) - 1)))]
    if width:
        mat[draw(st.integers(0, n - 1)), draw(st.integers(0, width - 1))] = top
        if draw(st.booleans()):
            mat[:, draw(st.integers(0, width - 1))] = 0  # a constant zero column
    return mat


@given(code_matrices())
@settings(max_examples=300, deadline=None)
def test_tabulate_packed_matches_int64_unique(mat):
    packed = mat.astype(_code_dtype(int(mat.max(initial=0))))
    assert np.array_equal(packed, mat)
    assert (packed.dtype.itemsize == 1) == (mat.max(initial=0) <= 255)
    assert packed.dtype.itemsize == 1 or packed.dtype.byteorder == ">"
    table, ids = _tabulate(packed)
    entries, ref_ids = _reference_table(mat)
    assert table.total == mat.shape[0]
    assert list(table.entries.items()) == list(entries.items())  # same lexicographic order
    assert all(type(v) is int for key in table.entries for v in key)
    assert ids.dtype == np.int64 and np.array_equal(ids, ref_ids)


def test_code_matrix_across_chunk_boundary(rng, forward_calls):
    net = L.make_mlp([2, 6, 5, 3], seed=2)  # dense, relu, dense, relu, dense
    n = partition._CHUNK_ROWS + 1
    X = rng.standard_normal((n, 2))
    mat = _code_matrix(net, X, 2)  # stops after the first relu
    # one forward per chunk, each running the dense layer and the relu only
    assert forward_calls == [(n - 1, 2), (1, 2)]
    _, caches = L.network_forward_batch(net, X)
    assert mat.dtype == np.uint8
    assert np.array_equal(mat, caches[1]["codes"])


def test_wide_maxpool_codes_widen_big_endian(rng, monkeypatch):
    # a 300-entry window gives codes up to 299; only later chunks hold
    # codes above 255, so the rows packed before must survive the widening
    width = 300
    net = L.Network([L.MaxPool((tuple(range(width)), (0, 1)), width)], (width,), 2)
    X = rng.standard_normal((12, width))
    X[:, 256:] -= 10.0
    X[4:, 280] = 100.0
    monkeypatch.setattr(partition, "_CHUNK_ROWS", 4)
    mat = _code_matrix(net, X, 1)
    codes = L.network_forward_batch(net, X)[1][0]["codes"]
    assert mat.dtype == np.dtype(">u2")
    assert np.array_equal(mat, codes)
    entries, ref_ids = _reference_table(codes)
    table, ids = _tabulate(mat)
    assert table.entries == entries and np.array_equal(ids, ref_ids)


def _brute_table(mat):
    """RegionTable entries and ids by brute force: a dict keyed by row
    tuples, its keys sorted, each with its first row index and its count."""
    first, counts = {}, {}
    for i, row in enumerate(map(tuple, mat.tolist())):
        first.setdefault(row, i)
        counts[row] = counts.get(row, 0) + 1
    keys = sorted(first)
    rank = {key: r for r, key in enumerate(keys)}
    entries = {key: {"count": counts[key], "representative": first[key]} for key in keys}
    return entries, np.array([rank[row] for row in map(tuple, mat.tolist())], dtype=np.int64)


@st.composite
def ordered_code_matrices(draw):
    """Packed code matrices (uint8, or big-endian 2- or 4-byte codes) in
    lattice order (runs of equal rows, where a code may come back),
    shuffled, with every row equal, or of one row."""
    dtype = np.dtype(draw(st.sampled_from(["u1", ">u2", ">u4"])))
    top = int(np.iinfo(dtype).max)
    width = draw(st.integers(1, 5))
    codes = draw(arrays(np.int64, (draw(st.integers(1, 5)), width),
                        elements=st.sampled_from([0, 1, 2, top - 1, top])))
    order = draw(st.sampled_from(["lattice", "shuffled", "equal", "one"]))
    if order == "one":
        return codes[:1].astype(dtype)
    if order == "equal":
        return np.repeat(codes[:1], draw(st.integers(2, 20)), axis=0).astype(dtype)
    runs = draw(st.lists(st.integers(0, len(codes) - 1), min_size=1, max_size=10))
    lengths = draw(st.lists(st.integers(1, 6), min_size=len(runs), max_size=len(runs)))
    mat = np.repeat(codes[runs], lengths, axis=0)
    if order == "shuffled":
        mat = mat[draw(st.permutations(range(len(mat))))]
    return mat.astype(dtype)


@given(ordered_code_matrices())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tabulate_matches_a_brute_force_table(mat):
    table, ids = _tabulate(mat)
    entries, ref_ids = _brute_table(mat)
    assert table.total == mat.shape[0]
    assert list(table.entries.items()) == list(entries.items())  # sorted keys, in order
    assert all(type(v) is int for e in table.entries.values() for v in e.values())
    assert ids.dtype == np.int64 and np.array_equal(ids, ref_ids)


def _selector_stop(net, prefix):
    """The layer count through the last selector among the first `prefix`."""
    return max((i + 1 for i, layer in enumerate(net.layers[:prefix]) if layer.selector), default=0)


def test_scans_at_a_prefix_equal_their_last_selector_stop(rng):
    mlp = L.make_mlp([2, 45, 3, 4], seed=0)
    conv = every_kind_net(rng)
    for net in (mlp, conv):
        X = rng.standard_normal((60, net.dims[0]))
        for p in range(len(net.layers) + 1):
            stop = _selector_stop(net, p)
            codes = layer_codes_batch(net, X, p)
            assert np.array_equal(codes, layer_codes_batch(net, X, stop))
            # the codes a forward through all p layers caches
            caches = L.network_forward_batch(net, X, p)[1]
            blocks = [c["codes"] for layer, c in zip(net.layers, caches) if layer.selector]
            assert np.array_equal(codes, np.concatenate([np.zeros((60, 0)), *blocks], axis=1))
            assert region_stats(net, X, p) == region_stats(net, X, stop)
            for q in (0, 17):
                assert nearest_neighbors(net, p, q, X, 7) == nearest_neighbors(net, stop, q, X, 7)
    # a lattice scan takes at most 3 input dimensions: the mlp only
    for p in range(len(mlp.layers) + 1):
        table, _, ids = grid_scan(mlp, ((-2, 2), (-2, 2)), 41, p)
        at_stop, _, stop_ids = grid_scan(mlp, ((-2, 2), (-2, 2)), 41, _selector_stop(mlp, p))
        assert list(table.entries.items()) == list(at_stop.entries.items())
        assert np.array_equal(ids, stop_ids)


def test_grid_scan_memory_peak():
    # a 1001^2 scan holds its lattice (16 MB), its packed codes (48 MB) and
    # the ids, about 93 MiB at peak; a table that sorted every row's code
    # would take it to about 192 MiB
    net = L.make_mlp([2, 45, 3, 4], seed=0)
    tracemalloc.start()
    try:
        grid_scan(net, ((-2, 2), (-2, 2)), 1001, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# --- region statistics ---------------------------------------------------------------

def test_region_stats_histogram_descends(rng):
    net = tiny_net()
    X = rng.standard_normal((300, 2))
    stats = region_stats(net, X, len(net.layers))
    hist = stats["histogram"]
    assert stats["nonempty_count"] == len(hist)
    assert sum(hist) == 300
    assert all(hist[i] >= hist[i + 1] for i in range(len(hist) - 1))


def test_region_stats_distinguishes_known_split():
    # relu at x=0 splits the line: negative and positive samples differ
    net = L.Network(
        [L.Dense(np.array([[1.0]]), np.zeros(1)), L.Activation("relu", 1)],
        (1,), 1,
    )
    X = np.array([[-1.0], [-0.5], [0.7], [1.0], [2.0]])
    stats = region_stats(net, X, 2)
    assert stats["nonempty_count"] == 2
    assert stats["histogram"] == [3, 2]


# --- code distance ----------------------------------------------------------------------

def test_vq_distance_counts_disagreements():
    a = np.array([0, 1, 1, 0])
    b = np.array([0, 1, 0, 1])
    assert vq_distance(a, b) == 0.5
    assert vq_distance(a, a) == 0.0
    # leading rows broadcast: one distance per row
    rows = np.array([[0, 1, 1, 0], [0, 1, 0, 1], [1, 0, 0, 1]])
    assert vq_distance(rows, a).tolist() == [0.0, 0.5, 1.0]
    assert vq_distance(rows[:, None], rows).shape == (3, 3)


def test_vq_distance_empty_codes_are_identical():
    assert vq_distance(np.zeros(0, np.int64), np.zeros(0, np.int64)) == 0.0
    assert vq_distance(np.zeros((4, 0)), np.zeros(0)).tolist() == [0.0] * 4


def test_vq_distance_shape_mismatch():
    for a, b in (([0, 1], [0, 1, 0]), ([0], [0, 1]), (0, 0), (np.zeros((2, 3)), np.zeros((4, 3)))):
        with pytest.raises(ShapeError):
            vq_distance(np.asarray(a), np.asarray(b))


@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
            st.lists(st.integers(0, 3), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=200)
def test_vq_distance_is_a_pseudometric(triple):
    a, b, c = (np.asarray(v) for v in triple)
    dab, dba = vq_distance(a, b), vq_distance(b, a)
    assert dab == dba
    assert vq_distance(a, a) == 0.0
    assert 0.0 <= dab <= 1.0
    # triangle inequality: disagreement sets can only union
    assert vq_distance(a, c) <= dab + vq_distance(b, c) + 1e-15


# --- nearest neighbors ---------------------------------------------------------------------

def test_nearest_neighbors_prefers_same_region(rng):
    net = tiny_net()
    X = rng.standard_normal((40, 2))
    idx = nearest_neighbors(net, len(net.layers), 0, X, 5)
    assert len(idx) == 5
    assert 0 not in idx
    codes = layer_codes_batch(net, X, len(net.layers))
    d = np.mean(codes != codes[0], axis=1)
    # returned neighbors have the smallest possible distances
    best = sorted(d[i] for i in range(1, 40))[:5]
    assert sorted(d[i] for i in idx) == best


def test_nearest_neighbors_euclidean_tiebreak():
    net = L.Network(
        [L.Dense(np.array([[1.0, 0.0]]), np.zeros(1)), L.Activation("relu", 1)],
        (2,), 1,
    )
    # all points share the relu code; ordering falls back to euclid
    X = np.array([[1.0, 0.0], [1.0, 3.0], [1.0, 1.0], [1.0, 2.0]])
    assert nearest_neighbors(net, 2, 0, X, 3) == [2, 3, 1]


def test_nearest_neighbors_index_tiebreak():
    net = L.Network(
        [L.Dense(np.array([[1.0]]), np.zeros(1)), L.Activation("relu", 1)],
        (1,), 1,
    )
    X = np.array([[1.0], [2.0], [0.0]])  # 1 and 2 both at euclid 1 from x=1... not equal
    X = np.array([[1.0], [2.0], [0.5], [1.5]])
    idx = nearest_neighbors(net, 2, 0, X, 3)
    assert idx[0] in (2, 3)  # both at distance 0.5, lower index wins
    assert idx[0] == 2


def test_nearest_neighbors_validation(rng):
    net = tiny_net()
    X = rng.standard_normal((5, 2))
    with pytest.raises(DomainError):
        nearest_neighbors(net, 2, 0, X, 5)
    with pytest.raises(DomainError):
        nearest_neighbors(net, 2, 9, X, 2)


def reference_neighbors(net, layer, q, X, k):
    """Brute force: rank every row by (fraction of differing codes,
    Euclidean distance, index), then drop the query."""
    mat = layer_codes_batch(net, X, layer)
    dist = np.mean(mat != mat[q], axis=1) if mat.shape[1] else np.zeros(len(X))
    euclid = np.linalg.norm(X - X[q], axis=1)
    order = np.lexsort((np.arange(len(X)), euclid, dist))
    return order[order != q][:k].tolist()


def wide_pool_net():
    """A 300-entry max-pool window, codes up to 299 (two bytes), and a
    two-entry one."""
    return L.Network([L.MaxPool((tuple(range(300)), (0, 1)), 300)], (300,), 2)


@st.composite
def neighbor_queries(draw):
    """(net, prefix, query, dataset, k) over random MLPs, every-kind conv
    nets and a wide max pool, at any prefix (0 and a lone dense layer have
    no selector unit); rows repeat, so codes and distances tie exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["mlp", "every-kind", "wide-pool"]))
    if kind == "mlp":
        widths = [2] + draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)) + [3]
        net = L.make_mlp(widths, kind=draw(st.sampled_from(["relu", "lrelu", "abs"])),
                         seed=int(rng.integers(2**31)))
    else:
        net = every_kind_net(rng) if kind == "every-kind" else wide_pool_net()
    distinct = draw(st.integers(1, 12))
    base = rng.standard_normal((distinct, net.dims[0]))
    if kind == "wide-pool":
        base[:, 256 + rng.integers(44, size=distinct)] += 5.0  # winners past one byte
    n = draw(st.integers(2, 30))
    X = base[rng.integers(distinct, size=n)]
    k = draw(st.sampled_from([0, 1, n - 1]))
    return net, draw(st.integers(0, len(net.layers))), draw(st.integers(0, n - 1)), X, k


@given(neighbor_queries())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_nearest_neighbors_match_full_ranking(case):
    net, prefix, q, X, k = case
    assert nearest_neighbors(net, prefix, q, X, k) == reference_neighbors(net, prefix, q, X, k)


def test_nearest_neighbors_ignore_memory_layout(rng):
    # every row is a permutation of the same offsets from the query, so all
    # Euclidean distances tie in exact arithmetic and their order is set
    # by how each sum rounds; with no selector unit in the prefix, those
    # sums alone order the neighbors
    net = L.make_mlp([432, 3, 2], seed=0)
    v = rng.standard_normal(432) * np.logspace(-3, 3, 432)
    X = np.vstack([np.zeros(432)] + [rng.permutation(v) for _ in range(200)])
    C, F = np.ascontiguousarray(X), np.asfortranarray(X)
    for prefix in (0, len(net.layers)):
        assert nearest_neighbors(net, prefix, 0, C, 200) == nearest_neighbors(net, prefix, 0, F, 200)
    assert nearest_neighbors(net, 0, 0, C, 200) == reference_neighbors(net, 0, 0, C, 200)
