import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masonet import layers as L
from masonet.analysis import (
    class_templates,
    convexity_probe,
    decompose,
    partial_product_norms,
    resnet_ensemble_terms,
)
from masonet.maso import forward_hard, selection_to_affine
from masonet.ndcore import DomainError, ShapeError, StructureError


def make_skip_chain(rng, blocks=2, with_head=True, shape=(2, 3, 3)):
    dim = int(np.prod(shape))

    def block(seed):
        r = np.random.default_rng(seed)
        conv = L.Conv(r.standard_normal((shape[0], shape[0], 3, 3)) * 0.3,
                      r.standard_normal(shape[0]) * 0.1, (1, 1), "same-zero", shape)
        skip = L.Conv(r.standard_normal((shape[0], shape[0], 1, 1)) * 0.3,
                      np.zeros(shape[0]), (1, 1), "same-zero", shape)
        return L.SkipBlock(conv, L.Activation("relu", dim), skip,
                           r.standard_normal(dim) * 0.1)

    layers = [block(s) for s in range(1, blocks + 1)]
    out = dim
    if with_head:
        layers.append(L.Dense(rng.standard_normal((3, dim)) * 0.3, np.zeros(3)))
        out = 3
    return L.Network(layers, shape, out)


# --- decomposition ------------------------------------------------------------

def every_kind_net(rng):
    """Random conv -> act -> batch norm -> skip block -> max pool -> avg pool
    -> dense chain; conv padding, stride, kernel and activation vary."""
    c, h, w = int(rng.integers(1, 3)), int(rng.integers(5, 8)), int(rng.integers(5, 8))
    padding = ("valid", "same-zero")[int(rng.integers(2))]
    stride = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
    k = int(rng.integers(1, 4))
    conv = L.Conv(rng.standard_normal((2, c, k, k)) * 0.5, rng.standard_normal(2) * 0.1,
                  stride, padding, (c, h, w))
    shape = L.conv_out_shape(conv, conv.in_shape)
    d1 = int(np.prod(shape))
    bn = L.BatchNorm(rng.standard_normal(d1) * 0.1, rng.random(d1) + 0.5,
                     1.0 + 0.1 * rng.standard_normal(d1), 0.1 * rng.standard_normal(d1))
    block = L.SkipBlock(
        L.Conv(rng.standard_normal((2, 2, 3, 3)) * 0.3, rng.standard_normal(2) * 0.1,
               (1, 1), "same-zero", shape),
        L.Activation("relu", d1),
        L.Conv(rng.standard_normal((2, 2, 1, 1)) * 0.3, np.zeros(2), (1, 1), "same-zero", shape),
        rng.standard_normal(d1) * 0.1,
    )
    max_regions, pooled = L.pool_regions_2d(shape, (2, 2), (1, 1))
    avg_regions, averaged = L.pool_regions_2d(pooled, (1, pooled[2]))
    return L.Network(
        [
            conv,
            L.Activation(("relu", "lrelu", "abs")[int(rng.integers(3))], d1, nu=0.1),
            bn,
            block,
            L.MaxPool(max_regions, d1),
            L.AvgPool(avg_regions, len(max_regions)),
            L.Dense(rng.standard_normal((3, len(avg_regions))), rng.standard_normal(3) * 0.1),
        ],
        (c, h, w),
        3,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_walks_reproduce_forward_for_every_layer_kind(seed):
    rng = np.random.default_rng(seed)
    net = every_kind_net(rng)
    x = rng.standard_normal(net.dims[0])
    f, _ = L.network_forward(net, x)
    bound = 1e-6 * (1.0 + np.max(np.abs(f)))  # criterion 1's bound
    assert np.max(np.abs(decompose(net, x)(x) - f)) <= bound
    T, biases = class_templates(net, x)
    assert np.max(np.abs(T @ x + biases - f)) <= bound
    expect = [np.linalg.norm(decompose(net, x, upto_layer=d).A) for d in range(1, 7)]
    assert partial_product_norms(net, x) == expect



def maso_selected_affine(layer, z):
    """(A, b) the layer's MASO form selects at z from its own scores: a
    reference that shares no selection code with the forward's cache."""
    p = layer.as_maso()
    return selection_to_affine(p, forward_hard(p, z)[1])


def reference_walk(net, x):
    """(A, b) after each layer, chained as full products with each layer's
    MASO-selected map."""
    z = np.asarray(x, dtype=np.float64).reshape(-1)
    A = b = None
    for layer in net.layers:
        Asel, bsel = maso_selected_affine(layer, z)
        A, b = (Asel, bsel) if A is None else (Asel @ A, Asel @ b + bsel)
        yield A, b
        z = Asel @ z + bsel


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_walks_equal_the_product_reference(seed):
    rng = np.random.default_rng(seed)
    net = every_kind_net(rng)
    x = rng.standard_normal(net.dims[0])
    steps = list(reference_walk(net, x))
    form = decompose(net, x)
    assert np.array_equal(form.A, steps[-1][0]) and np.array_equal(form.b, steps[-1][1])
    head, (A, b) = net.layers[-1], steps[-2]
    T, biases = class_templates(net, x)
    assert np.array_equal(T, head.W @ A) and np.array_equal(biases, head.W @ b + head.b)
    assert partial_product_norms(net, x) == [float(np.linalg.norm(A)) for A, _ in steps[:-1]]


def test_decompose_builds_no_diagonal_or_one_hot_map_past_the_first_layer(rng, monkeypatch):
    nets = [
        every_kind_net(rng),
        # an activation first: its own selected map is the walk's start
        L.Network([L.Activation("abs", 4), L.Dense(rng.standard_normal((2, 4)), np.zeros(2))],
                  (4,), 2),
    ]
    for net in nets:
        for cls in (L.Activation, L.MaxPool, L.BatchNorm):
            def guarded(self, cache, original=cls.selected_affine, first=net.layers[0]):
                if self is not first:
                    raise AssertionError(f"{type(self).__name__} built its dense selected map")
                return original(self, cache)

            monkeypatch.setattr(cls, "selected_affine", guarded)
        x = rng.standard_normal(net.dims[0])
        f, _ = L.network_forward(net, x)
        assert np.allclose(decompose(net, x)(x), f, atol=1e-10)
        monkeypatch.undo()


def test_equal_codes_give_equal_decompositions_at_code_boundaries():
    # bisect segments between random inputs down to a code boundary from
    # each end: every point pair (end, last point with the end's codes)
    # shares its hard forward codes, so decompose must return one (A, b)
    from masonet.partition import layer_codes_batch

    net = make_skip_chain(np.random.default_rng(0), blocks=3)
    rng = np.random.default_rng(5)

    def codes(x):
        return layer_codes_batch(net, x[None, :], len(net.layers))[0]

    for _ in range(20):
        a, b = rng.standard_normal((2, net.dims[0]))
        for p, q in ((a, b), (b, a)):
            code, lo, hi = codes(p), 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if np.array_equal(codes(p + mid * (q - p)), code):
                    lo = mid
                else:
                    hi = mid
            near = p + lo * (q - p)
            assert np.array_equal(codes(near), code)
            here, there = decompose(net, p), decompose(net, near)
            assert np.array_equal(here.A, there.A) and np.array_equal(here.b, there.b)


def test_decompose_identity_on_empty_prefix(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    form = decompose(net, rng.standard_normal(3), upto_layer=0)
    assert np.array_equal(form.A, np.eye(3))
    assert np.array_equal(form.b, np.zeros(3))


def test_decompose_matches_forward_mlp(rng):
    net = L.make_mlp([4, 9, 5, 3], seed=1)
    for _ in range(50):
        x = rng.standard_normal(4)
        y, _ = L.network_forward(net, x)
        form = decompose(net, x)
        assert np.max(np.abs(form(x) - y)) < 1e-10


def test_decompose_matches_forward_conv_chain(rng):
    conv = L.Conv(rng.standard_normal((2, 1, 3, 3)) * 0.5, rng.standard_normal(2) * 0.1,
                  (1, 1), "valid", (1, 6, 6))
    dim = int(np.prod(L.conv_out_shape(conv, (1, 6, 6))))
    regions, _ = L.pool_regions_2d(L.conv_out_shape(conv, (1, 6, 6)), (2, 2), (2, 2))
    net = L.Network(
        [conv, L.Activation("relu", dim), L.MaxPool(regions, dim),
         L.BatchNorm(np.zeros(len(regions)), np.ones(len(regions)),
                     np.ones(len(regions)), np.zeros(len(regions))),
         L.Dense(rng.standard_normal((3, len(regions))) * 0.3, np.zeros(3))],
        (1, 6, 6), 3,
    )
    for _ in range(20):
        x = rng.standard_normal(36)
        y, _ = L.network_forward(net, x)
        assert np.max(np.abs(decompose(net, x)(x) - y)) < 1e-10


def test_decompose_prefix_reproduces_intermediate(rng):
    net = L.make_mlp([3, 6, 4, 2], seed=2)
    x = rng.standard_normal(3)
    form = decompose(net, x, upto_layer=2)  # dense + relu
    expect = np.maximum(net.layers[0].W @ x + net.layers[0].b, 0.0)
    assert np.allclose(form(x), expect, atol=1e-12)


def test_decompose_is_locally_constant(rng):
    # a second input with identical codes gets the identical affine map
    net = L.make_mlp([2, 5, 2], seed=3)
    x = rng.standard_normal(2)
    _, sels = L.network_forward(net, x)
    for _ in range(200):
        x2 = x + rng.standard_normal(2) * 1e-4
        _, sels2 = L.network_forward(net, x2)
        same = all(
            (a is None and b is None) or np.array_equal(a.codes, b.codes)
            for a, b in zip(sels, sels2)
        )
        if same:
            f1, f2 = decompose(net, x), decompose(net, x2)
            assert np.array_equal(f1.A, f2.A) and np.array_equal(f1.b, f2.b)
            # the shared affine map evaluates both points exactly
            y2, _ = L.network_forward(net, x2)
            assert np.max(np.abs(f1(x2) - y2)) < 1e-10
            break
    else:
        pytest.fail("no same-region neighbor found")


def test_decompose_input_validation(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    with pytest.raises(ShapeError):
        decompose(net, rng.standard_normal(4))
    with pytest.raises(ShapeError):
        decompose(net, rng.standard_normal(3), upto_layer=9)


# --- templates ------------------------------------------------------------------

def test_class_templates_give_logits(rng):
    net = L.make_mlp([4, 8, 3], seed=4)
    for _ in range(20):
        x = rng.standard_normal(4)
        T, biases = class_templates(net, x)
        logits, _ = L.network_forward(net, x)
        assert T.shape == (3, 4)
        assert np.max(np.abs(T @ x + biases - logits)) < 1e-10


def test_class_templates_argmax_is_prediction(rng):
    net = L.make_mlp([4, 8, 3], seed=4)
    x = rng.standard_normal(4)
    T, biases = class_templates(net, x)
    logits, _ = L.network_forward(net, x)
    assert np.argmax(T @ x + biases) == np.argmax(logits)


def test_class_templates_need_dense_head(rng):
    net = L.Network([L.Dense(rng.standard_normal((4, 3)), np.zeros(4)),
                     L.Activation("relu", 4)], (3,), 4)
    with pytest.raises(StructureError):
        class_templates(net, rng.standard_normal(3))


# --- residual ensemble ------------------------------------------------------------

def test_ensemble_terms_sum_to_decomposed_A(rng):
    net = make_skip_chain(rng, blocks=2)
    for _ in range(10):
        x = rng.standard_normal(18)
        terms = resnet_ensemble_terms(net, x)
        assert len(terms) == 4
        form = decompose(net, x, upto_layer=2)
        assert np.max(np.abs(sum(terms) - form.A)) < 1e-9


def test_ensemble_single_block_brute_force(rng):
    net = make_skip_chain(rng, blocks=1, with_head=False)
    blk = net.layers[0]
    x = rng.standard_normal(18)
    terms = resnet_ensemble_terms(net, x)
    assert len(terms) == 2
    pre = blk.conv.matrix() @ x + blk.conv.bias_flat()
    Aact = np.diag((pre > 0).astype(np.float64))
    assert np.allclose(terms[0], blk.skip.matrix(), atol=1e-12)
    assert np.allclose(terms[1], Aact @ blk.conv.matrix(), atol=1e-12)


def test_ensemble_zero_skips_leave_plain_chain(rng):
    net = make_skip_chain(rng, blocks=2, with_head=False)
    for blk in net.layers:
        blk.skip.filters[:] = 0.0
    x = rng.standard_normal(18)
    terms = resnet_ensemble_terms(net, x)
    # only the all-activation branch survives
    nonzero = [t for t in terms if np.any(t != 0.0)]
    assert len(nonzero) == 1
    assert np.allclose(sum(terms), decompose(net, x, upto_layer=2).A, atol=1e-9)


def test_ensemble_term_ordering_first_block_least_significant(rng):
    net = make_skip_chain(rng, blocks=2, with_head=False)
    x = rng.standard_normal(18)
    terms = resnet_ensemble_terms(net, x)
    b0, b1 = net.layers
    pre0 = b0.conv.matrix() @ x + b0.conv.bias_flat()
    A0 = np.diag((pre0 > 0).astype(np.float64)) @ b0.conv.matrix()
    z1 = L.layer_forward_hard(b0, x[None, :])[0][0]
    pre1 = b1.conv.matrix() @ z1 + b1.conv.bias_flat()
    A1 = np.diag((pre1 > 0).astype(np.float64)) @ b1.conv.matrix()
    # choice tuple (c0, c1) lands at index c0 + 2*c1
    assert np.allclose(terms[0], b1.skip.matrix() @ b0.skip.matrix(), atol=1e-12)
    assert np.allclose(terms[1], b1.skip.matrix() @ A0, atol=1e-12)
    assert np.allclose(terms[2], A1 @ b0.skip.matrix(), atol=1e-12)
    assert np.allclose(terms[3], A1 @ A0, atol=1e-12)


def test_ensemble_lowers_each_conv_once(rng, monkeypatch):
    net = make_skip_chain(rng, blocks=2)
    lowered = []
    lower = L.conv_to_matrix
    monkeypatch.setattr(L, "conv_to_matrix", lambda conv, shape: lowered.append(conv) or lower(conv, shape))
    resnet_ensemble_terms(net, rng.standard_normal(18))
    # each block's conv and skip conv, once each
    assert len(lowered) == 4
    assert {id(c) for c in lowered} == {id(c) for blk in net.layers[:2] for c in (blk.conv, blk.skip)}


def test_ensemble_rejects_non_skip_layers(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    with pytest.raises(StructureError):
        resnet_ensemble_terms(net, rng.standard_normal(3))


# --- norms and convexity ------------------------------------------------------------

def test_partial_product_norms_by_hand(rng):
    W1 = rng.standard_normal((4, 3))
    W2 = rng.standard_normal((2, 4))
    net = L.Network(
        [L.Dense(W1, np.zeros(4)), L.Activation("relu", 4), L.Dense(W2, np.zeros(2))],
        (3,), 2,
    )
    x = rng.standard_normal(3)
    norms = partial_product_norms(net, x)
    assert len(norms) == 2  # depths 1 and 2, final layer excluded
    assert abs(norms[0] - np.linalg.norm(W1)) < 1e-12
    D = np.diag(((W1 @ x) > 0).astype(np.float64))
    assert abs(norms[1] - np.linalg.norm(D @ W1)) < 1e-12


def test_convexity_probe_passes_on_nonneg_slope_tail(rng):
    # first layer arbitrary; every later layer has nonnegative slopes
    W1 = rng.standard_normal((5, 3))
    W2 = np.abs(rng.standard_normal((2, 5)))
    net = L.Network(
        [L.Dense(W1, rng.standard_normal(5)), L.Activation("abs", 5),
         L.Dense(W2, np.zeros(2)), L.Activation("relu", 2)],
        (3,), 2,
    )
    frac = convexity_probe(net, samples=2000, seed=1)
    assert np.all(frac == 1.0)


def test_convexity_probe_catches_nonconvex_nets(rng):
    # mixed-sign second layer breaks convexity for at least one output
    for seed in range(5):
        r = np.random.default_rng(seed)
        net = L.Network(
            [L.Dense(r.standard_normal((6, 3)), r.standard_normal(6)),
             L.Activation("relu", 6),
             L.Dense(r.standard_normal((2, 6)), np.zeros(2))],
            (3,), 2,
        )
        frac = convexity_probe(net, samples=3000, seed=seed)
        if np.any(frac < 1.0):
            return
    pytest.fail("every random mixed-sign network probed convex")


def test_convexity_probe_validates_samples(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    with pytest.raises(DomainError):
        convexity_probe(net, samples=0)
