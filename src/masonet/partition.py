"""Input-space partition analytics.

The joint VQ codes of the selector layers tile the input space into
regions on which the network is one fixed affine map.  This module scans
lattices and datasets for the distinct codes they touch, counts region
occupancy, and measures closeness of two inputs by the fraction of units
whose codes disagree (a normalized Hamming distance, hence a
pseudometric; two inputs at distance 0 share every selected region).
A neighbor query costs one forward over the dataset, then a linear-time
selection of the rows within the k-th smallest distance and a sort of
those rows only.  Every scan packs its codes one byte per selector unit
(see _code_matrix), and its forward stops at the last selector within
the layer prefix it asks about: the affine layers after that selector
add no code.  A layer prefix is a layer count in [0, depth], or None for
the whole network; any other value raises ShapeError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Network, network_forward_batch, prefix_length
from .ndcore import DomainError, ShapeError, Tensor, as_int, as_ints, as_tensor

__all__ = [
    "RegionTable",
    "layer_codes_batch",
    "grid_scan",
    "region_stats",
    "vq_distance",
    "nearest_neighbors",
]


@dataclass
class RegionTable:
    """Distinct joint codes with occupancy counts and a representative.

    entries maps the flattened code tuple to {"count", "representative"},
    the representative being the lowest scan index that produced the code.
    total is the number of scanned points (the counts sum to it).
    """

    entries: dict
    total: int


_CHUNK_ROWS = 4096  # rows per forward: bounds the layer caches and keeps them in CPU cache


def _code_stop(net: Network, layer_prefix: int | None) -> int:
    """How many layers a code forward runs for a layer prefix, checked as
    the forward checks it: through the prefix's last selector (none when
    it holds no selector), since the affine layers after it add no code."""
    upto = prefix_length(net, layer_prefix)
    return max((i + 1 for i, layer in enumerate(net.layers[:upto]) if layer.selector), default=0)


def _code_dtype(top: int) -> np.dtype:
    """uint8 when every code fits a byte, else the smallest big-endian
    unsigned dtype holding `top`, so byte order is numeric order."""
    return np.min_scalar_type(top).newbyteorder(">")


def _code_matrix(net: Network, X: Tensor, layer_prefix: int | None) -> np.ndarray:
    """(n, total units) packed matrix of selector codes within the prefix.

    One byte per unit (uint8) unless some code exceeds 255; comparing two
    rows' bytes then orders them like their code tuples.  The forward
    stops at the prefix's last selector (see _code_stop) and runs
    _CHUNK_ROWS rows at a time.
    """
    n = len(X)
    stop = _code_stop(net, layer_prefix)
    mat = None
    for start in range(0, max(n, 1), _CHUNK_ROWS):
        _, caches = network_forward_batch(net, X[start : start + _CHUNK_ROWS], stop)
        blocks = [c["codes"] for layer, c in zip(net.layers, caches) if layer.selector]
        if mat is None:
            mat = np.empty((n, sum(c.shape[1] for c in blocks)), dtype=np.uint8)
        col = 0
        for c in blocks:
            dtype = _code_dtype(int(c.max(initial=0)))  # codes are region indices, >= 0
            if dtype.itemsize > mat.dtype.itemsize:
                mat = mat.astype(dtype)
            mat[start : start + c.shape[0], col : col + c.shape[1]] = c
            col += c.shape[1]
    return mat


def layer_codes_batch(net: Network, X: Tensor, layer_prefix: int | None) -> np.ndarray:
    """Concatenated selector codes per row of X, within the layer prefix,
    packed as in the partition scans: uint8, or a wider big-endian unsigned
    dtype when some code exceeds 255."""
    return _code_matrix(net, X, layer_prefix)


def grid_scan(net: Network, bounds, resolution, layer_prefix: int | None):
    """Joint codes on a rectangular lattice.

    bounds is one [lo, hi] pair per input dimension (at most 3 dimensions,
    this is a visualization-scale scan) and resolution the per-dimension
    point count (scalar or one per dimension, at least 2).  Returns
    (RegionTable, points, code_ids): the lattice in row-major order and,
    per point, the id of its code.  Ids are ranks in the lexicographic
    order of the distinct code tuples, so they do not depend on traversal
    order.  A point exactly on a boundary gets one side's code: a relu
    unit with Z == 0 is coded off (Z > 0 is "on") and a max-pool tie goes
    to the lowest index.  So a lattice point where several boundaries
    cross, such as the origin for a net with zero first-layer biases, can
    carry a code that no full-dimensional region has and count as a
    region of its own.
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    d = len(bounds)
    if d < 1 or d > 3:
        raise DomainError(f"grid scans support 1 to 3 input dimensions, got {d}")
    if d != net.dims[0]:
        raise ShapeError(f"network expects {net.dims[0]} input dims, bounds give {d}")
    res = as_ints(resolution, "grid resolution").reshape(-1)
    if res.size not in (1, d):
        raise ShapeError(f"{res.size} resolutions for {d} input dimensions (give 1 or {d})")
    res = np.broadcast_to(res, (d,))
    if np.any(res < 2):
        raise DomainError("resolution must be at least 2 points per dimension")
    axes = [np.linspace(lo, hi, r) for (lo, hi), r in zip(bounds, res)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    mat = _code_matrix(net, points, layer_prefix)
    table, ids = _tabulate(mat)
    return table, points, ids


def _tabulate(mat: np.ndarray) -> tuple[RegionTable, np.ndarray]:
    """The region table of a packed code matrix and each row's code id.

    Rows that repeat the row before them share its code, so only run
    heads (rows that differ from the row before them) are sorted: a
    lattice crosses few boundaries per line, and most of its rows repeat.
    Each run takes its head's id through a cumulative sum of the head
    mask, the counts are a bincount of the ids, and a code's
    representative is its first head, the lowest row that has the code.
    """
    n = mat.shape[0]
    if mat.shape[1] == 0:
        entries = {(): {"count": n, "representative": 0}}
        return RegionTable(entries, n), np.zeros(n, dtype=np.int64)
    mat = np.ascontiguousarray(mat)
    rows = mat.view(np.dtype((np.void, mat.dtype.itemsize * mat.shape[1]))).reshape(n)
    head = np.ones(n, dtype=bool)
    head[1:] = rows[1:] != rows[:-1]
    heads = np.flatnonzero(head)
    # void rows sort bytewise, which for packed codes is lexicographic order
    uniq, first, head_ids = np.unique(rows[heads], return_index=True, return_inverse=True)
    ids = head_ids[np.cumsum(head) - 1].astype(np.int64, copy=False)
    counts = np.bincount(ids, minlength=uniq.shape[0])
    keys = uniq.view(mat.dtype).reshape(uniq.shape[0], mat.shape[1]).tolist()
    entries = {
        tuple(key): {"count": c, "representative": r}
        for key, c, r in zip(keys, counts.tolist(), heads[first].tolist())
    }
    return RegionTable(entries, n), ids


def region_stats(net: Network, dataset: Tensor, layer_prefix: int | None) -> dict:
    """Distinct-code count and descending occupancy histogram of a dataset."""
    X = as_tensor(dataset, "dataset")
    if X.ndim != 2 or X.shape[0] < 1:
        raise ShapeError("dataset must be a nonempty (n, D) array")
    mat = _code_matrix(net, X, layer_prefix)
    table, _ = _tabulate(mat)
    hist = sorted((e["count"] for e in table.entries.values()), reverse=True)
    return {"nonempty_count": len(table.entries), "histogram": hist}


def vq_distance(a, b):
    """Fraction of units whose codes differ, over the last axis of two code
    arrays (one flat code row each, or rows broadcast against each other);
    0 iff every code agrees, and 0.0 when there are no units."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"code shapes differ: {a.shape} vs {b.shape}")
    try:
        differ = np.not_equal(a, b)
    except ValueError:
        raise ShapeError(f"code rows do not broadcast: {a.shape} vs {b.shape}") from None
    # a count over a width, which equals the mean of the 0/1 flags
    return np.count_nonzero(differ, axis=-1) / max(a.shape[-1], 1)


def nearest_neighbors(
    net: Network, layer: int | None, query_index: int, dataset: Tensor, k: int
) -> list:
    """Indices of the k nearest dataset points in code distance at a layer.

    Ties are broken by input-space Euclidean distance, then by index; the
    query point itself is excluded.  Cost: one forward over the dataset to
    the prefix, a linear-time selection of the k-th smallest code distance,
    and Euclidean distances and a sort for the rows within it only.
    """
    X = as_tensor(dataset, "dataset")
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D dataset, got shape {X.shape}")
    n = X.shape[0]
    query_index, k = as_int(query_index, "query index"), as_int(k, "neighbour count")
    if not 0 <= query_index < n:
        raise DomainError(f"query index {query_index} out of range")
    if not 0 <= k <= n - 1:
        raise DomainError(f"asked for {k} neighbors among {n - 1} candidates")
    mat = _code_matrix(net, X, layer)
    # differing units, which order rows as their fraction does
    counts = np.count_nonzero(mat != mat[query_index], axis=1)
    # the query's own 0 is the smallest count, so this is the k-th smallest
    # among the other rows, and no row above it can be among the k
    cand = np.flatnonzero(counts <= np.partition(counts, k)[k])
    # the gathered rows are C-ordered, so each distance sums its terms in
    # one order whatever X's layout
    euclid = np.linalg.norm(X[cand] - X[query_index], axis=1)
    # lexsort is stable and cand ascends, so the index breaks the last ties
    order = cand[np.lexsort((euclid, counts[cand]))]
    return order[order != query_index][:k].tolist()
