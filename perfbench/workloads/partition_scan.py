"""partition-scan: lattice scans, region statistics and code-space queries.

Item: one point coded.  Op: one call.  A 2-45-3-4 net is trained in
set-up on the 20k toy set; each pass then runs a full-depth grid_scan of
GRID^2 points, a shallow-prefix scan, region_stats on the dataset and
QUERIES nearest_neighbors queries.  Each query searches a random subset
of the dataset (and re-codes all of it); the subset sizes are evenly
spaced over NN_POINTS, the same for every seed, and only their order
comes from it.  So nn latencies, which hold p50 and p90, spread smoothly
and the percentiles move in proportion to the host's speed rather than
jumping between the two levels of a host that switches speed.
"""

import functools

import masonet as M
import numpy as np
from masonet import cli

import ref
from harness import Op, Workload

GRID = 501
SHALLOW = 301
SHALLOW_PREFIX = 2
QUERIES = 50  # per pass; 3 big calls in 53 ops keep p90 inside the nn cluster
NN_POINTS = (10000, 20000)  # smallest and largest subset one query searches
K = 10
BOUNDS = ((-2.0, 2.0), (-2.0, 2.0))
GRID_SAMPLE = 2000  # lattice points whose codes are recomputed for the check
NN_CHECKED = 20  # queries checked against a brute-force ranking


def _same_partition(codes, ids) -> bool:
    """Equal code rows carry equal ids, and distinct rows distinct ids."""
    by_code, by_id = {}, {}
    for row, i in zip(np.ascontiguousarray(codes), ids.tolist()):
        key = row.tobytes()
        if by_code.setdefault(key, i) != i or by_id.setdefault(i, key) != key:
            return False
    return True


def _check_grid(net, res, prefix, sample, result):
    table, points, ids = result
    n = res * res
    if ids.shape != (n,) or points.shape != (n, 2) or table.total != n:
        return f"grid shapes {ids.shape}, {points.shape}, total {table.total}"
    if sum(e["count"] for e in table.entries.values()) != n:
        return "region counts do not sum to the point count"
    if ids.min() < 0 or ids.max() >= len(table.entries):
        return "code id out of range"
    axis = np.linspace(BOUNDS[0][0], BOUNDS[0][1], res)
    lattice = np.stack([axis[sample // res], axis[sample % res]], axis=1)
    if not np.array_equal(points[sample], lattice):
        return "lattice points are not in row-major order"
    if not _same_partition(ref.code_matrix(net, lattice, prefix), ids[sample]):
        return "grid ids disagree with independently computed codes"
    return None


def build(seed, workdir):
    X, y = cli.generate_toy_dataset(seed)
    net, _ = M.train(M.make_mlp([2, 45, 3, 4], seed=seed), (X, y), M.TrainConfig(epochs=2, seed=seed))
    depth = len(net.layers)
    rng = np.random.default_rng(seed)
    Xs = X[rng.permutation(X.shape[0])]  # nn subsets are prefixes of this shuffle
    subset_sizes = rng.permutation(np.linspace(*NN_POINTS, QUERIES).round().astype(int)).tolist()
    queries = [(int(rng.integers(n)), n) for n in subset_sizes]  # (query row, subset size)
    checked = set(rng.choice(QUERIES, NN_CHECKED, replace=False).tolist())

    @functools.cache
    def dataset_codes():
        return ref.code_matrix(net, X, depth)

    @functools.cache
    def shuffled_codes():
        return ref.code_matrix(net, Xs, depth)

    def check_stats(result):
        distinct = len({row.tobytes() for row in dataset_codes()})
        hist = result["histogram"]
        if result["nonempty_count"] != distinct or len(hist) != distinct:
            return f"{result['nonempty_count']} regions reported, {distinct} distinct code rows"
        if sum(hist) != X.shape[0] or hist != sorted(hist, reverse=True):
            return "histogram does not sum to the dataset size in descending order"
        return None

    def check_nn(i, q, n, result):
        if len(result) != K or q in result or len(set(result)) != K or max(result) >= n:
            return f"bad neighbor list {result}"
        if i not in checked:
            return None
        codes, pts = shuffled_codes()[:n], Xs[:n]
        dist = np.mean(codes != codes[q], axis=1)
        euclid = np.linalg.norm(pts - pts[q], axis=1)
        order = np.lexsort((np.arange(n), euclid, dist))
        expect = [int(i) for i in order if i != q][:K]
        return None if list(result) == expect else f"query {q}: {list(result)} != {expect}"

    def grid_op(res, prefix):
        sample = np.sort(rng.choice(res * res, GRID_SAMPLE, replace=False))
        return Op(
            f"grid_scan[{res}^2,prefix={prefix}]",
            lambda: M.grid_scan(net, BOUNDS, res, prefix),
            res * res,
            lambda r: _check_grid(net, res, prefix, sample, r),
        )

    ops = [
        grid_op(GRID, depth),
        grid_op(SHALLOW, SHALLOW_PREFIX),
        Op("region_stats", lambda: M.region_stats(net, X, depth), X.shape[0], check_stats),
    ]
    for i, (q, n) in enumerate(queries):
        ops.append(Op(
            f"nearest_neighbors[{q} of {n}]",
            lambda q=q, n=n: M.nearest_neighbors(net, depth, q, Xs[:n], K),
            n,
            lambda r, i=i, q=q, n=n: check_nn(i, q, n, r),
        ))
    M.grid_scan(net, BOUNDS, 21, depth)  # warm-up
    M.nearest_neighbors(net, depth, 0, X[:500], K)
    sizes = {"toy_points": int(X.shape[0]), "train_epochs": 2, "grid": GRID, "shallow_grid": SHALLOW,
             "shallow_prefix": SHALLOW_PREFIX, "queries": QUERIES, "nn_points": list(NN_POINTS), "k": K,
             "ops_per_pass": len(ops)}
    return Workload(ops, sizes)
