"""End-to-end acceptance checks, one test per numbered criterion.

Each test records a pass/fail line (printed in the terminal summary by
conftest) and then asserts, so a red run still reports every criterion.
Shared expensive artifacts (the toy-task training runs) live in
module-scoped fixtures.
"""

import copy
import itertools
import time

import numpy as np
import pytest

from conftest import record_acceptance
from masonet import analysis, cli, learn, partition, splinefit
from masonet import layers as L
from masonet.maso import MasoParams, entropy_objective, forward, kmeans_codes, scores
from masonet.partition import vq_distance
from test_learn import orthogonal_unit_params


def sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


# ---------------------------------------------------------------------------
# shared toy-task runs (criteria 9 and 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def toy_runs():
    X, y = cli.generate_toy_dataset(0)
    net0 = L.make_mlp([2, 45, 3, 4], seed=3)
    depth = len(net0.layers)
    regions_before = partition.region_stats(net0, X, depth)["nonempty_count"]

    base_cfg = learn.TrainConfig(learning_rate=0.01, epochs=40, batch_size=128,
                                 gamma=0.0, seed=3)
    t0 = time.monotonic()
    net_base, hist_base = learn.train(net0, (X, y), base_cfg)
    base_seconds = time.monotonic() - t0
    regions_after = partition.region_stats(net_base, X, depth)["nonempty_count"]

    orth_cfg = learn.TrainConfig(learning_rate=0.01, epochs=40, batch_size=128,
                                 gamma=1.0, seed=3)
    net_orth, hist_orth = learn.train(net0, (X, y), orth_cfg)

    return {
        "X": X, "y": y,
        "net_base": net_base, "hist_base": hist_base,
        "net_orth": net_orth, "hist_orth": hist_orth,
        "base_seconds": base_seconds,
        "regions_before": regions_before, "regions_after": regions_after,
    }


def offdiag_energy(W):
    G = W @ W.T
    return float(np.sum(G**2) - np.sum(np.diag(G) ** 2))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_affine_decomposition_exact():
    rng = np.random.default_rng(42)
    regions, _ = L.pool_regions_2d((4, 8, 8), (2, 2), (2, 2))
    net = L.Network(
        [
            L.Conv(rng.standard_normal((4, 1, 3, 3)) * 0.5, rng.standard_normal(4) * 0.1,
                   (1, 1), "same-zero", (1, 8, 8)),
            L.Activation("relu", 256),
            L.MaxPool(regions, 256),
            L.Dense(rng.standard_normal((10, 64)) * 0.3, rng.standard_normal(10) * 0.1),
        ],
        (1, 8, 8),
        10,
    )
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(64)
        f, _ = L.network_forward(net, x)
        form = analysis.decompose(net, x)
        dev = float(np.max(np.abs(f - (form.A @ x + form.b))))
        bound = 1e-6 * (1.0 + float(np.max(np.abs(f))))
        worst = max(worst, dev / bound)
    elapsed = time.monotonic() - t0
    ok = worst <= 1.0 and elapsed < 30.0
    record_acceptance(1, "conv net equals its input-conditioned affine map",
                      ok, f"worst dev/bound {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_02_every_layer_pair_is_one_maso():
    rng = np.random.default_rng(7)
    conv = L.Conv(rng.standard_normal((2, 1, 3, 3)) * 0.6, rng.standard_normal(2) * 0.1,
                  (1, 1), "same-zero", (1, 4, 4))
    dense = L.Dense(rng.standard_normal((16, 12)) * 0.7, rng.standard_normal(16) * 0.2)
    stages = {
        "dense": (dense, (1, 4, 4), rng.standard_normal((100, 12))),
        "conv": (conv, (2, 4, 4), rng.standard_normal((100, 16))),
    }

    def tails(shape):
        c, dim = shape[0], int(np.prod(shape))
        regions, _ = L.pool_regions_2d(shape, (2, 2), (2, 2))
        yield from (L.Activation(kind, dim, nu=0.1) for kind in ("relu", "lrelu", "abs"))
        yield L.MaxPool(regions, dim)
        yield L.AvgPool(regions, dim)
        yield L.BatchNorm(rng.standard_normal(dim) * 0.1, rng.random(dim) + 0.5,
                          rng.standard_normal(dim), rng.standard_normal(dim) * 0.1)
        yield L.SkipBlock(
            L.Conv(rng.standard_normal((c, c, 3, 3)) * 0.4, rng.standard_normal(c) * 0.1,
                   (1, 1), "same-zero", shape),
            L.Activation("relu", dim),
            L.Conv(rng.standard_normal((c, c, 1, 1)) * 0.4, np.zeros(c), (1, 1), "same-zero",
                   shape),
            rng.standard_normal(dim) * 0.1,
        )
        yield L.Conv(rng.standard_normal((2, c, 3, 3)) * 0.4, rng.standard_normal(2) * 0.1,
                     (1, 1), "valid", shape)

    # a maxout group (Goodfellow et al.): a dense map, then the max over
    # each run of 4 consecutive units
    maxout = L.MaxPool(tuple(tuple(range(i, i + 4)) for i in range(0, 16, 4)), 16)
    pairs = [(lin, tail, X) for lin, shape, X in stages.values() for tail in tails(shape)]
    pairs.append((dense, maxout, stages["dense"][2]))
    worst = 0.0
    for lin, tail, X in pairs:
        maso = L.compose_layer_maso(lin.as_maso(), tail.as_maso())
        expect = tail.forward(lin.forward(X)[0])[0]
        got = forward(maso, X)[0]
        worst = max(worst, float(np.max(np.abs(got - expect))))
    ok = worst <= 1e-10 and L.compose_layer_maso(dense.as_maso(), maxout.as_maso()).R == 4
    record_acceptance(2, "dense/conv then each of the 7 layer kinds, and a maxout group, "
                      "is one MASO", ok, f"{len(pairs)} pairs, max dev {worst:.2e}")
    assert ok


def test_criterion_03_beta_vq_relu_is_swish():
    p = L.Activation("relu", 1).as_maso()
    grid = np.linspace(-10.0, 10.0, 2001)
    worst = worst_siglu = 0.0
    for b in (0.25, 0.5, 0.75):
        eta = b / (1.0 - b)
        got = forward(p, grid[:, None], b)[0][:, 0]
        swish = grid * sigmoid(eta * grid)
        worst = max(worst, float(np.max(np.abs(got - swish))))
        if b == 0.5:
            worst_siglu = float(np.max(np.abs(got - grid * sigmoid(grid))))
    ok = worst <= 1e-9 and worst_siglu <= 1e-9
    record_acceptance(3, "beta-VQ relu equals the swish family (SiGLU at 0.5)",
                      ok, f"max dev {worst:.2e}")
    assert ok


def test_criterion_04_beta_limits():
    rng = np.random.default_rng(11)
    uniform_dev = 0.0
    hard_matches = 0
    for _ in range(1000):
        R = int(rng.integers(2, 6))
        A = rng.standard_normal((1, R, 4))
        B = rng.standard_normal((1, R))
        z = rng.standard_normal(4)
        s = scores(MasoParams(A, B), z)[0]
        order = np.sort(s)
        gap = order[-1] - order[-2]
        if gap < 0.1:
            B = B.copy()
            B[0, int(np.argmax(s))] += 0.1 - gap + 0.05
        p = MasoParams(A, B)
        T_lo = forward(p, z, 1e-6)[1]
        uniform_dev = max(uniform_dev, float(np.max(np.abs(T_lo - 1.0 / R))))
        T_hi = forward(p, z, 0.999)[1]
        if int(np.argmax(T_hi[0])) == int(forward(p, z)[1][0]):
            hard_matches += 1
    ok = uniform_dev <= 1e-5 and hard_matches == 1000
    record_acceptance(4, "beta endpoints: uniform at 1e-6, argmax-hard at 0.999",
                      ok, f"uniform dev {uniform_dev:.2e}, {hard_matches}/1000 hard")
    assert ok


def project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = np.nonzero(u * idx > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1.0), 0.0)


def test_criterion_05_closed_form_maximizes_entropy_objective():
    rng = np.random.default_rng(23)

    def objective(t, s, b):
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(t > 0.0, t * np.log(np.where(t > 0.0, t, 1.0)), 0.0)
        return b * (t @ s) + (1.0 - b) * (-np.sum(plogp, axis=-1))

    worst_margin = np.inf
    for i in range(100):
        R = (2, 3, 5)[i % 3]
        p = MasoParams(rng.standard_normal((1, R, 3)), rng.standard_normal((1, R)))
        z = rng.standard_normal(3)
        b = float(rng.uniform(0.05, 0.95))
        s = scores(p, z)[0]
        T = forward(p, z, b)[1]
        closed = float(entropy_objective(p, z, T, b)[0])
        assert abs(closed - objective(T[0], s, b)) < 1e-12

        cands = rng.dirichlet(np.ones(R), size=10_000)
        best = float(np.max(objective(cands, s, b)))
        t = cands[int(np.argmax(objective(cands, s, b)))].copy()
        for _ in range(50):
            grad = b * s - (1.0 - b) * (np.log(np.where(t > 0, t, 1e-300)) + 1.0)
            t = project_simplex(t + 0.1 * grad)
            best = max(best, float(objective(t, s, b)))
        worst_margin = min(worst_margin, closed - best)
    ok = worst_margin >= -1e-9
    record_acceptance(5, "softmax selection beats 1e4 simplex candidates + PGD",
                      ok, f"worst margin {worst_margin:.2e}")
    assert ok


def test_criterion_06_kmeans_equivalence():
    rng = np.random.default_rng(5)
    matches = 0
    for _ in range(1000):
        A = rng.standard_normal((3, 4, 5))
        B = -0.5 * np.sum(A * A, axis=2)
        p = MasoParams(A, B)
        z = rng.standard_normal(5)
        hvq = forward(p, z)[1]
        oracle = np.argmin(np.sum((A - z) ** 2, axis=2), axis=1)
        lib = kmeans_codes(p, z)
        if np.array_equal(hvq, oracle) and np.array_equal(lib, oracle):
            matches += 1
    ok = matches == 1000
    record_acceptance(6, "HVQ equals nearest centroid when B = -||A||^2/2",
                      ok, f"{matches}/1000")
    assert ok


def test_criterion_07_factorial_joint_map():
    rng = np.random.default_rng(17)
    matches = 0
    for _ in range(500):
        K = int(rng.integers(2, 5))
        R = int(rng.integers(2, 4))
        D = int(rng.integers(K * R, 13))
        p = orthogonal_unit_params(rng, K, R, D)
        z = rng.standard_normal(D)
        codes = learn.joint_map_factorial(p, z)
        best, best_cfg = -np.inf, None
        for cfg in itertools.product(range(R), repeat=K):
            v = sum(float(p.A[k, cfg[k]] @ z + p.B[k, cfg[k]]) for k in range(K))
            if v > best:
                best, best_cfg = v, cfg
        if tuple(codes) == best_cfg:
            matches += 1
    ok = matches == 500
    record_acceptance(7, "per-unit codes solve the joint R^K argmax",
                      ok, f"{matches}/500")
    assert ok


def grad_check_nets(rng):
    regions, _ = L.pool_regions_2d((2, 4, 4), (2, 2), (2, 2))
    regions1, _ = L.pool_regions_2d((1, 4, 4), (2, 2), (2, 2))
    mlp = L.Network(
        [
            L.Dense(rng.standard_normal((6, 3)) * 0.6, rng.standard_normal(6) * 0.1),
            L.Activation("relu", 6),
            L.Dense(rng.standard_normal((4, 6)) * 0.6, rng.standard_normal(4) * 0.1),
            L.Activation("abs", 4),
            L.Dense(rng.standard_normal((2, 4)) * 0.6, rng.standard_normal(2) * 0.1),
        ],
        (3,), 2,
    )
    convnet = L.Network(
        [
            L.Conv(rng.standard_normal((2, 1, 3, 3)) * 0.5, rng.standard_normal(2) * 0.1,
                   (1, 1), "same-zero", (1, 4, 4)),
            L.BatchNorm(rng.standard_normal(32) * 0.1, rng.uniform(0.5, 1.5, 32),
                        rng.standard_normal(32) * 0.5 + 1.0, rng.standard_normal(32) * 0.1),
            L.Activation("lrelu", 32, nu=0.1),
            L.MaxPool(regions, 32),
            L.Dense(rng.standard_normal((2, 8)) * 0.5, rng.standard_normal(2) * 0.1),
        ],
        (1, 4, 4), 2,
    )
    avgnet = L.Network(
        [
            L.AvgPool(regions1, 16),
            L.Activation("abs", 4),
            L.Dense(rng.standard_normal((2, 4)) * 0.7, rng.standard_normal(2) * 0.1),
        ],
        (1, 4, 4), 2,
    )
    conv = L.Conv(rng.standard_normal((1, 1, 3, 3)) * 0.5, rng.standard_normal(1) * 0.1,
                  (1, 1), "same-zero", (1, 3, 3))
    skip = L.Conv(rng.standard_normal((1, 1, 1, 1)) * 0.5, np.zeros(1),
                  (1, 1), "same-zero", (1, 3, 3))
    skipnet = L.Network(
        [
            L.SkipBlock(conv, L.Activation("relu", 9), skip, rng.standard_normal(9) * 0.1),
            L.Dense(rng.standard_normal((2, 9)) * 0.5, rng.standard_normal(2) * 0.1),
        ],
        (1, 3, 3), 2,
    )
    return [mlp, convnet, avgnet, skipnet]


def max_fd_error(net, X, y, mode, beta=None, h=1e-5):
    """Worst relative deviation of analytic gradients from central FD."""
    _, g = learn.gradients(net, X, y, mode=mode, beta=beta)
    worst, checked = 0.0, 0
    for key, G in g.items():
        if key.endswith(".beta"):
            continue  # the shared beta is checked as a summed gradient below
        G = np.asarray(G)
        li, field = key.split(".", 1)
        it = np.nditer(G, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            if abs(G[idx]) <= 1e-6:
                continue
            net2 = copy.deepcopy(net)
            target = net2.layers[int(li)]
            for part in field.split(".")[:-1]:
                target = getattr(target, part)
            arr = getattr(target, field.split(".")[-1])
            arr[idx] += h
            lp = learn.gradients(net2, X, y, mode=mode, beta=beta)[0]
            arr[idx] -= 2 * h
            lm = learn.gradients(net2, X, y, mode=mode, beta=beta)[0]
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(G[idx] - fd) / max(abs(fd), 1e-8))
            checked += 1
    if mode == "beta":
        beta_keys = [k for k in g if k.endswith(".beta")]
        if beta_keys:
            analytic = sum(float(g[k]) for k in beta_keys)
            lp = learn.gradients(net, X, y, mode=mode, beta=beta + h)[0]
            lm = learn.gradients(net, X, y, mode=mode, beta=beta - h)[0]
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(analytic - fd) / max(abs(fd), 1e-8))
            checked += 1
    return worst, checked


def test_criterion_08_gradients_match_finite_differences():
    rng = np.random.default_rng(31)
    worst, total = 0.0, 0
    for net in grad_check_nets(rng):
        X = rng.standard_normal((3, net.dims[0]))
        y = rng.integers(0, net.class_count, size=3)
        for mode, beta in (("hard", None), ("soft", None), ("beta", 0.35)):
            dev, n = max_fd_error(net, X, y, mode, beta)
            worst = max(worst, dev)
            total += n
    ok = worst <= 1e-4 and total > 0
    record_acceptance(8, "analytic gradients match finite differences",
                      ok, f"worst rel {worst:.2e} over {total} params")
    assert ok


def test_criterion_09_toy_training(toy_runs):
    accs = [h["accuracy"] for h in toy_runs["hist_base"]]
    best = max(accs)
    # history epochs are 0-indexed; report the 1-based count
    within = next((h["epoch"] + 1 for h in toy_runs["hist_base"] if h["accuracy"] >= 0.95), None)
    ok = (best >= 0.95 and within is not None and within <= 200
          and toy_runs["base_seconds"] < 180.0
          and toy_runs["regions_after"] >= toy_runs["regions_before"])
    record_acceptance(
        9, "toy task trains to 95% and the partition refines", ok,
        f"acc {best:.3f} by epoch {within}, {toy_runs['base_seconds']:.1f}s, "
        f"regions {toy_runs['regions_before']}->{toy_runs['regions_after']}")
    assert ok


def test_criterion_10_template_orthogonality_penalty(toy_runs):
    W_base = toy_runs["net_base"].layers[-1].W
    W_orth = toy_runs["net_orth"].layers[-1].W
    e_base, e_orth = offdiag_energy(W_base), offdiag_energy(W_orth)
    acc_base = toy_runs["hist_base"][-1]["accuracy"]
    acc_orth = toy_runs["hist_orth"][-1]["accuracy"]
    ok = e_orth * 10.0 <= e_base and acc_orth >= acc_base - 0.02
    record_acceptance(
        10, "gamma=1 shrinks off-diagonal Gram energy 10x at equal accuracy", ok,
        f"energy {e_base:.2e} -> {e_orth:.2e}, acc {acc_base:.3f} vs {acc_orth:.3f}")
    assert ok


def test_criterion_11_gram_schmidt():
    rng = np.random.default_rng(13)
    worst_gram = worst_proj = 0.0
    for _ in range(20):
        V = rng.standard_normal((8, 32))
        Q = learn.gram_schmidt(V)
        G = Q @ Q.T
        worst_gram = max(worst_gram, float(np.max(np.abs(G - np.diag(np.diag(G))))))
        P_v = np.linalg.pinv(V) @ V
        P_q = np.linalg.pinv(Q) @ Q
        worst_proj = max(worst_proj, float(np.max(np.abs(P_v - P_q))))
    ok = worst_gram <= 1e-10 and worst_proj <= 1e-9
    record_acceptance(11, "orthogonalized rows: zero off-diagonal Gram, same span",
                      ok, f"gram {worst_gram:.2e}, projector {worst_proj:.2e}")
    assert ok


def test_criterion_12_resnet_ensemble_identity():
    rng = np.random.default_rng(29)

    def block():
        conv = L.Conv(rng.standard_normal((1, 1, 3, 3)) * 0.5, rng.standard_normal(1) * 0.1,
                      (1, 1), "same-zero", (1, 3, 3))
        skip = L.Conv(rng.standard_normal((1, 1, 1, 1)) * 0.5, np.zeros(1),
                      (1, 1), "same-zero", (1, 3, 3))
        return L.SkipBlock(conv, L.Activation("relu", 9), skip,
                           rng.standard_normal(9) * 0.1)

    net = L.Network(
        [block(), block(), L.Dense(rng.standard_normal((4, 9)) * 0.4, rng.standard_normal(4))],
        (1, 3, 3), 4,
    )
    worst, term_count = 0.0, None
    for _ in range(20):
        x = rng.standard_normal(9)
        terms = analysis.resnet_ensemble_terms(net, x)
        term_count = len(terms)
        form = analysis.decompose(net, x, upto_layer=2)
        worst = max(worst, float(np.max(np.abs(sum(terms) - form.A))))
    ok = worst <= 1e-9 and term_count == 4
    record_acceptance(12, "4 expanded skip-chain terms sum to the affine slope",
                      ok, f"{term_count} terms, max dev {worst:.2e}")
    assert ok


def test_criterion_13_universality_decay():
    x = np.linspace(-1.0, 1.0, 2001)
    curve, slope, _ = splinefit.universality_curve(x, x**2, [2, 4, 8, 16, 32])
    errs = [e for _, e in curve]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    # x^2 decays as R^-2 (measured slope -2.01)
    ok = decreasing and slope is not None and slope <= -0.9 and abs(slope + 2) <= 0.1
    record_acceptance(13, "sup error of max-affine fits falls at least as fast as 1/R",
                      ok, f"errors {errs[0]:.1e}->{errs[-1]:.1e}, slope {slope:.2f}")
    assert ok


def test_criterion_14_apodized_reconstruction():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((8, 8))
    recon = L.apodized_reconstruct(z, (3, 3), np.ones((3, 3)) / 9.0)
    mask = L.interior_mask((8, 8), (3, 3))
    dev = float(np.max(np.abs(recon[mask] - z[mask])))
    ok = dev <= 1e-9
    record_acceptance(14, "windowed overlapping patches rebuild the interior",
                      ok, f"max dev {dev:.2e}")
    assert ok


def test_criterion_15_convexity():
    rng = np.random.default_rng(19)
    W2 = np.abs(rng.standard_normal((4, 6)))
    W3 = np.abs(rng.standard_normal((3, 4)))
    net = L.Network(
        [
            L.Dense(rng.standard_normal((6, 5)), rng.standard_normal(6)),
            L.Activation("abs", 6),
            L.Dense(W2, rng.standard_normal(4)),
            L.Activation("relu", 4),
            L.Dense(W3, rng.standard_normal(3)),
        ],
        (5,), 3,
    )
    layer2 = L.compose_layer_maso(net.layers[2].as_maso(), net.layers[3].as_maso())
    layer3 = net.layers[4].as_maso()
    assert L.slope_nonnegativity(layer2) and L.slope_nonnegativity(layer3)
    fractions = analysis.convexity_probe(net, 10_000, seed=4, tol=1e-9)
    ok = bool(np.all(fractions == 1.0))
    record_acceptance(15, "nonnegative-slope tail makes every output convex",
                      ok, f"pass fractions {fractions.tolist()}")
    assert ok


def test_criterion_16_vq_distance_pseudometric():
    rng = np.random.default_rng(37)
    m = 16  # power-of-two unit count keeps Hamming fractions exact
    a, b, c = np.moveaxis(rng.integers(0, 3, size=(10_000, 3, m)), 1, 0)
    # one distance per triple: vq_distance runs over the leading rows
    dab = vq_distance(a, b)
    holds = (dab == vq_distance(b, a)) & (vq_distance(a, a) == 0.0) & (vq_distance(a, c) <= dab + vq_distance(b, c))
    failures = int(np.count_nonzero(~holds))
    ok = failures == 0
    record_acceptance(16, "code distance: symmetric, reflexive, triangle",
                      ok, f"{10_000 - failures}/10000 triples")
    assert ok
