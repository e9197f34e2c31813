"""mlp-train: a sweep of one-epoch `train` calls on seeded toy subsets.

Item: one training example.  Op: one `train` call.  The sweep crosses the
three selection regimes (hard, soft, beta with learnable beta), two
penalty settings (none; gamma=1 with lambda=0.01) and two widths (the
paper's 2-45-3-4 and 2-64-64-4), and runs each at every size in SUBSETS,
so latencies spread smoothly around each configuration's cost and the
percentiles move in proportion to the host's speed rather than jumping
between tight clusters.  The sizes are the same for every seed, so the
latency distribution does not depend on it.  No partition or analysis
code runs, so this workload is the no-change control for work on those
modules.
"""

import itertools

import masonet as M
import numpy as np
from masonet import cli

import ref
from harness import Op, Workload

SUBSETS = (2000, 3000, 4000)  # training points per call
WIDTHS = ((2, 45, 3, 4), (2, 64, 64, 4))
REGIMES = ("hard", "soft", "beta")
PENALTIES = ((0.0, 0.0), (1.0, 0.01))


def _train(net, X, y, config):
    return M.train(net, (X, y), config)


def _check(X, y, result):
    trained, history = result
    if len(history) != 1:
        return f"expected one history entry, got {len(history)}"
    h = history[0]
    if not all(np.isfinite(h[k]) for k in ("loss", "template_penalty", "filter_penalty")):
        return f"non-finite history entry {h}"
    logits, _ = ref.forward(trained, X)
    agree = int(np.sum(np.argmax(logits, axis=1) == y))
    # one prediction may flip on a float tie between the two arithmetics
    if abs(agree - h["accuracy"] * len(y)) > 1.0:
        return f"history accuracy {h['accuracy']} vs independent forward {agree / len(y)}"
    return None


def build(seed, workdir):
    X, y = cli.generate_toy_dataset(seed)
    rng = np.random.default_rng(seed)
    ops = []
    for dims, regime, (gamma, lam), n in itertools.product(WIDTHS, REGIMES, PENALTIES, SUBSETS):
        keep = rng.permutation(X.shape[0])[:n]
        Xs, ys = X[keep], y[keep]
        net = M.make_mlp(dims, seed=int(rng.integers(2**31)))
        config = M.TrainConfig(
            epochs=1,
            beta_mode=regime,
            beta_learnable=regime == "beta",
            gamma=gamma,
            lam=lam,
            seed=int(rng.integers(2**31)),
        )
        name = f"train[{'-'.join(map(str, dims))},{regime},gamma={gamma},lambda={lam},n={n}]"
        ops.append(Op(
            name,
            lambda net=net, a=Xs, b=ys, c=config: _train(net, a, b, c),
            n,
            lambda r, a=Xs, b=ys: _check(a, b, r),
        ))
    # warm-up: every regime at both widths and the largest subset size, so the first
    # timed pass neither runs cold code paths nor waits for glibc to raise
    # its dynamic mmap threshold to the 2-64-64-4 temporaries
    for dims in WIDTHS:
        for regime in REGIMES:
            M.train(M.make_mlp(dims, seed=0), (X[:max(SUBSETS)], y[:max(SUBSETS)]),
                    M.TrainConfig(epochs=1, beta_mode=regime, beta_learnable=regime == "beta"))
    sizes = {"toy_points": int(X.shape[0]), "subsets": list(SUBSETS), "epochs": 1, "batch": 128,
             "widths": ["-".join(map(str, d)) for d in WIDTHS], "ops_per_pass": len(ops)}
    return Workload(ops, sizes)
