"""cli-pipeline: the demos/cli_pipeline.sh command sequence through cli.main.

Item and op: one command.  A prologue runs gen-data, a short train and a
1-D and a 2-D splinefit decay curve once per run.  Each pass then runs
ROUNDS rounds, each one window of: splinefit, partition, decompose,
templates and norms at two dataset rows, eval, nn, stats, and a relu and
an abs act-table.  The six per-row commands hold the middle of the
latency distribution and the two tables its top 15%, so p50 and p90 lie
inside those groups rather than on an edge between them.

Commands of one kind read random subsets of the toy set (written in
set-up) whose sizes cycle through DATA_SIZES, and the tables' grids are
evenly spaced over ACT_POINTS.  Latencies then spread smoothly instead
of in a few tight clusters: on a host whose speed switches between two
levels, a percentile inside a tight cluster jumps between them as the
mix of levels in a run changes, while over a smooth spread it moves in
proportion.  Sizes and their order are the same for every seed (an order
drawn from the seed moved peak RSS by 5%).  Commands run in-process (the
console script is not needed) inside a scratch directory.
"""

import contextlib
import io

import numpy as np
from masonet import cli

from harness import Op, Workload

ROUNDS = 8  # 13 * ROUNDS >= 100 ops in one pass
ROWS_PER_ROUND = 2
TOY_POINTS = 20000
TRAIN_EPOCHS = 2
NET_LAYERS = 5  # mlp:2-45-3-4 is dense, relu, dense, relu, dense
BETAS = "0.25,0.5,0.75"
DATA_SIZES = np.linspace(10000, TOY_POINTS, 6).astype(int)  # rows of the subsets rounds read
ACT_POINTS = (1001, 3001)  # smallest and largest act-table grid, around the 2001-point default
DECAY_1D = "2,4,8,16,32"
DECAY_2D = "4,8,16,32"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


def _decay_slope(rows) -> float:
    R, err = np.array(rows).T
    return float(np.polyfit(np.log(R), np.log(err), 1)[0])


def build(seed, workdir):
    rng = np.random.default_rng(seed)
    d = workdir / "cli"
    d.mkdir(parents=True, exist_ok=True)
    toy, net = str(d / "toy.csv"), str(d / "net.json")
    quad, bowl = d / "quad.csv", d / "bowl.csv"
    x = np.linspace(-1.0, 1.0, 2001)
    quad.write_text("x,f\n" + "".join(f"{v!r},{v * v!r}\n" for v in x.tolist()))
    g = np.linspace(-1.0, 1.0, 41)
    bowl.write_text("x1,x2,f\n" + "".join(
        f"{a!r},{b!r},{a * a + b * b!r}\n" for a in g.tolist() for b in g.tolist()))
    notes = {}

    def op(name, argv, out, header, rows, extra=None):
        """A command whose CSV output must carry `header` and `rows` rows
        (any nonzero number when rows is None)."""
        def check(result):
            rc, text = result
            if rc != 0:
                return f"exit code {rc}: {text.strip()[-300:]}"
            got_header, got_rows = _read_csv(out)
            if got_header != header:
                return f"header {got_header} != {header}"
            if (not got_rows) if rows is None else len(got_rows) != rows:
                return f"{len(got_rows)} rows, expected {rows or 'some'}"
            return extra(got_rows) if extra else None
        return Op(name, lambda: _run(argv), 1, check)

    def finite_losses(rows):
        return None if all(np.isfinite(r[1]) for r in rows) else "non-finite training loss"

    def slope_1d(rows):
        slope = _decay_slope(rows)
        notes["decay_slope_1d"] = slope
        return None if slope <= -0.9 else f"1-D decay slope {slope:.3f} > -0.9"

    def slope_2d(rows):
        notes["decay_slope_2d"] = _decay_slope(rows)  # recorded, not gated
        return None

    prologue = [
        op("gen-data", ["gen-data", "--out", toy, "--seed", str(seed)], toy,
           ["x1", "x2", "label"], TOY_POINTS),
        op("train", ["train", "--net", "mlp:2-45-3-4", "--data", toy, "--out", net,
                     "--epochs", str(TRAIN_EPOCHS), "--lr", "0.01", "--seed", str(seed)],
           net + ".history.csv",
           ["epoch", "loss", "accuracy", "template_penalty", "filter_penalty"], TRAIN_EPOCHS,
           finite_losses),
        op("splinefit-decay-1d", ["splinefit", "--data", str(quad), "--k", DECAY_1D,
                                  "--out", str(d / "decay1.csv")],
           str(d / "decay1.csv"), ["R", "sup_error"], len(DECAY_1D.split(",")), slope_1d),
        op("splinefit-decay-2d", ["splinefit", "--data", str(bowl), "--k", DECAY_2D,
                                  "--out", str(d / "decay2.csv")],
           str(d / "decay2.csv"), ["R", "sup_error"], len(DECAY_2D.split(",")), slope_2d),
    ]
    X, y = cli.generate_toy_dataset(seed)
    keep = rng.permutation(TOY_POINTS)
    subsets = {}
    for n in DATA_SIZES.tolist():
        subsets[n] = str(d / f"toy-{n}.csv")
        cli.save_dataset_csv(subsets[n], X[keep[:n]], y[keep[:n]])
    out = {k: str(d / f"{k}.csv") for k in
           ("eval", "affine", "templates", "partition", "stats", "nn", "norms", "act", "pieces")}
    act_header = ["u", "beta", "hard_value", "soft_value", "beta_value"]
    n_betas = len(BETAS.split(","))

    per_pass = {"decompose": ROWS_PER_ROUND, "templates": ROWS_PER_ROUND, "norms": ROWS_PER_ROUND,
                "eval": 1, "nn": 1, "stats": 1}
    layout = np.random.default_rng(0)  # size order, fixed across seeds
    sizes_left = {k: iter(layout.permutation(np.resize(DATA_SIZES, ROUNDS * m)).tolist())
                  for k, m in per_pass.items()}
    grids_left = iter(layout.permutation(np.linspace(*ACT_POINTS, 2 * ROUNDS).round().astype(int)).tolist())

    def data(kind):
        """The next subset for a command of `kind`: (rows, path, a row index in it)."""
        n = next(sizes_left[kind])
        return n, subsets[n], str(int(rng.integers(n)))

    def act(mode):
        res = next(grids_left)
        return op("act-table", ["act-table", "--mode", mode, "--beta", BETAS, "--resolution", str(res),
                                "--out", out["act"]],
                  out["act"], act_header, res * n_betas)

    ops = []
    for r in range(ROUNDS):
        res = 41 + 2 * r
        layer = [] if r % 2 == 0 else ["--layer", "2"]
        pieces = 3 + r
        ops += [
            op("splinefit", ["splinefit", "--data", str(quad), "--k", str(pieces), "--out", out["pieces"]],
               out["pieces"], ["slope1", "offset"], pieces),
            op("partition", ["partition", "--net", net, "--bounds=-2,2", "--resolution", str(res), *layer,
                             "--out", out["partition"]],
               out["partition"], ["x1", "x2", "code_id"], res * res),
        ]
        for _ in range(ROWS_PER_ROUND):
            _, data_a, row_a = data("decompose")
            _, data_b, row_b = data("templates")
            _, data_c, row_c = data("norms")
            ops += [
                op("decompose", ["decompose", "--net", net, "--data", data_a, "--k", row_a, "--out", out["affine"]],
                   out["affine"], ["a1", "a2", "b"], 4),
                op("templates", ["templates", "--net", net, "--data", data_b, "--k", row_b,
                                 "--out", out["templates"]],
                   out["templates"], ["t1", "t2", "bias"], 4),
                op("norms", ["norms", "--net", net, "--data", data_c, "--k", row_c, "--out", out["norms"]],
                   out["norms"], ["depth", "frobenius_norm"], NET_LAYERS - 1),
            ]
        n_eval, data_eval, _ = data("eval")
        n_nn, data_nn, query = data("nn")
        n_stats, data_stats, _ = data("stats")
        ops += [
            op("eval", ["eval", "--net", net, "--data", data_eval, "--out", out["eval"]], out["eval"],
               ["loss", "accuracy", "points"], 1,
               lambda rows, n=n_eval: None if rows[0][2] == n else f"points {rows[0][2]} != {n}"),
            op("nn", ["nn", query, "--net", net, "--data", data_nn, "--k", "5", "--out", out["nn"]],
               out["nn"], ["rank", "index", "vq_distance"], 5,
               lambda rows, q=int(query): None if q not in [r[1] for r in rows] else "query among its neighbors"),
            op("stats", ["stats", "--net", net, "--data", data_stats, "--out", out["stats"]],
               out["stats"], ["rank", "count"], None,
               lambda rows, n=n_stats: None if sum(c for _, c in rows) == n else "counts do not sum"),
            act("relu"),
            act("abs"),
        ]
    # warm-up: argument parsing, CSV writing and one small fit
    _run(["act-table", "--beta", "0.5", "--resolution", "11", "--out", str(d / "warm.csv")])
    _run(["splinefit", "--data", str(quad), "--k", "4", "--out", str(d / "warm.csv")])
    sizes = {"toy_points": TOY_POINTS, "train_epochs": TRAIN_EPOCHS, "rounds": ROUNDS,
             "rows_per_round": ROWS_PER_ROUND, "data_sizes": DATA_SIZES.tolist(),
             "act_points": list(ACT_POINTS),
             "quad_samples": int(x.size), "bowl_samples": int(g.size ** 2),
             "prologue_ops": len(prologue), "ops_per_pass": len(ops)}
    return Workload(ops, sizes, notes, prologue, window=len(ops) // ROUNDS)
