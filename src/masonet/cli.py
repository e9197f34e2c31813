"""Command-line front end: datasets, network files, tabular emitters.

Subcommands: gen-data, train, eval, decompose, templates, partition,
stats, nn, norms, ensemble, splinefit, act-table.  Each subcommand's
parser declares only the flags its handler reads and converts their
values (comma lists included); the handler receives the parsed
namespace.  Every command is deterministic given its seed and inputs;
all CSV output carries a header row, uses '.' decimals and LF line
endings.  Exit codes: 0 success, 2 bad input (file, flag or value), 1
internal error.

Dataset files are CSV (feature columns then an integer label; splinefit
reads the same layout with a float target).  Networks are JSON
documents: {"input_shape", "class_count", "layers": [tagged layer
objects with decimal weight arrays]}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, learn, partition, splinefit
from . import layers as L
from .maso import MasoParams, scores, select
from .ndcore import MasonetError, ValidationError, as_tensor

__all__ = [
    "generate_toy_dataset",
    "load_dataset_csv",
    "save_dataset_csv",
    "load_network",
    "save_network",
    "emit_activation_table",
    "main",
]

_TOY_POINTS_PER_CLASS = 5000
_TOY_CLASSES = 4
_TOY_BOX = 2.0


# ---------------------------------------------------------------------------
# toy data
# ---------------------------------------------------------------------------

def generate_toy_dataset(seed: int = 0):
    """Four anisotropic Gaussian blobs, 5000 points each, inside [-2, 2]^2.

    Class means sit on a ring of radius 1 (one per quadrant); each blob is
    stretched along the ring tangent.  Points falling outside the box are
    resampled, so every coordinate lies in [-2, 2].  Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    X = np.zeros((_TOY_CLASSES * _TOY_POINTS_PER_CLASS, 2))
    y = np.repeat(np.arange(_TOY_CLASSES), _TOY_POINTS_PER_CLASS)
    angles = np.deg2rad([45.0, 135.0, 225.0, 315.0])
    for c, ang in enumerate(angles):
        mean = np.array([np.cos(ang), np.sin(ang)])
        tang = np.array([-np.sin(ang), np.cos(ang)])
        radial = np.array([np.cos(ang), np.sin(ang)])
        # tangential spread 0.30, radial spread 0.12
        basis = np.stack([0.30 * tang, 0.12 * radial], axis=1)
        block = slice(c * _TOY_POINTS_PER_CLASS, (c + 1) * _TOY_POINTS_PER_CLASS)
        pts = mean + rng.standard_normal((_TOY_POINTS_PER_CLASS, 2)) @ basis.T
        bad = np.any(np.abs(pts) > _TOY_BOX, axis=1)
        while np.any(bad):
            pts[bad] = mean + rng.standard_normal((int(bad.sum()), 2)) @ basis.T
            bad = np.any(np.abs(pts) > _TOY_BOX, axis=1)
        X[block] = pts
    return X, y


# ---------------------------------------------------------------------------
# CSV dataset files
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    # 17 significant digits: enough for exact float64 round-trips
    return format(float(v), ".17g")


def save_dataset_csv(path: str, X, y) -> None:
    X = as_tensor(X)
    y = np.asarray(y, dtype=np.int64)
    cols = [f"x{i + 1}" for i in range(X.shape[1])] + ["label"]
    lines = [",".join(cols)]
    for row, label in zip(X, y):
        lines.append(",".join(_fmt(v) for v in row) + f",{int(label)}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset_csv(path: str, class_count: int | None = None, float_target: bool = False):
    """Parse a features-then-label CSV; returns (X, y).

    A non-numeric first row is treated as the header and blank lines are
    skipped.  Ragged rows, non-numeric cells, and labels outside
    [0, class_count) raise a ValidationError naming the 1-based file
    line.  With float_target the last column is a real-valued target
    (splinefit's f) instead of an integer label.
    """
    with open(path) as fh:
        raw = [line.rstrip("\n").rstrip("\r") for line in fh]
    rows = [(i + 1, line) for i, line in enumerate(raw) if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    start = 0
    first_cells = rows[0][1].split(",")
    try:
        float(first_cells[0])
    except ValueError:
        start = 1  # header row
    if not rows[start:]:
        raise ValidationError(f"{path}: no data rows after the header")
    width = None
    feats, labels = [], []
    for lineno, line in rows[start:]:
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if width < 2:
                raise ValidationError(f"{path}:{lineno}: need features and a label")
        elif len(cells) != width:
            raise ValidationError(
                f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
            )
        try:
            feats.append([float(c) for c in cells[:-1]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric feature cell ({exc})")
        if float_target:
            try:
                labels.append(float(cells[-1]))
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: target {cells[-1]!r} is not a number")
            continue
        try:
            label = int(cells[-1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: label {cells[-1]!r} is not an integer")
        if label < 0 or (class_count is not None and label >= class_count):
            raise ValidationError(f"{path}:{lineno}: label {label} out of range")
        labels.append(label)
    return np.array(feats, dtype=np.float64), np.array(labels, dtype=np.float64 if float_target else np.int64)


# ---------------------------------------------------------------------------
# network JSON files
# ---------------------------------------------------------------------------

_LAYER_KINDS = {
    cls.tag: cls
    for cls in (L.Dense, L.Conv, L.Activation, L.MaxPool, L.AvgPool, L.BatchNorm, L.SkipBlock)
}


def _layer_from_json(obj: dict, where: str):
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ValidationError(f"{where}: layer object lacks a 'kind' tag")
    cls = _LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"{where}: unknown layer kind {kind!r}")
    # nested layer objects (the parts of a skip block) decode first
    doc = {
        key: _layer_from_json(value, f"{where}.{key}") if isinstance(value, dict) else value
        for key, value in obj.items()
    }
    try:
        return cls.from_json(doc)
    except KeyError as exc:
        raise ValidationError(f"{where}: missing field {exc} for kind {kind!r}")
    except (MasonetError, ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: {exc}")


def save_network(net: L.Network, path: str) -> None:
    doc = {
        "input_shape": list(net.input_shape),
        "class_count": net.class_count,
        "layers": [layer.to_json() for layer in net.layers],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_network(path: str) -> L.Network:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})")
    for field in ("input_shape", "class_count", "layers"):
        if field not in doc:
            raise ValidationError(f"{path}: missing top-level field {field!r}")
    layers = [
        _layer_from_json(obj, f"{path}: layer {i}") for i, obj in enumerate(doc["layers"])
    ]
    try:
        return L.Network(layers, tuple(doc["input_shape"]), int(doc["class_count"]))
    except MasonetError as exc:
        raise ValidationError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# activation tables
# ---------------------------------------------------------------------------

def emit_activation_table(kind, beta_list, u_grid) -> list:
    """Rows (u, beta, hard, soft, beta-weighted) for a scalar activation.

    kind is 'relu', 'abs', or a 1-unit, 1-input MasoParams.  The hard and
    soft columns do not depend on beta but are repeated per row so each
    row is self-contained; the soft column is beta = 1/2.  A beta that
    scales the grid's scores past the float64 range is a ValidationError.
    """
    if isinstance(kind, MasoParams):
        if kind.K != 1 or kind.D != 1:
            raise ValidationError("custom activation tables need K=1, D=1 parameters")
        p = kind
    elif kind in ("relu", "abs"):
        p = L.Activation(kind, 1).as_maso()
    else:
        raise ValidationError(f"unknown activation kind {kind!r}")
    betas = [float(b) for b in beta_list]
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValidationError(f"beta {b} outside the open interval (0, 1)")
    u = as_tensor(u_grid).reshape(-1)
    # one row of R scores per grid point, selected by the maso kernel
    s = scores(p, u[:, None])[:, 0]
    # scaled scores must stay within half the float64 range, so that the
    # softmax's shift by the row maximum cannot overflow either; the bound
    # is a Python float, where overflow gives inf, not a warning
    top = float(np.max(np.abs(s), initial=0.0))
    for b in (0.5, *betas):
        if not math.isfinite(2.0 * (b / (1.0 - b) * top)):
            raise ValidationError(f"beta {b} scales scores up to {top:.3g} past the float64 range")
    hard = select(s)[0]
    soft = select(s, 0.5)[0]
    cols = [select(s, b)[0].tolist() for b in betas]
    return [
        (ui, b, hi, si, col[i])
        for i, (ui, hi, si) in enumerate(zip(u.tolist(), hard.tolist(), soft.tolist()))
        for b, col in zip(betas, cols)
    ]


# ---------------------------------------------------------------------------
# command helpers
# ---------------------------------------------------------------------------

def _write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(_fmt(v))
        lines.append(",".join(cells))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _resolve_net(args) -> L.Network:
    if args.net is None:
        raise ValidationError("--net is required for this command")
    if not args.net.startswith("mlp:"):
        return load_network(args.net)
    # inline architecture, e.g. mlp:2-45-3-4, mlp:2-16-2:abs or mlp:2-8-2:lrelu:0.05
    parts = args.net.split(":")
    try:
        dims = [int(d) for d in parts[1].split("-")]
        nu = float(parts[3]) if len(parts) > 3 else 0.01
    except ValueError:
        raise ValidationError(f"bad mlp architecture {args.net!r}")
    kind = parts[2] if len(parts) > 2 else "relu"
    try:
        return L.make_mlp(dims, kind=kind, nu=nu, seed=args.seed)
    except MasonetError as exc:
        raise ValidationError(f"bad mlp architecture {args.net!r}: {exc}")


def _load_data(args, net: L.Network | None = None):
    if args.data is None:
        raise ValidationError("--data is required for this command")
    return load_dataset_csv(args.data, None if net is None else net.class_count)


def _net_and_row(args) -> tuple[L.Network, np.ndarray]:
    """The network and dataset row --k that the single-input analyses read."""
    net = _resolve_net(args)
    X, _ = _load_data(args)
    if not 0 <= args.k < X.shape[0]:
        raise ValidationError(f"row index {args.k} out of range for {X.shape[0]} rows")
    return net, X[args.k]


def _bound_pairs(vals, dim: int):
    if vals is None:
        raise ValidationError("--bounds is required (lo,hi per dimension)")
    if len(vals) % 2 != 0:
        raise ValidationError("--bounds needs lo,hi pairs")
    pairs = [(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
    if len(pairs) == 1 and dim > 1:
        pairs = pairs * dim
    if len(pairs) != dim:
        raise ValidationError(f"{len(pairs)} bound pairs for {dim} input dimensions")
    for lo, hi in pairs:
        if not lo < hi:
            raise ValidationError(f"empty bound interval [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"bound interval [{lo}, {hi}] is wider than the float64 range")
    return pairs


def _prefix(args, net: L.Network) -> int:
    if args.layer is None:
        return len(net.layers)
    if not 0 <= args.layer <= len(net.layers):
        raise ValidationError(
            f"--layer {args.layer} out of range (network has {len(net.layers)} layers)"
        )
    return args.layer


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    if args.out is None:
        raise ValidationError("--out is required")
    X, y = generate_toy_dataset(args.seed)
    save_dataset_csv(args.out, X, y)
    print(f"wrote {X.shape[0]} points ({_TOY_CLASSES} classes) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    if args.out is None:
        raise ValidationError("--out is required")
    net = _resolve_net(args)
    X, y = _load_data(args, net)
    learnable = args.beta == "learnable"
    try:
        beta = 0.5 if learnable else float(args.beta)
    except ValueError:
        raise ValidationError(f"--beta takes a number or 'learnable', got {args.beta!r}")
    config = learn.TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        gamma=args.gamma,
        lam=args.lam,
        beta_mode=args.mode,
        beta=beta,
        beta_learnable=learnable,
        seed=args.seed,
    )
    trained, history = learn.train(net, (X, y), config)
    save_network(trained, args.out)
    hist_path = args.out + ".history.csv"
    _write_csv(
        hist_path,
        ["epoch", "loss", "accuracy", "template_penalty", "filter_penalty"],
        [
            (h["epoch"], h["loss"], h["accuracy"], h["template_penalty"], h["filter_penalty"])
            for h in history
        ],
    )
    final = history[-1]
    print(
        f"trained {args.epochs} epochs: loss={final['loss']:.6f} "
        f"accuracy={final['accuracy']:.4f}; net -> {args.out}, history -> {hist_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    net = _resolve_net(args)
    X, y = _load_data(args, net)
    acc = learn.accuracy(net, X, y)
    loss = learn.forward_loss(net, X, y, mode="hard", bn_batch_stats=False)
    print(f"loss={loss:.6f} accuracy={acc:.4f} on {X.shape[0]} points")
    if args.out:
        _write_csv(args.out, ["loss", "accuracy", "points"], [(loss, acc, X.shape[0])])
    return 0


def _cmd_decompose(args) -> int:
    net, x = _net_and_row(args)
    form = analysis.decompose(net, x, upto_layer=args.layer)
    logits, _ = L.network_forward(net, x)
    if args.layer is None or args.layer == len(net.layers):
        resid = float(np.max(np.abs(logits - form(x))))
        print(f"decomposed {form.A.shape[0]}x{form.A.shape[1]}; forward residual {resid:.3e}")
    else:
        print(f"decomposed prefix of {args.layer} layers: {form.A.shape[0]}x{form.A.shape[1]}")
    if args.out:
        header = [f"a{j + 1}" for j in range(form.A.shape[1])] + ["b"]
        _write_csv(args.out, header, [tuple(row) + (off,) for row, off in zip(form.A, form.b)])
    return 0


def _cmd_templates(args) -> int:
    net, x = _net_and_row(args)
    T, biases = analysis.class_templates(net, x)
    logits, _ = L.network_forward(net, x)
    resid = float(np.max(np.abs(T @ x.reshape(-1) + biases - logits)))
    print(f"{T.shape[0]} templates of dimension {T.shape[1]}; logit residual {resid:.3e}")
    if args.out:
        header = [f"t{j + 1}" for j in range(T.shape[1])] + ["bias"]
        _write_csv(args.out, header, [tuple(row) + (b,) for row, b in zip(T, biases)])
    return 0


def _cmd_partition(args) -> int:
    net = _resolve_net(args)
    dim = net.dims[0]
    bounds = _bound_pairs(args.bounds, dim)
    table, points, ids = partition.grid_scan(net, bounds, args.resolution, _prefix(args, net))
    print(f"{len(table.entries)} distinct codes over {table.total} grid points")
    if args.out:
        header = [f"x{j + 1}" for j in range(dim)] + ["code_id"]
        _write_csv(args.out, header, [tuple(p) + (int(i),) for p, i in zip(points, ids)])
    return 0


def _cmd_stats(args) -> int:
    net = _resolve_net(args)
    X, _ = _load_data(args)
    stats = partition.region_stats(net, X, _prefix(args, net))
    print(f"nonempty regions: {stats['nonempty_count']}")
    if args.out:
        _write_csv(
            args.out,
            ["rank", "count"],
            [(r + 1, c) for r, c in enumerate(stats["histogram"])],
        )
    return 0


def _cmd_nn(args) -> int:
    net = _resolve_net(args)
    X, _ = _load_data(args)
    prefix = _prefix(args, net)
    idx = partition.nearest_neighbors(net, prefix, args.query, X, args.k)
    # the query's code row, then the neighbours': one forward of k + 1 rows
    codes = partition.layer_codes_batch(net, X[[args.query, *idx]], prefix)
    # vq_distance's fraction of differing units, 0.0 when the prefix has none
    dists = np.mean(codes[1:] != codes[0], axis=1) if codes.shape[1] else np.zeros(len(idx))
    print("neighbors:", " ".join(str(i) for i in idx))
    if args.out:
        _write_csv(
            args.out,
            ["rank", "index", "vq_distance"],
            [(r + 1, i, d) for r, (i, d) in enumerate(zip(idx, dists))],
        )
    return 0


def _cmd_norms(args) -> int:
    net, x = _net_and_row(args)
    norms = analysis.partial_product_norms(net, x)
    for d, v in enumerate(norms, start=1):
        print(f"depth {d}: frobenius {v:.6e}")
    if args.out:
        _write_csv(args.out, ["depth", "frobenius_norm"], list(enumerate(norms, start=1)))
    return 0


def _cmd_ensemble(args) -> int:
    net, x = _net_and_row(args)
    terms = analysis.resnet_ensemble_terms(net, x)
    blocks = sum(1 for layer in net.layers if isinstance(layer, L.SkipBlock))
    form = analysis.decompose(net, x, upto_layer=blocks)
    dev = float(np.max(np.abs(sum(terms) - form.A)))
    print(f"{len(terms)} terms; |sum - decomposed A| max deviation {dev:.3e}")
    if args.out:
        _write_csv(
            args.out,
            ["term", "frobenius_norm"],
            [(i, float(np.linalg.norm(t))) for i, t in enumerate(terms)],
        )
    return 0


def _cmd_splinefit(args) -> int:
    if args.data is None:
        raise ValidationError("--data is required (CSV with columns x,f)")
    X, f = load_dataset_csv(args.data, float_target=True)
    if args.k is None:
        raise ValidationError("--k is required (piece budget, or comma list of budgets)")
    if len(args.k) == 1:
        prob = splinefit.FitProblem(X, f, args.k[0], seed=args.seed)
        spline = splinefit.fit_max_affine(prob)
        err = splinefit.sup_error(X, f, spline)
        print(f"fit R={args.k[0]}: sup error {err:.6e}")
        if args.out:
            header = [f"slope{j + 1}" for j in range(spline.D)] + ["offset"]
            rows = [tuple(spline.A[0, r]) + (spline.B[0, r],) for r in range(spline.R)]
            _write_csv(args.out, header, rows)
    else:
        curve, slope, c = splinefit.universality_curve(X, f, args.k, seed=args.seed)
        desc = "degenerate (exact fit)" if slope is None else f"{slope:.3f}"
        print(f"log-log slope {desc}; fitted c = max R*error = {c:.6e}")
        if args.out:
            _write_csv(args.out, ["R", "sup_error"], curve)
    return 0


def _cmd_act_table(args) -> int:
    if args.net is not None:
        try:
            with open(args.net) as fh:
                doc = json.load(fh)
            kind = MasoParams(np.array(doc["A"], dtype=np.float64), np.array(doc["B"], dtype=np.float64))
        except (OSError, json.JSONDecodeError, KeyError, MasonetError, ValueError) as exc:
            raise ValidationError(f"{args.net}: not a usable MASO file ({exc})")
    elif args.mode in ("relu", "abs"):
        kind = args.mode
    else:
        raise ValidationError(f"act-table supports relu/abs (or --net FILE), got {args.mode!r}")
    [(lo, hi)] = _bound_pairs(args.bounds, 1)
    if args.resolution < 1:
        raise ValidationError(f"--resolution must be at least 1, got {args.resolution}")
    rows = emit_activation_table(kind, args.beta, np.linspace(lo, hi, args.resolution))
    if args.out:
        _write_csv(args.out, ["u", "beta", "hard_value", "soft_value", "beta_value"], rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print("u,beta,hard_value,soft_value,beta_value")
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "decompose": _cmd_decompose,
    "templates": _cmd_templates,
    "partition": _cmd_partition,
    "stats": _cmd_stats,
    "nn": _cmd_nn,
    "norms": _cmd_norms,
    "ensemble": _cmd_ensemble,
    "splinefit": _cmd_splinefit,
    "act-table": _cmd_act_table,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _comma_list(convert):
    """argparse type: a comma-separated list of `convert` values."""
    def parse(text: str) -> list:
        return [convert(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {convert.__name__}"  # named in argparse errors
    return parse


_ints, _floats = _comma_list(int), _comma_list(float)

# flags several subcommands read with one meaning
_SHARED = {
    "--net": dict(help="network JSON file, or inline mlp:D-...-C[:kind[:slope]]"),
    "--data": dict(help="CSV of feature columns, then the label (splinefit: the value f)"),
    "--out": dict(help="output file"),
    "--seed": dict(type=int, default=0, help="seed of the data, inline net or training"),
    "--layer": dict(type=int, help="layer-prefix length (default: the whole network)"),
}
_ROW = dict(type=int, default=0, help="dataset row to analyse (default 0)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masonet",
        description="Max-affine spline view of deep networks: training, "
        "decomposition, partition analytics, spline fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *shared):
        p = sub.add_parser(name, help=help_text)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    command("gen-data", "write the 4-class toy dataset", "--out", "--seed")
    p = command("train", "train a network; writes the net JSON and a history CSV",
                "--net", "--data", "--out", "--seed")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--gamma", type=float, default=0.0, help="template-orthogonality weight")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="filter-orthogonality weight")
    p.add_argument("--beta", default="0.5", help="beta value, or 'learnable' to train it")
    p.add_argument("--mode", default="hard", help="selection regime: hard | soft | beta")
    command("eval", "loss and accuracy of a network on a dataset", "--net", "--data", "--out", "--seed")
    command("decompose", "input-conditioned affine map A[x], b[x] of one input",
            "--net", "--data", "--out", "--seed", "--layer").add_argument("--k", **_ROW)
    command("templates", "matched-filter rows of the classifier at one input",
            "--net", "--data", "--out", "--seed").add_argument("--k", **_ROW)
    p = command("partition", "grid scan of joint VQ codes", "--net", "--out", "--seed", "--layer")
    p.add_argument("--bounds", type=_floats, help="lo,hi per input dimension (one pair for all)")
    p.add_argument("--resolution", type=_ints, default=[101],
                   help="grid points per dimension: one count, or one per dimension")
    command("stats", "region occupancy statistics of a dataset",
            "--net", "--data", "--out", "--seed", "--layer")
    p = command("nn", "nearest neighbors in VQ-code distance",
                "--net", "--data", "--out", "--seed", "--layer")
    p.add_argument("query", type=int, help="dataset row index of the query point")
    p.add_argument("--k", type=int, default=15, help="neighbor count")
    command("norms", "Frobenius norms of the partial selected products",
            "--net", "--data", "--out", "--seed").add_argument("--k", **_ROW)
    command("ensemble", "expanded skip-chain terms and their sum check",
            "--net", "--data", "--out", "--seed").add_argument("--k", **_ROW)
    p = command("splinefit", "fit max-affine pieces to samples (--k budget or list)",
                "--data", "--out", "--seed")
    p.add_argument("--k", type=_ints, help="piece budget, or a comma list of budgets for a decay curve")
    p = command("act-table", "hard/soft/beta activation tables (--mode relu|abs)", "--out")
    p.add_argument("--net", help="K=1, D=1 MASO JSON {A, B} to tabulate instead of --mode")
    p.add_argument("--mode", default="relu", help="activation: relu | abs")
    p.add_argument("--beta", type=_floats, default=[0.5], help="comma list of beta values in (0, 1)")
    p.add_argument("--bounds", type=_floats, default=[-10.0, 10.0], help="lo,hi of the grid")
    p.add_argument("--resolution", type=int, default=2001, help="grid points")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MasonetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
