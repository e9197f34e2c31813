"""Command-line front end: datasets, network files, tabular emitters.

Subcommands: gen-data, train, eval, decompose, templates, partition,
stats, nn, norms, ensemble, splinefit, act-table.  Every command is
deterministic given its seed and inputs; all CSV output carries a header
row, uses '.' decimals and LF line endings.  Exit codes: 0 success, 2
validation problem (bad file or argument), 1 internal error.

Dataset files are CSV (feature columns then an integer label).  Networks
are JSON documents: {"input_shape", "class_count", "layers": [tagged
layer objects with decimal weight arrays]}.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, learn, partition, splinefit
from . import layers as L
from .maso import BetaParam, MasoParams, beta_vq_infer, forward_hard, forward_with_selection, svq_infer
from .ndcore import MasonetError, ValidationError, as_tensor

__all__ = [
    "RunConfig",
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


@dataclass
class RunConfig:
    """Parsed per-command parameters (paths, seeds, training knobs)."""

    command: str
    net: str | None = None
    data: str | None = None
    out: str | None = None
    seed: int = 0
    epochs: int = 50
    lr: float = 0.01
    batch: int = 128
    gamma: float = 0.0
    lam: float = 0.0
    beta: str = "0.5"
    mode: str = "hard"
    layer: int | None = None
    bounds: str | None = None
    resolution: str | None = None
    k: str | None = None
    query: int | None = None


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


def load_dataset_csv(path: str, class_count: int | None = None):
    """Parse a features-then-label CSV; returns (X, y).

    A non-numeric first row is treated as the header.  Ragged rows,
    non-numeric cells, and labels outside [0, class_count) raise a
    ValidationError naming the 1-based line.
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
        try:
            label = int(cells[-1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: label {cells[-1]!r} is not an integer")
        if label < 0 or (class_count is not None and label >= class_count):
            raise ValidationError(f"{path}:{lineno}: label {label} out of range")
        labels.append(label)
    return np.array(feats, dtype=np.float64), np.array(labels, dtype=np.int64)


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
    row is self-contained.
    """
    if isinstance(kind, MasoParams):
        if kind.K != 1 or kind.D != 1:
            raise ValidationError("custom activation tables need K=1, D=1 parameters")
        p = kind
    elif kind in ("relu", "abs"):
        p = L.activation_as_maso(kind, 1)
    else:
        raise ValidationError(f"unknown activation kind {kind!r}")
    betas = [float(b) for b in beta_list]
    for b in betas:
        if not 0.0 < b < 1.0:
            raise ValidationError(f"beta {b} outside the open interval (0, 1)")
    rows = []
    for u in np.asarray(u_grid, dtype=np.float64).reshape(-1):
        z = np.array([u])
        hard, _ = forward_hard(p, z)
        soft = forward_with_selection(p, z, svq_infer(p, z))
        for b in betas:
            bv = forward_with_selection(p, z, beta_vq_infer(p, z, BetaParam(b)))
            rows.append((float(u), b, float(hard[0]), float(soft[0]), float(bv[0])))
    return rows


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


def _resolve_net(cfg: RunConfig) -> L.Network:
    if cfg.net is None:
        raise ValidationError("--net is required for this command")
    if cfg.net.startswith("mlp:"):
        # inline architecture, e.g. mlp:2-45-3-4 or mlp:2-16-2:abs
        parts = cfg.net.split(":")
        try:
            dims = [int(d) for d in parts[1].split("-")]
        except ValueError:
            raise ValidationError(f"bad mlp architecture {cfg.net!r}")
        kind = parts[2] if len(parts) > 2 else "relu"
        nu = float(parts[3]) if len(parts) > 3 else 0.01
        try:
            return L.make_mlp(dims, kind=kind, nu=nu, seed=cfg.seed)
        except MasonetError as exc:
            raise ValidationError(f"bad mlp architecture {cfg.net!r}: {exc}")
    return load_network(cfg.net)


def _load_data(cfg: RunConfig, net: L.Network | None = None):
    if cfg.data is None:
        raise ValidationError("--data is required for this command")
    return load_dataset_csv(cfg.data, None if net is None else net.class_count)


def _data_row(cfg: RunConfig, X: np.ndarray) -> np.ndarray:
    idx = int(cfg.k) if cfg.k is not None else 0
    if not 0 <= idx < X.shape[0]:
        raise ValidationError(f"row index {idx} out of range for {X.shape[0]} rows")
    return X[idx]


def _parse_bounds(cfg: RunConfig, dim: int):
    if cfg.bounds is None:
        raise ValidationError("--bounds is required (lo,hi per dimension)")
    vals = [float(v) for v in cfg.bounds.split(",")]
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
    return pairs


def _parse_resolution(cfg: RunConfig, default: int = 101):
    if cfg.resolution is None:
        return default
    vals = [int(v) for v in cfg.resolution.split(",")]
    return vals[0] if len(vals) == 1 else vals


def _prefix(cfg: RunConfig, net: L.Network) -> int:
    if cfg.layer is None:
        return len(net.layers)
    if not 0 <= cfg.layer <= len(net.layers):
        raise ValidationError(
            f"--layer {cfg.layer} out of range (network has {len(net.layers)} layers)"
        )
    return cfg.layer


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise ValidationError("--out is required")
    X, y = generate_toy_dataset(cfg.seed)
    save_dataset_csv(cfg.out, X, y)
    print(f"wrote {X.shape[0]} points ({_TOY_CLASSES} classes) to {cfg.out}")
    return 0


def _cmd_train(cfg: RunConfig) -> int:
    if cfg.out is None:
        raise ValidationError("--out is required")
    net = _resolve_net(cfg)
    X, y = _load_data(cfg, net)
    learnable = cfg.beta == "learnable"
    config = learn.TrainConfig(
        learning_rate=cfg.lr,
        epochs=cfg.epochs,
        batch_size=cfg.batch,
        gamma=cfg.gamma,
        lam=cfg.lam,
        beta_mode=cfg.mode,
        beta=0.5 if learnable else float(cfg.beta),
        beta_learnable=learnable,
        seed=cfg.seed,
    )
    trained, history = learn.train(net, (X, y), config)
    save_network(trained, cfg.out)
    hist_path = cfg.out + ".history.csv"
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
        f"trained {cfg.epochs} epochs: loss={final['loss']:.6f} "
        f"accuracy={final['accuracy']:.4f}; net -> {cfg.out}, history -> {hist_path}"
    )
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, y = _load_data(cfg, net)
    acc = learn.accuracy(net, X, y)
    loss = learn.forward_loss(net, X, y, mode="hard", bn_batch_stats=False)
    print(f"loss={loss:.6f} accuracy={acc:.4f} on {X.shape[0]} points")
    if cfg.out:
        _write_csv(cfg.out, ["loss", "accuracy", "points"], [(loss, acc, X.shape[0])])
    return 0


def _cmd_decompose(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, _ = _load_data(cfg)
    x = _data_row(cfg, X)
    form = analysis.decompose(net, x, upto_layer=cfg.layer)
    logits, _ = L.network_forward(net, x)
    if cfg.layer is None or cfg.layer == len(net.layers):
        resid = float(np.max(np.abs(logits - form(x))))
        print(f"decomposed {form.A.shape[0]}x{form.A.shape[1]}; forward residual {resid:.3e}")
    else:
        print(f"decomposed prefix of {cfg.layer} layers: {form.A.shape[0]}x{form.A.shape[1]}")
    if cfg.out:
        header = [f"a{j + 1}" for j in range(form.A.shape[1])] + ["b"]
        _write_csv(cfg.out, header, [tuple(row) + (off,) for row, off in zip(form.A, form.b)])
    return 0


def _cmd_templates(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, _ = _load_data(cfg)
    x = _data_row(cfg, X)
    T, biases = analysis.class_templates(net, x)
    logits, _ = L.network_forward(net, x)
    resid = float(np.max(np.abs(T @ x.reshape(-1) + biases - logits)))
    print(f"{T.shape[0]} templates of dimension {T.shape[1]}; logit residual {resid:.3e}")
    if cfg.out:
        header = [f"t{j + 1}" for j in range(T.shape[1])] + ["bias"]
        _write_csv(cfg.out, header, [tuple(row) + (b,) for row, b in zip(T, biases)])
    return 0


def _cmd_partition(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    dim = net.dims[0]
    bounds = _parse_bounds(cfg, dim)
    res = _parse_resolution(cfg)
    table, points, ids = partition.grid_scan(net, bounds, res, _prefix(cfg, net))
    print(f"{len(table.entries)} distinct codes over {table.total} grid points")
    if cfg.out:
        header = [f"x{j + 1}" for j in range(dim)] + ["code_id"]
        _write_csv(cfg.out, header, [tuple(p) + (int(i),) for p, i in zip(points, ids)])
    return 0


def _cmd_stats(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, _ = _load_data(cfg)
    stats = partition.region_stats(net, X, _prefix(cfg, net))
    print(f"nonempty regions: {stats['nonempty_count']}")
    if cfg.out:
        _write_csv(
            cfg.out,
            ["rank", "count"],
            [(r + 1, c) for r, c in enumerate(stats["histogram"])],
        )
    return 0


def _cmd_nn(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, _ = _load_data(cfg)
    if cfg.query is None:
        raise ValidationError("nn needs a query index argument")
    k = int(cfg.k) if cfg.k is not None else 15
    prefix = _prefix(cfg, net)
    idx = partition.nearest_neighbors(net, prefix, cfg.query, X, k)
    codes = partition.layer_codes_batch(net, X, prefix)
    if codes.shape[1]:
        dists = [float(np.mean(codes[i] != codes[cfg.query])) for i in idx]
    else:
        dists = [0.0 for _ in idx]
    print("neighbors:", " ".join(str(i) for i in idx))
    if cfg.out:
        _write_csv(
            cfg.out,
            ["rank", "index", "vq_distance"],
            [(r + 1, i, d) for r, (i, d) in enumerate(zip(idx, dists))],
        )
    return 0


def _cmd_norms(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, _ = _load_data(cfg)
    x = _data_row(cfg, X)
    norms = analysis.partial_product_norms(net, x)
    for d, v in enumerate(norms, start=1):
        print(f"depth {d}: frobenius {v:.6e}")
    if cfg.out:
        _write_csv(cfg.out, ["depth", "frobenius_norm"], list(enumerate(norms, start=1)))
    return 0


def _cmd_ensemble(cfg: RunConfig) -> int:
    net = _resolve_net(cfg)
    X, _ = _load_data(cfg)
    x = _data_row(cfg, X)
    terms = analysis.resnet_ensemble_terms(net, x)
    blocks = sum(1 for layer in net.layers if isinstance(layer, L.SkipBlock))
    form = analysis.decompose(net, x, upto_layer=blocks)
    dev = float(np.max(np.abs(sum(terms) - form.A)))
    print(f"{len(terms)} terms; |sum - decomposed A| max deviation {dev:.3e}")
    if cfg.out:
        _write_csv(
            cfg.out,
            ["term", "frobenius_norm"],
            [(i, float(np.linalg.norm(t))) for i, t in enumerate(terms)],
        )
    return 0


def _cmd_splinefit(cfg: RunConfig) -> int:
    if cfg.data is None:
        raise ValidationError("--data is required (CSV with columns x,f)")
    X, yraw = _load_xy(cfg.data)
    if cfg.k is None:
        raise ValidationError("--k is required (piece budget, or comma list of budgets)")
    budgets = [int(v) for v in cfg.k.split(",")]
    if len(budgets) == 1:
        prob = splinefit.FitProblem(X, yraw, budgets[0], seed=cfg.seed)
        spline = splinefit.fit_max_affine(prob)
        err = splinefit.sup_error(X, yraw, spline)
        print(f"fit R={budgets[0]}: sup error {err:.6e}")
        if cfg.out:
            header = [f"slope{j + 1}" for j in range(spline.D)] + ["offset"]
            rows = [tuple(spline.A[0, r]) + (spline.B[0, r],) for r in range(spline.R)]
            _write_csv(cfg.out, header, rows)
    else:
        curve, slope, c = splinefit.universality_curve(X, yraw, budgets, seed=cfg.seed)
        desc = "degenerate (exact fit)" if slope is None else f"{slope:.3f}"
        print(f"log-log slope {desc}; fitted c = max R*error = {c:.6e}")
        if cfg.out:
            _write_csv(cfg.out, ["R", "sup_error"], curve)
    return 0


def _load_xy(path: str):
    """Two-column CSV (x, f) used by splinefit; header optional."""
    with open(path) as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw:
        raise ValidationError(f"{path}: empty file")
    start = 0
    try:
        float(raw[0].split(",")[0])
    except ValueError:
        start = 1
    xs, ys = [], []
    for lineno, line in enumerate(raw[start:], start=start + 1):
        cells = line.split(",")
        if len(cells) < 2:
            raise ValidationError(f"{path}:{lineno}: need at least x and f columns")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric cell ({exc})")
        xs.append(vals[:-1])
        ys.append(vals[-1])
    return np.array(xs), np.array(ys)


def _cmd_act_table(cfg: RunConfig) -> int:
    if cfg.net is not None:
        doc_path = cfg.net
        try:
            with open(doc_path) as fh:
                doc = json.load(fh)
            kind = MasoParams(np.array(doc["A"], dtype=np.float64), np.array(doc["B"], dtype=np.float64))
        except (OSError, json.JSONDecodeError, KeyError, MasonetError, ValueError) as exc:
            raise ValidationError(f"{doc_path}: not a usable MASO file ({exc})")
    else:
        # --mode doubles as the activation name here; default flag value
        # "hard" means "not named", which falls back to relu
        if cfg.mode in ("relu", "abs"):
            kind = cfg.mode
        elif cfg.mode == "hard":
            kind = "relu"
        else:
            raise ValidationError(f"act-table supports relu/abs (or --net FILE), got {cfg.mode!r}")
    betas = [float(v) for v in cfg.beta.split(",")]
    lo, hi = (-10.0, 10.0)
    if cfg.bounds is not None:
        pair = _parse_bounds(cfg, 1)
        lo, hi = pair[0]
    res = _parse_resolution(cfg, default=2001)
    grid = np.linspace(lo, hi, res if isinstance(res, int) else res[0])
    rows = emit_activation_table(kind, betas, grid)
    if cfg.out:
        _write_csv(cfg.out, ["u", "beta", "hard_value", "soft_value", "beta_value"], rows)
        print(f"wrote {len(rows)} rows to {cfg.out}")
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="masonet",
        description="Max-affine spline view of deep networks: training, "
        "decomposition, partition analytics, spline fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, query_arg=False):
        p = sub.add_parser(name, help=help_text)
        if query_arg:
            p.add_argument("query", type=int, help="dataset row index of the query point")
        p.add_argument("--net", help="network JSON file, or inline mlp:D-...-C[:kind]")
        p.add_argument("--data", help="dataset CSV (features...,label)")
        p.add_argument("--out", help="output file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=50)
        p.add_argument("--lr", type=float, default=0.01)
        p.add_argument("--batch", type=int, default=128)
        p.add_argument("--gamma", type=float, default=0.0, help="template-orthogonality weight")
        p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="filter-orthogonality weight")
        p.add_argument("--beta", default="0.5", help="beta value(s); 'learnable' to train it")
        p.add_argument("--mode", default="hard", help="selection regime: hard | soft | beta")
        p.add_argument("--layer", type=int, help="layer-prefix length")
        p.add_argument("--bounds", help="lo,hi per input dimension")
        p.add_argument("--resolution", help="grid points per dimension")
        p.add_argument("--k", help="row index / neighbor count / piece budget(s), per command")
        return p

    add("gen-data", "write the 4-class toy dataset")
    add("train", "train a network; writes the net JSON and a history CSV")
    add("eval", "loss and accuracy of a network on a dataset")
    add("decompose", "input-conditioned affine map A[x], b[x] of one input")
    add("templates", "matched-filter rows of the classifier at one input")
    add("partition", "grid scan of joint VQ codes")
    add("stats", "region occupancy statistics of a dataset")
    add("nn", "nearest neighbors in VQ-code distance", query_arg=True)
    add("norms", "Frobenius norms of the partial selected products")
    add("ensemble", "expanded skip-chain terms and their sum check")
    add("splinefit", "fit max-affine pieces to samples (--k budget or list)")
    add("act-table", "hard/soft/beta activation tables (--mode relu|abs)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        net=args.net,
        data=args.data,
        out=args.out,
        seed=args.seed,
        epochs=args.epochs,
        lr=args.lr,
        batch=args.batch,
        gamma=args.gamma,
        lam=args.lam,
        beta=args.beta,
        mode=args.mode,
        layer=args.layer,
        bounds=args.bounds,
        resolution=args.resolution,
        k=args.k,
        query=getattr(args, "query", None),
    )
    try:
        return _COMMANDS[cfg.command](cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MasonetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
