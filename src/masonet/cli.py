"""Command-line front end: datasets, network files, tabular emitters.

Subcommands: gen-data, train, eval, decompose, templates, partition,
stats, nn, norms, ensemble, splinefit, act-table.  Each subcommand's
parser declares only the flags its handler reads and converts their
values (comma lists included); the handler receives the parsed
namespace.  Every command is deterministic given its seed and inputs;
all CSV output carries a header row, uses '.' decimals and LF line
endings.  main returns 0 on success, 2 on bad input (a file, flag or
value; one 'error: ...' line on stderr), 1 on an internal error.

Dataset files are CSV (feature columns then an integer label; splinefit
reads the same layout with a float target).  Networks are JSON
documents: {"input_shape", "class_count", "layers": [layer objects]}.
A layer object is {"kind": its tag in _LAYER_KINDS, then each dataclass
field of the layer in order}, arrays as nested decimal lists; a skip
block's parts are layer objects, and Activation's own `kind` field is
stored under "activation".  act-table's MASO file is {"A", "B"}.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from dataclasses import MISSING, fields

import numpy as np

from . import analysis, learn, partition, splinefit
from . import layers as L
from .maso import MasoParams, scores, select
from .ndcore import DomainError, MasonetError, ValidationError, as_ints, as_seed, as_tensor

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
    rng = np.random.default_rng(as_seed(seed, "dataset seed"))
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

def _write_csv(path: str | None, header, columns) -> None:
    """Write a header line, then one line per row, to path (stdout if None).

    `columns` holds one sequence per column.  Integer and bool columns are
    written with %d, all others with %.17g: 17 significant digits are
    enough for exact float64 round-trips, and '%.17g' % v equals
    format(float(v), '.17g') for every float64, -0.0, nan and inf included.
    A column's format comes from its dtype, so it holds for every row.
    """
    cols = [np.asarray(c) for c in columns]
    row_fmt = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols)
    lines = [",".join(header), *map(row_fmt.__mod__, zip(*(c.tolist() for c in cols)))]
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def save_dataset_csv(path: str, X, y) -> None:
    X = as_tensor(X, "features")
    y = as_ints(y, "label")
    header = [f"x{i + 1}" for i in range(X.shape[1])] + ["label"]
    _write_csv(path, header, [*X.T, y])


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _is_header(line: str) -> bool:
    """The first non-blank row is a header when none of its cells is a number."""
    return not any(_is_number(c) for c in line.split(","))


def load_dataset_csv(path: str, class_count: int | None = None, float_target: bool = False):
    """Parse a features-then-label CSV; returns (X, y).

    Blank lines are skipped.  The first remaining row is a header when
    none of its cells parses as a number; a header must be as wide as the
    data rows.  Ragged rows, non-numeric or non-finite cells, and labels
    outside [0, class_count) raise a ValidationError naming the 1-based
    file line.  With float_target the last column is a real-valued target
    (splinefit's f) instead of an integer label.

    The data rows are parsed by one np.loadtxt call; the per-line scan
    runs only when that parse or a check on its result fails, so every
    result and message is the scan's.
    """
    try:
        with open(path) as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})")
    parsed = _parse_bulk(lines, class_count, float_target)
    return parsed if parsed is not None else _parse_lines(path, lines, class_count, float_target)


def _parse_bulk(lines: list, class_count: int | None, float_target: bool):
    """(X, y) from one np.loadtxt call, or None when the per-line scan must
    decide: a header or width problem, a character numpy reads unlike
    Python, a cell numpy rejects (it also rejects some that Python's
    float()/int() take, such as '1_0'), a non-finite cell or a label out
    of range."""
    rows = [line for line in lines if line.strip()]
    header_width = None
    if rows and _is_header(rows[0]):
        header_width = rows[0].count(",") + 1
        rows = rows[1:]
    if not rows:
        return None
    width = rows[0].count(",") + 1
    if width < 2 or header_width not in (None, width):
        return None
    # numpy's integer parser misreads non-ASCII cells (on numpy 2.4 '1\u01fe'
    # parses as 472, and '1\U0009c6ca' crashes the process), and numpy
    # strips '\x1c'-'\x1f' around a number where float()/int() reject them
    data = "\n".join(rows)
    if not data.isascii() or any(c in data for c in "\x1c\x1d\x1e\x1f"):
        return None
    dtype = [("x", np.float64, (width - 1,)), ("y", np.float64 if float_target else np.int64)]
    try:
        # numpy 1.23-1.26 parse an integer cell such as '1.0' through float
        # with a DeprecationWarning; int() rejects it, so a warning falls back
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    X, y = np.ascontiguousarray(table["x"]), np.ascontiguousarray(table["y"])
    if not np.isfinite(X).all():
        return None
    if float_target:
        return (X, y) if np.isfinite(y).all() else None
    if y.min() < 0 or (class_count is not None and y.max() >= class_count):
        return None
    return X, y


def _parse_lines(path: str, lines: list, class_count: int | None, float_target: bool):
    """The per-line reference parse of load_dataset_csv; names the file
    line of the first problem."""
    rows = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    header_line, header_width = None, None
    if _is_header(rows[0][1]):
        header_line, header_width = rows[0][0], len(rows[0][1].split(","))
        rows = rows[1:]
    if not rows:
        raise ValidationError(f"{path}: no data rows after the header")
    width = None
    feats, labels = [], []
    limit = 2**63 if class_count is None else class_count  # labels are stored as int64
    for lineno, line in rows:
        cells = line.split(",")
        if width is None:
            width = len(cells)
            if header_width not in (None, width):
                raise ValidationError(
                    f"{path}:{header_line}: header has {header_width} columns, "
                    f"the data rows {width}"
                )
            if width < 2:
                raise ValidationError(f"{path}:{lineno}: need features and a label")
        elif len(cells) != width:
            raise ValidationError(
                f"{path}:{lineno}: expected {width} columns, found {len(cells)}"
            )
        try:
            feat = [float(c) for c in cells[:-1]]
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: non-numeric feature cell ({exc})")
        for cell, v in zip(cells, feat):
            if not math.isfinite(v):
                raise ValidationError(f"{path}:{lineno}: feature cell {cell!r} is not finite")
        feats.append(feat)
        if float_target:
            try:
                target = float(cells[-1])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: target {cells[-1]!r} is not a number")
            if not math.isfinite(target):
                raise ValidationError(f"{path}:{lineno}: target {cells[-1]!r} is not finite")
            labels.append(target)
            continue
        try:
            label = int(cells[-1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: label {cells[-1]!r} is not an integer")
        if not 0 <= label < limit:
            raise ValidationError(f"{path}:{lineno}: label {label} out of range")
        labels.append(label)
    return np.array(feats, dtype=np.float64), np.array(labels, dtype=np.float64 if float_target else np.int64)


# ---------------------------------------------------------------------------
# network JSON files
# ---------------------------------------------------------------------------

_LAYER_KINDS = {
    "dense": L.Dense, "conv": L.Conv, "activation": L.Activation, "maxpool": L.MaxPool,
    "avgpool": L.AvgPool, "batchnorm": L.BatchNorm, "skip": L.SkipBlock,
}
_TAGS = {cls: tag for tag, cls in _LAYER_KINDS.items()}
_KEYS = {"kind": "activation"}  # field -> JSON key where they differ: "kind" holds the tag


def _encode(value):
    """json.dump's hook for what JSON lacks: a layer and an array."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    fields_in_order = {_KEYS.get(f.name, f.name): getattr(value, f.name) for f in fields(value)}
    return {"kind": _TAGS[type(value)], **fields_in_order}


def _layer(obj, where: str):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValidationError(f"{where}: layer object lacks a 'kind' tag")
    kind = obj["kind"]
    cls = _LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"{where}: unknown layer kind {kind!r}")
    return _decode(cls, {key: value for key, value in obj.items() if key != "kind"}, where)


def _decode(cls, obj: dict, where: str):
    """The dataclass cls built from the fields of a JSON object; objects
    nested in a layer are layers (a skip block's parts).  An unknown or
    missing field, or a value cls rejects (a boolean among them: the
    library takes only real numbers), is a ValidationError naming where
    and the field."""
    by_key = {_KEYS.get(f.name, f.name): f for f in fields(cls)}
    args = {}
    for key, value in obj.items():
        if key not in by_key:
            raise ValidationError(f"{where}: unknown field {key!r}")
        nested = isinstance(value, dict) and cls in _TAGS
        args[by_key[key].name] = _layer(value, f"{where}.{key}") if nested else value
    for key, f in by_key.items():
        if f.name not in args and f.default is MISSING:
            raise ValidationError(f"{where}: missing field {key!r}")
    try:
        return cls(**args)
    except (MasonetError, ValueError, TypeError) as exc:
        raise ValidationError(f"{where}: {exc}")


def save_network(net: L.Network, path: str) -> None:
    doc = {"input_shape": list(net.input_shape), "class_count": net.class_count, "layers": net.layers}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, default=_encode)
        fh.write("\n")


def _json_kind(value) -> str:
    """The JSON type of a value `json.load` returned."""
    if value is None:
        return "null"
    return {bool: "a boolean", int: "a number", float: "a number", str: "a string",
            list: "an array", dict: "an object"}[type(value)]


def _read_json(path: str) -> dict:
    """A JSON file's top-level object; a file that does not decode, or whose
    top level is not an object, is a ValidationError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{path}: not valid JSON ({exc})")
    except RecursionError:
        raise ValidationError(f"{path}: arrays or objects nested too deeply")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: the top level must be an object, got {_json_kind(doc)}")
    return doc


def load_network(path: str) -> L.Network:
    doc = _read_json(path)
    for field in ("input_shape", "class_count", "layers"):
        if field not in doc:
            raise ValidationError(f"{path}: missing top-level field {field!r}")
    for field in ("input_shape", "layers"):
        if not isinstance(doc[field], list):
            raise ValidationError(f"{path}: {field} must be an array, got {_json_kind(doc[field])}")
    if isinstance(doc["class_count"], (list, dict)):
        raise ValidationError(
            f"{path}: class_count must be an integer, got {_json_kind(doc['class_count'])}"
        )
    layers = [_layer(obj, f"{path}: layer {i}") for i, obj in enumerate(doc["layers"])]
    try:
        return L.Network(layers, tuple(doc["input_shape"]), doc["class_count"])
    except MasonetError as exc:
        raise ValidationError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# activation tables
# ---------------------------------------------------------------------------

def emit_activation_table(kind, beta_list, u_grid) -> tuple:
    """Columns (u, beta, hard, soft, beta-weighted) of a scalar activation's
    table: one row per grid point and beta, the betas varying fastest.

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
    u = as_tensor(u_grid, "grid").reshape(-1)
    # one row of R scores per grid point, selected by the maso kernel
    s = scores(p, u[:, None])[:, 0]
    # scaled scores must stay within half the float64 range, so that the
    # softmax's shift by the row maximum cannot overflow either; the bound
    # is a Python float, where overflow gives inf, not a warning
    top = float(np.max(np.abs(s), initial=0.0))
    for b in (0.5, *betas):
        if not math.isfinite(2.0 * (b / (1.0 - b) * top)):
            raise ValidationError(f"beta {b} scales scores up to {top:.3g} past the float64 range")
    m = len(betas)
    return (
        np.repeat(u, m),
        np.tile(np.array(betas, dtype=np.float64), u.size),
        np.repeat(select(s)[0], m),
        np.repeat(select(s, 0.5)[0], m),
        np.array([select(s, b)[0] for b in betas]).T.ravel(),
    )


# ---------------------------------------------------------------------------
# command helpers
# ---------------------------------------------------------------------------

def _resolve_net(args) -> L.Network:
    if not args.net.startswith("mlp:"):
        return load_network(args.net)
    # inline architecture, e.g. mlp:2-45-3-4, mlp:2-16-2:abs or mlp:2-8-2:lrelu:0.05
    parts = args.net.split(":")
    try:
        # a missing kind or slope takes its default; a fifth part fails to unpack
        _, spec, kind, nu = parts + ["relu", "0.01"][len(parts) - 2:]
        return L.make_mlp([int(d) for d in spec.split("-")], kind=kind, nu=float(nu), seed=args.seed)
    except (ValueError, MasonetError) as exc:
        raise ValidationError(f"bad mlp architecture {args.net!r}: {exc}")


def _net_and_row(args) -> tuple[L.Network, np.ndarray]:
    """The network and dataset row --k that the single-input analyses read."""
    net = _resolve_net(args)
    X, _ = load_dataset_csv(args.data)
    if not 0 <= args.k < X.shape[0]:
        raise ValidationError(f"row index {args.k} out of range for {X.shape[0]} rows")
    return net, X[args.k]


def _bound_pairs(vals, dim: int):
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_gen_data(args) -> int:
    X, y = generate_toy_dataset(args.seed)
    save_dataset_csv(args.out, X, y)
    print(f"wrote {X.shape[0]} points ({_TOY_CLASSES} classes) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    net = _resolve_net(args)
    X, y = load_dataset_csv(args.data, net.class_count)
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
    header = ["epoch", "loss", "accuracy", "template_penalty", "filter_penalty"]
    _write_csv(hist_path, header, [[h[key] for h in history] for key in header])
    final = history[-1]
    print(
        f"trained {args.epochs} epochs: loss={final['loss']:.6f} "
        f"accuracy={final['accuracy']:.4f}; net -> {args.out}, history -> {hist_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    net = _resolve_net(args)
    X, y = load_dataset_csv(args.data, net.class_count)
    loss, acc = learn.evaluate(net, X, y)
    print(f"loss={loss:.6f} accuracy={acc:.4f} on {X.shape[0]} points")
    if args.out:
        _write_csv(args.out, ["loss", "accuracy", "points"], [[loss], [acc], [X.shape[0]]])
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
        _write_csv(args.out, header, [*form.A.T, form.b])
    return 0


def _cmd_templates(args) -> int:
    net, x = _net_and_row(args)
    T, biases = analysis.class_templates(net, x)
    logits, _ = L.network_forward(net, x)
    resid = float(np.max(np.abs(T @ x.reshape(-1) + biases - logits)))
    print(f"{T.shape[0]} templates of dimension {T.shape[1]}; logit residual {resid:.3e}")
    if args.out:
        header = [f"t{j + 1}" for j in range(T.shape[1])] + ["bias"]
        _write_csv(args.out, header, [*T.T, biases])
    return 0


def _cmd_partition(args) -> int:
    net = _resolve_net(args)
    dim = net.dims[0]
    bounds = _bound_pairs(args.bounds, dim)
    table, points, ids = partition.grid_scan(net, bounds, args.resolution, args.layer)
    print(f"{len(table.entries)} distinct codes over {table.total} grid points")
    if args.out:
        header = [f"x{j + 1}" for j in range(dim)] + ["code_id"]
        _write_csv(args.out, header, [*points.T, ids])
    return 0


def _cmd_stats(args) -> int:
    net = _resolve_net(args)
    X, _ = load_dataset_csv(args.data)
    stats = partition.region_stats(net, X, args.layer)
    print(f"nonempty regions: {stats['nonempty_count']}")
    if args.out:
        hist = stats["histogram"]
        _write_csv(args.out, ["rank", "count"], [np.arange(1, len(hist) + 1), hist])
    return 0


def _cmd_nn(args) -> int:
    net = _resolve_net(args)
    X, _ = load_dataset_csv(args.data)
    idx = partition.nearest_neighbors(net, args.layer, args.query, X, args.k)
    # the query's code row, then the neighbours': one forward of k + 1 rows
    codes = partition.layer_codes_batch(net, X[[args.query, *idx]], args.layer)
    dists = partition.vq_distance(codes[1:], codes[0])
    print("neighbors:", " ".join(str(i) for i in idx))
    if args.out:
        _write_csv(args.out, ["rank", "index", "vq_distance"], [np.arange(1, len(idx) + 1), idx, dists])
    return 0


def _cmd_norms(args) -> int:
    net, x = _net_and_row(args)
    norms = analysis.partial_product_norms(net, x)
    for d, v in enumerate(norms, start=1):
        print(f"depth {d}: frobenius {v:.6e}")
    if args.out:
        _write_csv(args.out, ["depth", "frobenius_norm"], [np.arange(1, len(norms) + 1), norms])
    return 0


def _cmd_ensemble(args) -> int:
    net, x = _net_and_row(args)
    terms = analysis.resnet_ensemble_terms(net, x)
    blocks = sum(1 for layer in net.layers if isinstance(layer, L.SkipBlock))
    form = analysis.decompose(net, x, upto_layer=blocks)
    dev = float(np.max(np.abs(sum(terms) - form.A)))
    print(f"{len(terms)} terms; |sum - decomposed A| max deviation {dev:.3e}")
    if args.out:
        _write_csv(args.out, ["term", "frobenius_norm"],
                   [np.arange(len(terms)), [np.linalg.norm(t) for t in terms]])
    return 0


def _cmd_splinefit(args) -> int:
    X, f = load_dataset_csv(args.data, float_target=True)
    if len(args.k) == 1:
        prob = splinefit.FitProblem(X, f, args.k[0], seed=args.seed)
        spline = splinefit.fit_max_affine(prob)
        err = splinefit.sup_error(X, f, spline)
        print(f"fit R={args.k[0]}: sup error {err:.6e}")
        if args.out:
            header = [f"slope{j + 1}" for j in range(spline.D)] + ["offset"]
            _write_csv(args.out, header, [*spline.A[0].T, spline.B[0]])
    else:
        curve, slope, c = splinefit.universality_curve(X, f, args.k, seed=args.seed)
        desc = "degenerate (exact fit)" if slope is None else f"{slope:.3f}"
        print(f"log-log slope {desc}; fitted c = max R*error = {c:.6e}")
        if args.out:
            _write_csv(args.out, ["R", "sup_error"], list(zip(*curve)))
    return 0


def _cmd_act_table(args) -> int:
    kind = args.mode
    if args.net is not None:
        kind = _decode(MasoParams, _read_json(args.net), args.net)
    [(lo, hi)] = _bound_pairs(args.bounds, 1)
    if args.resolution < 1:
        raise ValidationError(f"--resolution must be at least 1, got {args.resolution}")
    columns = emit_activation_table(kind, args.beta, np.linspace(lo, hi, args.resolution))
    _write_csv(args.out, ["u", "beta", "hard_value", "soft_value", "beta_value"], columns)
    if args.out:
        print(f"wrote {len(columns[0])} rows to {args.out}")
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


def _seed(text: str) -> int:
    """argparse type: a seed as `as_seed` takes it; argparse reports the
    ValueError as a bad --seed value."""
    try:
        return as_seed(int(text))
    except DomainError:
        raise ValueError(text) from None


_seed.__name__ = "non-negative int"  # named in argparse errors

# flags several subcommands read with one meaning
_SHARED = {
    "--net": dict(required=True, help="network JSON file, or inline mlp:D-...-C[:kind[:slope]]"),
    "--data": dict(required=True, help="CSV of feature columns, then the label (splinefit: the value f)"),
    "--out": dict(help="output file"),
    "--seed": dict(type=_seed, default=0, help="seed of the data, inline net or training"),
    "--layer": dict(type=int, help="layer-prefix length (default: the whole network)"),
}
_ROW = dict(type=int, default=0, help="dataset row to analyse (default 0)")


class _Parser(argparse.ArgumentParser):
    """Parse errors raise ValidationError: exit 2 and one line, as for a bad file."""

    def error(self, message):
        raise ValidationError(message)

    def parse_known_args(self, args=None, namespace=None):
        """argparse's, except that unknown flags are reported before missing
        required arguments (argparse checks the required ones first)."""
        try:
            return super().parse_known_args(args, namespace)
        except ValidationError:
            # parse again with nothing required, only to look for unknown flags
            required = [a for a in self._actions if a.required]
            for a in required:
                a.required = False
            try:
                extras = super().parse_known_args(args, namespace)[1]
            finally:
                for a in required:
                    a.required = True
            if extras:
                raise ValidationError(f"unrecognized arguments: {' '.join(extras)}") from None
            raise


@functools.cache  # built once per process; no handler changes args, so shared list defaults stay put
def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a typed prefix such as --epoch is an unknown flag,
    # not silently --epochs
    parser = _Parser(
        prog="masonet",
        allow_abbrev=False,
        description="Max-affine spline view of deep networks: training, "
        "decomposition, partition analytics, spline fitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *shared):
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        return p

    command("gen-data", "write the 4-class toy dataset", "--seed").add_argument(
        "--out", required=True, **_SHARED["--out"])
    p = command("train", "train a network; writes the net JSON and a history CSV",
                "--net", "--data", "--seed")
    p.add_argument("--out", required=True, **_SHARED["--out"])
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--gamma", type=float, default=0.0, help="orthogonality weight of a dense final layer's rows")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="orthogonality weight of every other weight array")
    p.add_argument("--beta", default="0.5", help="beta value, or 'learnable' to train it")
    p.add_argument("--mode", default="hard", help="selection regime: hard | soft | beta")
    command("eval", "loss and accuracy of a network on a dataset", "--net", "--data", "--out", "--seed")
    command("decompose", "input-conditioned affine map A[x], b[x] of one input",
            "--net", "--data", "--out", "--seed", "--layer").add_argument("--k", **_ROW)
    command("templates", "matched-filter rows of the classifier at one input",
            "--net", "--data", "--out", "--seed").add_argument("--k", **_ROW)
    p = command("partition", "grid scan of joint VQ codes", "--net", "--out", "--seed", "--layer")
    p.add_argument("--bounds", type=_floats, required=True, help="lo,hi per input dimension (one pair for all)")
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
    p.add_argument("--k", type=_ints, required=True, help="piece budget, or a comma list of budgets for a decay curve")
    p = command("act-table", "hard/soft/beta activation tables (--mode relu|abs)", "--out")
    p.add_argument("--net", help="K=1, D=1 MASO JSON {A, B} to tabulate instead of --mode")
    p.add_argument("--mode", default="relu", choices=("relu", "abs"), help="activation")
    p.add_argument("--beta", type=_floats, default=[0.5], help="comma list of beta values in (0, 1)")
    p.add_argument("--bounds", type=_floats, default=[-10.0, 10.0], help="lo,hi of the grid")
    p.add_argument("--resolution", type=int, default=2001, help="grid points")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (MasonetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
