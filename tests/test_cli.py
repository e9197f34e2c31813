import argparse
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from masonet import cli, learn, partition
from masonet import layers as L
from masonet.maso import MasoParams, forward
from masonet.ndcore import MasonetError, ValidationError


def blob_csv(path, n=60, seed=0):
    """Two well-separated 2-D blobs, saved as a dataset CSV."""
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal((-2.0, 0.0), 0.3, size=(n // 2, 2)),
        rng.normal((2.0, 0.0), 0.3, size=(n // 2, 2)),
    ])
    y = np.repeat([0, 1], n // 2)
    cli.save_dataset_csv(str(path), X, y)
    return X, y


def skip_net(seed=0):
    """Two shape-preserving skip blocks on a 1x3x3 input, then a Dense head."""
    rng = np.random.default_rng(seed)

    def block():
        conv = L.Conv(rng.standard_normal((1, 1, 3, 3)) * 0.4, rng.standard_normal(1) * 0.1,
                      (1, 1), "same-zero", (1, 3, 3))
        skip = L.Conv(rng.standard_normal((1, 1, 1, 1)) * 0.4, np.zeros(1),
                      (1, 1), "same-zero", (1, 3, 3))
        return L.SkipBlock(conv, L.Activation("relu", 9), skip, rng.standard_normal(9) * 0.1)

    head = L.Dense(rng.standard_normal((2, 9)) * 0.3, rng.standard_normal(2) * 0.1)
    return L.Network([block(), block(), head], (1, 3, 3), 2)


def every_kind_net(seed=0):
    """Every layer kind on a 1x3x3 input: a skip block, then conv, batch
    norm, lrelu, max pool, average pool and a dense head."""
    rng = np.random.default_rng(seed)
    conv = L.Conv(rng.standard_normal((2, 1, 2, 2)), rng.standard_normal(2), (1, 1), "valid", (1, 3, 3))
    layers = [
        skip_net(seed).layers[0],
        conv,
        L.BatchNorm(rng.standard_normal(8), rng.uniform(0.5, 2.0, 8),
                    rng.standard_normal(8), rng.standard_normal(8)),
        L.Activation("lrelu", 8, nu=0.1),
        L.MaxPool(((0, 1), (2, 3), (4, 5), (6, 7)), 8),
        L.AvgPool(((0, 1, 2), (3,)), 4),
        L.Dense(rng.standard_normal((2, 2)), rng.standard_normal(2)),
    ]
    return L.Network(layers, (1, 3, 3), 2)


def _nested(depth):
    """A JSON array nested depth deep around one 0."""
    return "[" * depth + "0" + "]" * depth


def read_csv(path):
    lines = [l for l in open(path).read().splitlines() if l]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


# --- dataset files --------------------------------------------------------------

def test_gen_data_is_byte_deterministic(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(["gen-data", "--out", str(a), "--seed", "7"]) == 0
    assert cli.main(["gen-data", "--out", str(b), "--seed", "7"]) == 0
    assert cli.main(["gen-data", "--out", str(c), "--seed", "8"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_toy_dataset_shape_and_support():
    X, y = cli.generate_toy_dataset(0)
    assert X.shape == (20000, 2)
    assert np.array_equal(np.unique(y), [0, 1, 2, 3])
    assert np.all(np.abs(X) <= 2.0)
    # ring structure: radii concentrate near 1
    r = np.linalg.norm(X, axis=1)
    assert 0.8 < np.median(r) < 1.2


def test_dataset_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((37, 3)) * np.pi
    y = rng.integers(0, 4, size=37)
    p = tmp_path / "d.csv"
    cli.save_dataset_csv(str(p), X, y)
    X2, y2 = cli.load_dataset_csv(str(p))
    assert np.array_equal(X, X2)  # .17g round-trips float64 exactly
    assert np.array_equal(y, y2)


def test_dataset_loader_reports_offending_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,x2,label\n1.0,2.0,0\n1.0,0\n")
    with pytest.raises(ValidationError, match=":3:"):
        cli.load_dataset_csv(str(p))
    p.write_text("1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(ValidationError, match=":2:"):
        cli.load_dataset_csv(str(p))
    p.write_text("1.0,2.0,0\n1.0,2.0,9\n")
    with pytest.raises(ValidationError, match="label 9"):
        cli.load_dataset_csv(str(p), class_count=4)
    p.write_text("\n\n")
    with pytest.raises(ValidationError, match="no data rows"):
        cli.load_dataset_csv(str(p))


def test_headerless_dataset_loads(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("0.5,1.5,1\n-0.5,2.5,0\n")
    X, y = cli.load_dataset_csv(str(p))
    assert X.shape == (2, 2)
    assert list(y) == [1, 0]


@pytest.mark.parametrize("text, options, message", [
    # a first row with a number in it is data, not a header
    ("oops,1.5,1\n2.0,1.5,0\n", {}, ":1: non-numeric feature cell"),
    ("x1,x2,label\n1.0,2.0,3.0,0\n", {}, ":1: header has 3 columns, the data rows 4"),
    ("x1,x2,label\n\n1.0,nan,0\n", {}, ":3: feature cell 'nan' is not finite"),
    ("1.0,2.0,0\n-Infinity,2.0,1\n", {}, ":2: feature cell '-Infinity' is not finite"),
    ("1.0,1e999,0\n", {}, ":1: feature cell '1e999' is not finite"),
    ("x,f\n0,0\n1,inf\n", {"float_target": True}, ":3: target 'inf' is not finite"),
], ids=["numeric-first-row", "header-width", "nan-feature",
        "inf-feature", "overflowing-feature", "inf-target"])
def test_loader_names_the_bad_line(tmp_path, text, options, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValidationError, match="^" + re.escape(f"{p}{message}")):
        cli.load_dataset_csv(str(p), **options)


def test_non_finite_cell_exits_2_with_its_line(tmp_path, capsys):
    p = tmp_path / "nan.csv"
    p.write_text("x1,x2,label\n0.5,0.5,0\nnan,0.5,1\n")
    assert cli.main(["decompose", "--net", "mlp:2-4-4", "--data", str(p), "--k", "0"]) == 2
    assert f"{p}:3: feature cell 'nan' is not finite" in capsys.readouterr().err


def test_single_row_commands_check_the_whole_dataset(tmp_path, capsys):
    # row --k is read only after the whole file has parsed: a bad line past it exits 2
    skip = str(tmp_path / "skip.json")
    cli.save_network(skip_net(), skip)
    for command, net, width in (("decompose", "mlp:2-4-4", 2), ("templates", "mlp:2-4-4", 2),
                                ("norms", "mlp:2-4-4", 2), ("ensemble", skip, 9)):
        p = tmp_path / f"{command}.csv"
        p.write_text(("0.5," * width + "0\n") * 3 + "x," * width + "1\n")
        assert cli.main([command, "--net", net, "--data", str(p), "--k", "0"]) == 2, command
        assert f"{p}:4: non-numeric feature cell" in capsys.readouterr().err, command


def test_bulk_parse_warning_falls_back_to_the_line_scan(tmp_path, monkeypatch):
    """numpy 1.23-1.26 parse an integer cell '1.0' through float with a
    DeprecationWarning; the loader must then give int()'s verdict."""
    def lenient_loadtxt(rows, dtype, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return np.array([((1.0, 2.0), 1)], dtype=dtype)

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    p = tmp_path / "d.csv"
    p.write_text("x1,x2,label\n1.0,2.0,1.0\n")
    with warnings.catch_warnings(), pytest.raises(
        ValidationError, match=re.escape(f"{p}:2: label '1.0' is not an integer")
    ):
        warnings.simplefilter("ignore")  # as outside pytest, where the warning would pass unseen
        cli.load_dataset_csv(str(p))


def reference_load(path, class_count=None, float_target=False):
    """Per-line reference for load_dataset_csv: every cell through float() or int()."""
    def is_number(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    with open(path) as fh:
        rows = [(n, line) for n, line in enumerate(fh.read().split("\n"), 1) if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    header = None
    if not any(is_number(c) for c in rows[0][1].split(",")):
        header, rows = rows[0], rows[1:]
    if not rows:
        raise ValidationError(f"{path}: no data rows after the header")
    width = len(rows[0][1].split(","))
    if header is not None and len(header[1].split(",")) != width:
        raise ValidationError(
            f"{path}:{header[0]}: header has {len(header[1].split(','))} columns, the data rows {width}"
        )
    if width < 2:
        raise ValidationError(f"{path}:{rows[0][0]}: need features and a label")
    feats, labels = [], []
    for n, line in rows:
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(f"{path}:{n}: expected {width} columns, found {len(cells)}")
        try:
            feats.append([float(c) for c in cells[:-1]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{n}: non-numeric feature cell ({exc})")
        for cell, v in zip(cells, feats[-1]):
            if not np.isfinite(v):
                raise ValidationError(f"{path}:{n}: feature cell {cell!r} is not finite")
        last = cells[-1]
        if float_target:
            if not is_number(last):
                raise ValidationError(f"{path}:{n}: target {last!r} is not a number")
            if not np.isfinite(float(last)):
                raise ValidationError(f"{path}:{n}: target {last!r} is not finite")
            labels.append(float(last))
            continue
        try:
            label = int(last)
        except ValueError:
            raise ValidationError(f"{path}:{n}: label {last!r} is not an integer")
        # labels are stored as int64, so without a class count 2**63 bounds them
        if not 0 <= label < (2**63 if class_count is None else class_count):
            raise ValidationError(f"{path}:{n}: label {label} out of range")
        labels.append(label)
    return np.array(feats, dtype=np.float64), np.array(labels, dtype=np.float64 if float_target else np.int64)


def _tokens(plain, odd):
    """Mostly plain tokens (so whole files often parse), sometimes odd ones."""
    return st.integers(0, 5).flatmap(lambda i: plain if i else st.sampled_from(odd))


# cells Python's float()/int() and numpy read alike, differently, or not at all;
# numpy strips '\x1c'-'\x1f' and parses the label '1\u01fe' as 472
_FEATURES = _tokens(st.floats(width=64, allow_nan=False, allow_infinity=False).map(repr),
                    ["+3", " 2 ", "1_0.5", "0x1p3", "-Infinity", "4.9e-324", "-0", "nan",
                     "1e999", "٣.5", "1\x1f", "\x1c2", "", "oops"])
_LABELS = _tokens(st.integers(0, 3).map(str),
                  ["1.0", "3_0", "٢", "-1", "7", "+1", " 2 ", "1e3",
                   "99999999999999999999", "2.5", "1\x1e", "1\u01fe", ""])
_HEADER_CELLS = st.sampled_from(["x1", "x2", "label", "f", "1"])


@st.composite
def dataset_texts(draw):
    width = draw(st.integers(1, 4))
    lines = []
    if draw(st.booleans()):
        header_width = width if draw(st.booleans()) else draw(st.integers(1, 5))
        lines.append(",".join(draw(_HEADER_CELLS) for _ in range(header_width)))
    for _ in range(draw(st.integers(0, 6))):
        w = width if draw(st.integers(0, 9)) else draw(st.integers(1, 5))  # some ragged rows
        cells = [draw(_FEATURES) for _ in range(w - 1)] + [draw(_LABELS)]
        lines.append(",".join(cells))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _load_outcome(load, path, **options):
    """The arrays as bytes, shapes, dtypes and layout, or the error raised."""
    try:
        arrays = load(path, **options)
    except ValidationError as exc:
        return type(exc), str(exc)
    return [(a.tobytes(), a.shape, a.dtype, a.flags.c_contiguous) for a in arrays]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dataset_texts(), st.sampled_from([None, 2, 4]), st.booleans())
def test_loader_matches_the_per_line_reference(tmp_path, text, class_count, float_target):
    p = tmp_path / "d.csv"
    with open(p, "w", newline="") as fh:  # keep CRLF line ends as drawn
        fh.write(text)
    options = {"float_target": True} if float_target else {"class_count": class_count}
    got = _load_outcome(cli.load_dataset_csv, str(p), **options)
    assert got == _load_outcome(reference_load, str(p), **options)


@pytest.mark.parametrize("command", [["stats"], ["nn", "0"]])
def test_label_past_int64_exits_2(tmp_path, capsys, command):
    p = tmp_path / "big.csv"
    p.write_text("x1,x2,label\n0.1,0.2,1\n0.3,0.4,99999999999999999999\n")
    assert cli.main([*command, "--net", "mlp:2-4-4", "--data", str(p)]) == 2
    assert f"{p}:3: label 99999999999999999999 out of range" in capsys.readouterr().err
    # the largest int64 is still a label
    p.write_text(f"0.1,0.2,{2**63 - 1}\n")
    assert cli.load_dataset_csv(str(p))[1].tolist() == [2**63 - 1]


def percell_csv(header, rows):
    """The per-cell writer the row format replaced: ints (and Python bools)
    via str(int(v)), every other cell via format(float(v), '.17g')."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")
            for v in row
        ))
    return "\n".join(lines) + "\n"


def test_row_format_writer_matches_the_per_cell_writer(tmp_path, capsys):
    floats = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300, 0.1, -2.5]
    columns = [
        floats,
        np.array(floats[::-1]),
        [0, -3, 2**40, 7, 1, 0, 12, -1],  # Python ints
        np.arange(-4, 4, dtype=np.int16),
        np.array([True, False] * 4),
        [True, False] * 4,
    ]
    header = [f"c{j}" for j in range(len(columns))]
    expected = percell_csv(header, zip(*columns))
    p = tmp_path / "t.csv"
    cli._write_csv(str(p), header, columns)
    assert p.read_bytes() == expected.encode()
    cli._write_csv(None, header, columns)
    assert capsys.readouterr().out == expected

    X = np.array([[-0.0, 5e-324], [1e300, -1e-300], [np.pi, -2.0**-1074]])
    y = np.array([3, 0, 1])
    cli.save_dataset_csv(str(p), X, y)
    assert p.read_bytes() == percell_csv(["x1", "x2", "label"], [(*row, label) for row, label in zip(X, y)]).encode()
    X2, y2 = cli.load_dataset_csv(str(p))
    assert X2.tobytes() == X.tobytes() and X2.flags.c_contiguous  # -0.0 and subnormals included
    assert y2.dtype == np.int64 and np.array_equal(y2, y)


# --- network files ---------------------------------------------------------------

def test_network_json_round_trip_all_kinds(tmp_path, rng):
    regions, out_shape = L.pool_regions_2d((2, 4, 4), (2, 2), (2, 2))
    net = L.Network(
        [
            L.Conv(rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2),
                   (1, 1), "same-zero", (1, 4, 4)),
            L.BatchNorm(rng.standard_normal(32), rng.uniform(0.5, 2.0, 32),
                        rng.standard_normal(32), rng.standard_normal(32)),
            L.Activation("lrelu", 32, nu=0.05),
            L.MaxPool(regions, 32),
            L.Dense(rng.standard_normal((3, 8)), rng.standard_normal(3)),
        ],
        (1, 4, 4),
        3,
    )
    p = tmp_path / "net.json"
    cli.save_network(net, str(p))
    net2 = cli.load_network(str(p))
    x = rng.standard_normal(16)
    out1, _ = L.network_forward(net, x)
    out2, _ = L.network_forward(net2, x)
    assert np.array_equal(out1, out2)
    assert net2.dims == net.dims
    assert net2.layers[2].nu == 0.05
    assert net2.layers[3].regions == net.layers[3].regions


def test_avgpool_round_trip(tmp_path, rng):
    regions, _ = L.pool_regions_2d((1, 4, 4), (2, 2), (2, 2))
    net = L.Network(
        [L.AvgPool(regions, 16), L.Dense(rng.standard_normal((2, 4)), np.zeros(2))],
        (1, 4, 4),
        2,
    )
    p = tmp_path / "avg.json"
    cli.save_network(net, str(p))
    net2 = cli.load_network(str(p))
    x = rng.standard_normal(16)
    assert np.array_equal(L.network_forward(net, x)[0], L.network_forward(net2, x)[0])


def test_skip_network_round_trip(tmp_path, rng):
    net = skip_net()
    p = tmp_path / "skip.json"
    cli.save_network(net, str(p))
    net2 = cli.load_network(str(p))
    x = rng.standard_normal(9)
    assert np.array_equal(L.network_forward(net, x)[0], L.network_forward(net2, x)[0])


def test_load_network_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError, match="not valid JSON"):
        cli.load_network(str(p))
    p.write_text(json.dumps({"input_shape": [2], "layers": []}))
    with pytest.raises(ValidationError, match="class_count"):
        cli.load_network(str(p))
    p.write_text(json.dumps({
        "input_shape": [2], "class_count": 2,
        "layers": [{"kind": "dense", "W": [[1.0, 0.0], [0.0, 1.0]]}],
    }))
    with pytest.raises(ValidationError, match="layer 0"):
        cli.load_network(str(p))
    p.write_text(json.dumps({
        "input_shape": [2], "class_count": 2,
        "layers": [{"kind": "wavelet"}],
    }))
    with pytest.raises(ValidationError, match="wavelet"):
        cli.load_network(str(p))


@pytest.mark.parametrize("edit,named", [
    (lambda doc: doc["layers"][1].update(dim=3.9), "layer 1: activation dim must be an integer, got 3.9"),
    (lambda doc: doc.update(class_count=2.6), "class_count must be an integer, got 2.6"),
    (lambda doc: doc.update(input_shape=[2.5]), "input_shape must be an integer, got 2.5"),
], ids=["dim", "class_count", "input_shape"])
def test_non_integer_network_fields_exit_2(tmp_path, capsys, edit, named):
    p = tmp_path / "net.json"
    cli.save_network(L.make_mlp([2, 4, 2], seed=0), str(p))
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    blob_csv(tmp_path / "d.csv")
    assert cli.main(["eval", "--net", str(p), "--data", str(tmp_path / "d.csv")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("edit,named", [
    (lambda doc: [doc], "the top level must be an object, got an array"),
    (lambda doc: 5, "the top level must be an object, got a number"),
    (lambda doc: None, "the top level must be an object, got null"),
    (lambda doc: {**doc, "input_shape": 2}, "input_shape must be an array, got a number"),
    (lambda doc: {**doc, "input_shape": True}, "input_shape must be an array, got a boolean"),
    (lambda doc: {**doc, "input_shape": None}, "input_shape must be an array, got null"),
    (lambda doc: {**doc, "layers": 5}, "layers must be an array, got a number"),
    (lambda doc: {**doc, "layers": False}, "layers must be an array, got a boolean"),
    (lambda doc: {**doc, "layers": None}, "layers must be an array, got null"),
    (lambda doc: {**doc, "class_count": [2]}, "class_count must be an integer, got an array"),
    # numpy's ValueError for these used to escape as an internal error
    (lambda doc: {**doc, "input_shape": [2, []]},
     "input_shape is not a rectangular array: setting an array element with a sequence"),
    (lambda doc: {**doc, "input_shape": json.loads(_nested(70))},
     "input_shape is not a rectangular array: setting an array element with a sequence"),
], ids=["top-array", "top-number", "top-null", "input_shape-number", "input_shape-bool",
        "input_shape-null", "layers-number", "layers-bool", "layers-null", "class_count-list",
        "input_shape-ragged", "input_shape-70-deep"])
def test_network_file_containers_of_the_wrong_type_exit_2(tmp_path, capsys, edit, named):
    p = tmp_path / "net.json"
    cli.save_network(L.make_mlp([2, 4, 2], seed=0), str(p))
    p.write_text(json.dumps(edit(json.loads(p.read_text()))))
    blob_csv(tmp_path / "d.csv")
    assert cli.main(["eval", "--net", str(p), "--data", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{p}: {named}" in err and "internal error" not in err


def _set_true(rows, i):
    rows[i] = True


@pytest.mark.parametrize("edit,named", [
    (lambda doc: _set_true(doc["layers"][0]["W"][1], 0), "layer 0: dense W must be a real number, got True"),
    (lambda doc: doc["layers"][0].update(b=[True, False, True, True]),
     "layer 0: dense b must be a real number, got True"),
    (lambda doc: doc.update(input_shape=[2, True]), "input_shape must be an integer, got True"),
    (lambda doc: _set_true(doc["layers"][2]["regions"][0], 1),
     "layer 2: pool region index must be an integer, got True"),
    (lambda doc: doc["layers"][1].update(nu=True), "layer 1: activation nu must be a real number, got True"),
    (lambda doc: doc["layers"][1].update(dim=False), "layer 1: activation dim must be an integer, got False"),
], ids=["W-entry", "b", "input_shape", "maxpool-region", "activation-nu", "activation-dim"])
def test_booleans_in_a_network_file_exit_2(tmp_path, capsys, edit, named):
    # json true would otherwise load as the number 1; the library's field
    # checks refuse it, so the message is theirs
    mlp = L.make_mlp([2, 4, 3], seed=0)
    net = L.Network(mlp.layers[:2] + [L.MaxPool(((0, 1), (2, 3)), 4), L.Dense(np.eye(2), np.zeros(2))],
                    (2,), 2)
    p = tmp_path / "net.json"
    cli.save_network(net, str(p))
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    blob_csv(tmp_path / "d.csv")
    assert cli.main(["eval", "--net", str(p), "--data", str(tmp_path / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert f"{p}: {named}" in err and "internal error" not in err


@pytest.mark.parametrize("doc,named", [
    ({"A": [[[1.0], [True]]], "B": [[0.0, 0.0]]}, "maso A must be a real number, got True"),
    ({"A": [[[1.0], [0.5]]], "B": [[False, 0.0]]}, "maso B must be a real number, got False"),
    ([1.0], "the top level must be an object, got an array"),
], ids=["A-entry", "B-entry", "top-array"])
def test_act_table_maso_file_booleans_exit_2(tmp_path, capsys, doc, named):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["act-table", "--net", str(p), "--resolution", "3"]) == 2
    err = capsys.readouterr().err
    assert f"{p}: {named}" in err and "internal error" not in err


def test_layer_objects_are_the_tag_then_the_fields_in_order(tmp_path):
    p = tmp_path / "net.json"
    cli.save_network(every_kind_net(), str(p))
    layers = json.loads(p.read_text())["layers"]
    pool = ["kind", "regions", "in_dim"]
    keys = {
        "skip": ["kind", "conv", "activation", "skip", "skip_bias"],
        "conv": ["kind", "filters", "bias", "stride", "padding", "in_shape"],
        "batchnorm": ["kind", "mean", "var", "scale", "shift", "epsilon"],
        "activation": ["kind", "activation", "dim", "nu"],  # the field `kind` is stored as "activation"
        "maxpool": pool,
        "avgpool": pool,
        "dense": ["kind", "W", "b"],
    }
    assert [obj["kind"] for obj in layers] == list(keys)
    assert [list(obj) for obj in layers] == list(keys.values())
    skip = layers[0]
    assert [list(skip[part]) for part in ("conv", "activation", "skip")] == [
        keys["conv"], keys["activation"], keys["conv"]
    ]
    assert (layers[3]["activation"], skip["activation"]["activation"]) == ("lrelu", "relu")


def test_saved_network_reloads_and_saves_byte_identically(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    cli.save_network(every_kind_net(), str(first))
    cli.save_network(cli.load_network(str(first)), str(second))
    assert second.read_bytes() == first.read_bytes()


def _rename_nu(doc):
    doc["layers"][1]["slope"] = doc["layers"][1].pop("nu")


@pytest.mark.parametrize("edit,named", [
    (_rename_nu, "layer 1: unknown field 'slope'"),
    (lambda doc: doc["layers"][0].update(extra={"kind": "bogus"}), "layer 0: unknown field 'extra'"),
], ids=["activation-slope", "dense-extra-object"])
def test_unknown_field_in_a_layer_object_exits_2(tmp_path, capsys, edit, named):
    # a misspelt optional field used to load with its default
    p = tmp_path / "net.json"
    cli.save_network(L.make_mlp([2, 4, 2], kind="lrelu", nu=0.2, seed=0), str(p))
    doc = json.loads(p.read_text())
    edit(doc)
    p.write_text(json.dumps(doc))
    blob_csv(tmp_path / "d.csv")
    assert cli.main(["eval", "--net", str(p), "--data", str(tmp_path / "d.csv")]) == 2
    assert capsys.readouterr().err == f"error: {p}: {named}\n"


def test_top_level_keys_of_a_network_file_are_not_checked(tmp_path):
    p = tmp_path / "net.json"
    cli.save_network(L.make_mlp([2, 4, 2], seed=0), str(p))
    p.write_text(json.dumps({"comment": "any note", **json.loads(p.read_text())}))
    assert cli.load_network(str(p)).dims == (2, 4, 4, 2)


@pytest.mark.parametrize("doc,named", [
    ({"B": [[0.0, 0.0]]}, "missing field 'A'"),
    ({"A": [[[1.0], [0.5]]]}, "missing field 'B'"),
    ({"A": [[[1.0], [0.5]]], "B": [[0.0, 0.0]], "C": 1}, "unknown field 'C'"),
    ({"A": "x", "B": [[0.0, 0.0]]}, "maso A must be a real number, got x"),
    ({"A": [[1.0, 0.5]], "B": [[0.0, 0.0]]}, "A must be K x R x D, got shape (1, 2)"),
], ids=["no-A", "no-B", "unknown-C", "string-A", "2-D-A"])
def test_act_table_maso_file_errors_name_the_field(tmp_path, capsys, doc, named):
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["act-table", "--net", str(p), "--resolution", "3"]) == 2
    assert capsys.readouterr().err == f"error: {p}: {named}\n"


@pytest.mark.parametrize("depth,named", [
    (900, "layer 0: dense W is not a rectangular array"),  # decodes; numpy refuses that many dimensions
    (995, "arrays or objects nested too deeply"),  # past json.load's recursion limit
], ids=["900-deep", "995-deep"])
def test_deeply_nested_network_file_exits_2(tmp_path, capsys, depth, named):
    p = tmp_path / "net.json"
    p.write_text('{"input_shape": [2], "class_count": 2, "layers": [{"kind": "dense", "W": %s, "b": [0]}]}'
                 % _nested(depth))
    blob_csv(tmp_path / "d.csv")
    assert cli.main(["eval", "--net", str(p), "--data", str(tmp_path / "d.csv")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {p}: {named}")


def test_deeply_nested_maso_file_exits_2(tmp_path, capsys):
    p = tmp_path / "m.json"
    p.write_text(_nested(100_000))
    assert cli.main(["act-table", "--net", str(p), "--resolution", "3"]) == 2
    assert capsys.readouterr().err == f"error: {p}: arrays or objects nested too deeply\n"


def test_save_dataset_rejects_fractional_labels(tmp_path):
    with pytest.raises(MasonetError, match="label must be an integer, got 0.5"):
        cli.save_dataset_csv(str(tmp_path / "d.csv"), np.zeros((2, 2)), [0.5, 1.9])
    assert not (tmp_path / "d.csv").exists()


def test_train_gamma_without_dense_head_exits_2(tmp_path, capsys):
    p = tmp_path / "net.json"
    net = L.Network([L.Dense(np.eye(2), np.zeros(2)), L.Activation("relu", 2)], (2,), 2)
    cli.save_network(net, str(p))
    blob_csv(tmp_path / "d.csv")
    argv = ["train", "--net", str(p), "--data", str(tmp_path / "d.csv"),
            "--out", str(tmp_path / "out.json"), "--epochs", "1"]
    assert cli.main(argv + ["--gamma", "1"]) == 2
    assert "Dense final layer" in capsys.readouterr().err
    assert cli.main(argv + ["--lambda", "0.1"]) == 0


@pytest.mark.parametrize("command", ["decompose", "partition", "stats", "nn"])
def test_layer_out_of_range_reads_alike_on_every_command(tmp_path, capsys, command):
    data = str(tmp_path / "d.csv")
    blob_csv(data, n=20)
    rest = {"decompose": ["--data", data], "partition": ["--bounds=-1,1", "--resolution=5"],
            "stats": ["--data", data], "nn": ["3", "--data", data, "--k", "2"]}[command]
    depth = 5  # dense, relu, dense, relu, dense
    for layer in (-1, depth + 1):
        assert cli.main([command, "--net", "mlp:2-5-3-2", f"--layer={layer}", *rest]) == 2
        assert capsys.readouterr().err == f"error: layer prefix {layer} out of range for {depth} layers\n"


# --- exit codes -------------------------------------------------------------------

def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["eval", "--net", str(tmp_path / "nope.json"),
                     "--data", str(tmp_path / "nope.csv")]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_2(capsys):
    assert cli.main(["gen-data"]) == 2
    assert "--out" in capsys.readouterr().err


def test_bad_arch_string_exits_2(tmp_path, capsys):
    blob_csv(tmp_path / "d.csv")
    code = cli.main(["eval", "--net", "mlp:2-x-2", "--data", str(tmp_path / "d.csv")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["decompose", "--net", "mlp:2-4-4", "--data", "{blobs}", "--k", "abc"],
    ["nn", "3", "--net", "mlp:2-4-4", "--data", "{blobs}", "--k", "x"],
    ["nn", "3", "--net", "mlp:2-4-4", "--data", "{blobs}", "--k", "-1"],
    ["partition", "--net", "mlp:2-4-4", "--bounds=a,b"],
    ["partition", "--net", "mlp:2-4-4", "--bounds=-1,1", "--resolution", "x"],
    ["partition", "--net", "mlp:2-4-4", "--bounds=-1,1", "--resolution", "3,3,3"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json",
     "--mode", "beta", "--beta", "abc"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--batch", "0"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--gamma", "-5"],
    ["splinefit", "--data", "{quad}", "--k", "a"],
    ["splinefit", "--data", "{ragged}", "--k", "2"],
    ["act-table", "--beta", "x"],
    ["act-table", "--resolution", "-5"],
    ["eval", "--net", "mlp:2-4-4:lrelu:abc", "--data", "{blobs}"],
    ["eval", "--net", "mlp:2-4-4:lrelu:2", "--data", "{blobs}"],
    ["eval", "--net", "mlp:2-4-4:relu:0.1:junk", "--data", "{blobs}"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--lambda", "nan"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--gamma", "inf"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--lr", "nan"],
    # a learnable beta outside beta mode used to train no beta and exit 0
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--beta", "learnable"],
    ["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json",
     "--mode", "soft", "--beta", "learnable"],
], ids=" ".join)
def test_bad_values_exit_2(tmp_path, capsys, argv):
    blob_csv(tmp_path / "blobs.csv")
    (tmp_path / "quad.csv").write_text("x,f\n0,0\n1,1\n0.5,0.25\n")
    (tmp_path / "ragged.csv").write_text("x,f\n1,1\n2,4,5\n")
    paths = {"blobs": tmp_path / "blobs.csv", "quad": tmp_path / "quad.csv",
             "ragged": tmp_path / "ragged.csv", "tmp": tmp_path}
    assert cli.main([a.format(**paths) for a in argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:")
    assert not (tmp_path / "n.json.history.csv").exists()


@pytest.mark.parametrize("argv, named", [
    (["gen-data", "--out", "x.csv", "--bogus"], "--bogus"),
    ([], "command"),
    (["frobnicate"], "frobnicate"),
    (["act-table", "--mode", "tanh"], "--mode"),
    (["train", "--net", "mlp:2-4-4", "--data", "d.csv"], "--out"),
    (["train", "--data", "d.csv", "--out", "n.json"], "--net"),
    (["eval", "--net", "mlp:2-4-4"], "--data"),
    (["partition", "--net", "mlp:2-4-4"], "--bounds"),
    (["splinefit", "--data", "d.csv"], "--k"),
    (["splinefit", "--k", "2"], "--data"),
    # an unknown flag is named even when a required one is missing too
    (["gen-data", "--bogus"], "unrecognized arguments: --bogus"),
    (["nn", "--bogus", "3"], "unrecognized arguments: --bogus"),
    (["train", "--net", "mlp:2-4-4", "--epox", "3", "--lr", "0.1"], "unrecognized arguments: --epox 3"),
    (["--bogus"], "unrecognized arguments: --bogus"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_bad_command_lines_exit_2_with_one_line(capsys, argv, named):
    # the parser's errors take the handlers' path: a return value, not SystemExit
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error:") and named in line
    assert captured.out == ""


@pytest.mark.parametrize("argv, typed", [
    (["train", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/n.json", "--epoch", "3"], "--epoch"),
    (["decompose", "--net", "mlp:2-4-4", "--data", "{blobs}", "--out", "{tmp}/a.csv", "--lay", "2"], "--lay"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_abbreviated_flags_are_unknown(tmp_path, capsys, argv, typed):
    # argparse would read a unique prefix as the whole flag (--epochs, --layer)
    blob_csv(tmp_path / "blobs.csv")
    assert cli.main([a.format(blobs=tmp_path / "blobs.csv", tmp=tmp_path) for a in argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: unrecognized arguments:") and typed in line.split()
    assert not (tmp_path / "n.json").exists() and not (tmp_path / "a.csv").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: masonet" in capsys.readouterr().out


def test_files_that_are_not_utf8_exit_2_naming_the_file(tmp_path, capsys):
    # a UnicodeDecodeError is no MasonetError: uncaught, main would exit 1
    net, data = tmp_path / "net.json", tmp_path / "d.csv"
    net.write_bytes(bytes(range(256)))
    data.write_bytes(b"x1,x2,label\n0.5,1\xe9,0\n")
    assert cli.main(["eval", "--net", str(net), "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {net}: not valid JSON")
    assert cli.main(["act-table", "--net", str(net)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {net}: not valid JSON")
    for argv in (["eval", "--net", "mlp:2-4-4"], ["splinefit", "--k", "2"]):
        assert cli.main(argv + ["--data", str(data)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {data}: not UTF-8 text")


def test_splinefit_reports_file_line_past_blank_lines(tmp_path, capsys):
    p = tmp_path / "gappy.csv"
    p.write_text("x,f\n\n\n1,1\n2,a\n")
    assert cli.main(["splinefit", "--data", str(p), "--k", "2"]) == 2
    assert f"{p}:5:" in capsys.readouterr().err


def test_skip_block_with_dense_part_is_a_validation_error(tmp_path, capsys, rng):
    p = tmp_path / "skip.json"
    cli.save_network(skip_net(), str(p))
    doc = json.loads(p.read_text())
    # a dense part as wide as the block, so every width check passes
    doc["layers"][0]["conv"] = {"kind": "dense", "W": np.eye(9).tolist(), "b": [0.0] * 9}
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="layer 0"):
        cli.load_network(str(p))
    data = tmp_path / "d9.csv"
    cli.save_dataset_csv(str(data), rng.standard_normal((3, 9)), np.zeros(3, dtype=np.int64))
    assert cli.main(["norms", "--net", str(p), "--data", str(data)]) == 2
    assert "internal error" not in capsys.readouterr().err


# --- fuzzing the file decoders ---------------------------------------------------

MASO_FILE = {"A": [[[1.0], [0.5]]], "B": [[0.0, 0.25]]}  # act-table's K = 1 form
_PAST_JSON_LIMIT = "@nested@"  # written out as an array nested 2,000 deep
_VALUES = [None, True, False, "x", "dense", 0, 1, -1, 3, 0.5, -2.5, 1e6, [], {},
           json.loads(_nested(70)), _PAST_JSON_LIMIT]


def _paths(node, path=()):
    """The path of every value below a JSON document's root, where an
    array's entries are its first and its last."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = [(i, node[i]) for i in sorted({0, len(node) - 1})] if isinstance(node, list) and node else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutations(doc):
    """One edit of doc: a value replaced, a field or entry deleted, or an
    unknown key added to an object."""
    paths = list(_paths(doc))
    objects = [p for p in [()] + paths if isinstance(_at(doc, p), dict)]
    return st.one_of(
        st.tuples(st.just("set"), st.sampled_from(paths), st.sampled_from(_VALUES)),
        st.tuples(st.just("delete"), st.sampled_from(paths), st.none()),
        st.tuples(st.just("add"), st.sampled_from(objects), st.none()),
    )


def write_mutated(path, doc, mutation):
    op, where, value = mutation
    doc = json.loads(json.dumps(doc))
    if op == "add":
        _at(doc, where)["unknown"] = 0
    elif op == "delete":
        del _at(doc, where[:-1])[where[-1]]
    else:
        _at(doc, where[:-1])[where[-1]] = value
    path.write_text(json.dumps(doc).replace(json.dumps(_PAST_JSON_LIMIT), _nested(2000)))


def assert_exits_0_or_2_naming(path, argv, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        [line] = err.splitlines()
        assert line.startswith(f"error: {path}: ")


@pytest.fixture(scope="module")
def every_kind_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    cli.save_network(every_kind_net(), str(d / "net.json"))
    rng = np.random.default_rng(0)
    cli.save_dataset_csv(str(d / "d.csv"), rng.standard_normal((4, 9)), np.array([0, 1, 1, 0]))
    return json.loads((d / "net.json").read_text()), d / "d.csv"


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_network_file_exits_0_or_2(tmp_path, capsys, every_kind_file, data):
    doc, csv = every_kind_file
    p = tmp_path / "net.json"
    write_mutated(p, doc, data.draw(mutations(doc)))
    assert_exits_0_or_2_naming(p, ["eval", "--net", str(p), "--data", str(csv)], capsys)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations(MASO_FILE))
def test_fuzzed_maso_file_exits_0_or_2(tmp_path, capsys, mutation):
    p = tmp_path / "m.json"
    write_mutated(p, MASO_FILE, mutation)
    assert_exits_0_or_2_naming(p, ["act-table", "--net", str(p), "--resolution", "3"], capsys)


# --- fuzzing the command line and the CSV readers ---------------------------------

# one valid command line per subcommand; every flag is written --flag=value,
# so a value may be empty or start with '-'
_NET = "--net=mlp:2-3-2"
FUZZ_COMMANDS = {
    "gen-data": ["--out={tmp}/toy.csv", "--seed=0"],
    "train": [_NET, "--data={data}", "--out={tmp}/n.json", "--epochs=1", "--lr=0.01", "--batch=4",
              "--gamma=0", "--lambda=0", "--beta=0.5", "--mode=beta", "--seed=0"],
    "eval": [_NET, "--data={data}", "--out={tmp}/e.csv", "--seed=0"],
    "decompose": [_NET, "--data={data}", "--out={tmp}/a.csv", "--seed=0", "--layer=2", "--k=1"],
    "templates": [_NET, "--data={data}", "--out={tmp}/t.csv", "--seed=0", "--k=1"],
    "partition": [_NET, "--out={tmp}/p.csv", "--seed=0", "--layer=2", "--bounds=-1,1", "--resolution=5"],
    "stats": [_NET, "--data={data}", "--out={tmp}/s.csv", "--seed=0", "--layer=2"],
    "nn": ["3", _NET, "--data={data}", "--out={tmp}/nn.csv", "--seed=0", "--layer=2", "--k=2"],
    "norms": [_NET, "--data={data}", "--out={tmp}/no.csv", "--seed=0", "--k=1"],
    "ensemble": ["--net={skip}", "--data={data9}", "--out={tmp}/en.csv", "--seed=0", "--k=1"],
    "splinefit": ["--data={quad}", "--out={tmp}/sf.csv", "--seed=0", "--k=2,3"],
    "act-table": ["--out={tmp}/act.csv", "--mode=abs", "--beta=0.25,0.5", "--bounds=-2,2", "--resolution=5"],
}
# small numbers only: a large epoch count or resolution is valid, just slow
_FLAG_VALUES = ["", "x", " ", "nan", "inf", "-inf", "1e999", "-1", "0", "1", "2", "0.5", "-0", "1,2",
                "2,,3", "-2,2", "3,-3", "mlp:", "mlp:2-0-2", "mlp:3-3-2", "mlp:2-3-2:tanh",
                "mlp:2-3-2:lrelu:2", "{tmp}", "{tmp}/missing.csv", "{quad}", "{data}", "soft", "learnable"]
_CELLS = ["", " ", "x", "nan", "inf", "-inf", "1e400", "-0", "0.5", "-1", "1", "7", "1e18",
          "99999999999999999999", "1_0", "0x1", "True", "é", '"1"', "1,2"]
# the files each command reads that the fuzz edits
_CSV_OF = {"eval": "data", "stats": "data", "nn": "data", "splinefit": "quad"}


@st.composite
def fuzzed_command_lines(draw):
    """(command, argv, csv edit): one flag value replaced, or one edit of
    the dataset or splinefit CSV the command reads."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    argv = [command, *FUZZ_COMMANDS[command]]
    edit = None
    if command in _CSV_OF and draw(st.booleans()):
        edit = (draw(st.sampled_from(["cell", "delete", "repeat", "widen", "blank"])),
                draw(st.integers(0, 12)), draw(st.integers(0, 2)), draw(st.sampled_from(_CELLS)))
    else:
        i = draw(st.sampled_from([i for i, a in enumerate(argv) if a.startswith("--")]))
        argv[i] = argv[i].split("=")[0] + "=" + draw(st.sampled_from(_FLAG_VALUES))
    return command, argv, edit


def edited_csv(text, edit):
    op, line, cell, value = edit
    lines = text.split("\n")
    line %= len(lines)
    cells = lines[line].split(",")
    if op == "cell":
        cells[cell % len(cells)] = value
    elif op == "widen":
        cells.append(value)
    lines[line] = ",".join(cells)
    if op == "delete":
        del lines[line]
    elif op == "repeat":
        lines.insert(line, lines[line])
    elif op == "blank":
        lines.insert(line, value if not value.strip() else "")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzzed_command_lines())
def test_fuzzed_command_lines_and_csv_files_exit_0_or_2(tmp_path, capsys, monkeypatch, case):
    command, argv, edit = case
    monkeypatch.chdir(tmp_path)  # a mutated --out may name a relative path
    rng = np.random.default_rng(0)
    cli.save_dataset_csv(str(tmp_path / "data.csv"), rng.standard_normal((10, 2)), np.arange(10) % 2)
    cli.save_dataset_csv(str(tmp_path / "data9.csv"), rng.standard_normal((3, 9)), np.array([0, 1, 0]))
    cli.save_network(skip_net(), str(tmp_path / "skip.json"))
    (tmp_path / "quad.csv").write_text("x,f\n" + "".join(f"{v!r},{v * v!r}\n" for v in np.linspace(-1, 1, 9).tolist()))
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("data", "data9", "quad")}
    paths |= {"tmp": str(tmp_path), "skip": str(tmp_path / "skip.json")}
    if edit is not None:
        target = tmp_path / f"{_CSV_OF[command]}.csv"
        target.write_text(edited_csv(target.read_text(), edit))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        [line] = err.splitlines()
        assert line.startswith("error: ")


# --- per-command flags ------------------------------------------------------------

# the option strings (and positionals) each subcommand accepts
COMMAND_FLAGS = {
    "gen-data": {"--out", "--seed"},
    "train": {"--net", "--data", "--out", "--seed", "--epochs", "--lr", "--batch",
              "--gamma", "--lambda", "--beta", "--mode"},
    "eval": {"--net", "--data", "--out", "--seed"},
    "decompose": {"--net", "--data", "--out", "--seed", "--layer", "--k"},
    "templates": {"--net", "--data", "--out", "--seed", "--k"},
    "partition": {"--net", "--out", "--seed", "--layer", "--bounds", "--resolution"},
    "stats": {"--net", "--data", "--out", "--seed", "--layer"},
    "nn": {"query", "--net", "--data", "--out", "--seed", "--layer", "--k"},
    "norms": {"--net", "--data", "--out", "--seed", "--k"},
    "ensemble": {"--net", "--data", "--out", "--seed", "--k"},
    "splinefit": {"--data", "--out", "--seed", "--k"},
    "act-table": {"--net", "--out", "--mode", "--beta", "--bounds", "--resolution"},
}


def test_each_command_declares_only_the_flags_it_reads():
    parser = cli._build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: {s for a in sub._actions if not isinstance(a, argparse._HelpAction)
               for s in (a.option_strings or [a.dest])}
        for name, sub in commands.choices.items()
    }
    assert flags == COMMAND_FLAGS
    assert sum(len(f) for f in flags.values()) == 66
    assert set(flags) == set(cli._COMMANDS)


TRAIN_DEFAULTS = dict(batch=128, gamma=0.0, lam=0.0, beta="0.5", mode="hard")
ACT_DEFAULTS = dict(net=None, out=None, mode="relu", beta=[0.5], bounds=[-10.0, 10.0], resolution=2001)


@pytest.mark.parametrize("line, values", [
    # demos/cli_pipeline.sh
    ("gen-data --out demo_out/toy.csv --seed 0", dict(out="demo_out/toy.csv", seed=0)),
    ("train --net mlp:2-45-3-4 --data demo_out/toy.csv --out demo_out/net.json --epochs 20 --lr 0.01 --seed 3",
     dict(TRAIN_DEFAULTS, net="mlp:2-45-3-4", data="demo_out/toy.csv", out="demo_out/net.json",
          epochs=20, lr=0.01, seed=3)),
    ("eval --net demo_out/net.json --data demo_out/toy.csv",
     dict(net="demo_out/net.json", data="demo_out/toy.csv", out=None, seed=0)),
    ("decompose --net demo_out/net.json --data demo_out/toy.csv --k 5 --out demo_out/affine.csv",
     dict(net="demo_out/net.json", data="demo_out/toy.csv", out="demo_out/affine.csv", seed=0,
          layer=None, k=5)),
    ("templates --net demo_out/net.json --data demo_out/toy.csv --k 5 --out demo_out/templates.csv",
     dict(net="demo_out/net.json", data="demo_out/toy.csv", out="demo_out/templates.csv", seed=0, k=5)),
    ("partition --net demo_out/net.json --bounds=-2,2 --resolution 61 --out demo_out/partition.csv",
     dict(net="demo_out/net.json", out="demo_out/partition.csv", seed=0, layer=None,
          bounds=[-2.0, 2.0], resolution=[61])),
    ("stats --net demo_out/net.json --data demo_out/toy.csv --out demo_out/stats.csv",
     dict(net="demo_out/net.json", data="demo_out/toy.csv", out="demo_out/stats.csv", seed=0, layer=None)),
    ("nn 10 --net demo_out/net.json --data demo_out/toy.csv --k 5 --out demo_out/nn.csv",
     dict(query=10, net="demo_out/net.json", data="demo_out/toy.csv", out="demo_out/nn.csv", seed=0,
          layer=None, k=5)),
    ("norms --net demo_out/net.json --data demo_out/toy.csv",
     dict(net="demo_out/net.json", data="demo_out/toy.csv", out=None, seed=0, k=0)),
    ("act-table --beta 0.25,0.5,0.75 --out demo_out/act.csv",
     dict(ACT_DEFAULTS, beta=[0.25, 0.5, 0.75], out="demo_out/act.csv")),
    ("splinefit --data demo_out/quad.csv --k 8 --out demo_out/pieces.csv",
     dict(data="demo_out/quad.csv", out="demo_out/pieces.csv", seed=0, k=[8])),
    ("splinefit --data demo_out/quad.csv --k 2,4,8,16,32 --out demo_out/decay.csv",
     dict(data="demo_out/quad.csv", out="demo_out/decay.csv", seed=0, k=[2, 4, 8, 16, 32])),
    # the cli-pipeline benchmark workload
    ("gen-data --out cli/toy.csv --seed 9", dict(out="cli/toy.csv", seed=9)),
    ("train --net mlp:2-45-3-4 --data cli/toy.csv --out cli/net.json --epochs 2 --lr 0.01 --seed 9",
     dict(TRAIN_DEFAULTS, net="mlp:2-45-3-4", data="cli/toy.csv", out="cli/net.json",
          epochs=2, lr=0.01, seed=9)),
    ("splinefit --data cli/bowl.csv --k 4,8,16,32 --out cli/decay2.csv",
     dict(data="cli/bowl.csv", out="cli/decay2.csv", seed=0, k=[4, 8, 16, 32])),
    ("splinefit --data cli/quad.csv --k 3 --out cli/pieces.csv",
     dict(data="cli/quad.csv", out="cli/pieces.csv", seed=0, k=[3])),
    ("partition --net cli/net.json --bounds=-2,2 --resolution 43 --layer 2 --out cli/partition.csv",
     dict(net="cli/net.json", out="cli/partition.csv", seed=0, layer=2, bounds=[-2.0, 2.0], resolution=[43])),
    ("decompose --net cli/net.json --data cli/toy-12000.csv --k 117 --out cli/affine.csv",
     dict(net="cli/net.json", data="cli/toy-12000.csv", out="cli/affine.csv", seed=0, layer=None, k=117)),
    ("templates --net cli/net.json --data cli/toy-12000.csv --k 117 --out cli/templates.csv",
     dict(net="cli/net.json", data="cli/toy-12000.csv", out="cli/templates.csv", seed=0, k=117)),
    ("norms --net cli/net.json --data cli/toy-12000.csv --k 117 --out cli/norms.csv",
     dict(net="cli/net.json", data="cli/toy-12000.csv", out="cli/norms.csv", seed=0, k=117)),
    ("eval --net cli/net.json --data cli/toy-10000.csv --out cli/eval.csv",
     dict(net="cli/net.json", data="cli/toy-10000.csv", out="cli/eval.csv", seed=0)),
    ("nn 117 --net cli/net.json --data cli/toy-10000.csv --k 5 --out cli/nn.csv",
     dict(query=117, net="cli/net.json", data="cli/toy-10000.csv", out="cli/nn.csv", seed=0, layer=None, k=5)),
    ("stats --net cli/net.json --data cli/toy-10000.csv --out cli/stats.csv",
     dict(net="cli/net.json", data="cli/toy-10000.csv", out="cli/stats.csv", seed=0, layer=None)),
    ("act-table --mode abs --beta 0.25,0.5,0.75 --resolution 1001 --out cli/act.csv",
     dict(ACT_DEFAULTS, mode="abs", beta=[0.25, 0.5, 0.75], resolution=1001, out="cli/act.csv")),
    ("act-table --beta 0.5 --resolution 11 --out cli/warm.csv",
     dict(ACT_DEFAULTS, resolution=11, out="cli/warm.csv")),
])
def test_pipeline_command_lines_parse(line, values):
    argv = line.split()
    assert vars(cli._build_parser().parse_args(argv)) == dict(values, command=argv[0])


def test_parser_is_built_once_per_process_and_keeps_its_list_defaults(tmp_path):
    cli._build_parser.cache_clear()
    act = ["act-table", "--out", str(tmp_path / "act.csv")]
    part = ["partition", "--net", "mlp:2-4-2", "--bounds=-1,1", "--out", str(tmp_path / "part.csv")]
    assert cli.main(act) == 0 and cli.main(part) == 0
    first = (tmp_path / "act.csv").read_text()
    assert cli.main(act) == 0 and (tmp_path / "act.csv").read_text() == first
    assert cli._build_parser.cache_info().misses == 1
    parser = cli._build_parser()
    assert parser.parse_args(act).beta == [0.5] and parser.parse_args(act).bounds == [-10.0, 10.0]
    assert parser.parse_args(part).resolution == [101]


# --- training pipeline ------------------------------------------------------------

def test_train_eval_decompose_pipeline(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    blob_csv(data)
    net_path = tmp_path / "net.json"
    code = cli.main([
        "train", "--net", "mlp:2-8-2", "--data", str(data), "--out", str(net_path),
        "--epochs", "30", "--lr", "0.05", "--seed", "1",
    ])
    assert code == 0
    hist_path = str(net_path) + ".history.csv"
    header, rows = read_csv(hist_path)
    assert header == ["epoch", "loss", "accuracy", "template_penalty", "filter_penalty"]
    assert len(rows) == 30
    # separable blobs train to perfect accuracy quickly
    assert float(rows[-1][2]) == 1.0

    assert cli.main(["eval", "--net", str(net_path), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "accuracy=1.0000" in out

    dec_path = tmp_path / "dec.csv"
    assert cli.main(["decompose", "--net", str(net_path), "--data", str(data),
                     "--out", str(dec_path), "--k", "3"]) == 0
    header, rows = read_csv(str(dec_path))
    assert header == ["a1", "a2", "b"]
    A = np.array([[float(c) for c in r[:2]] for r in rows])
    b = np.array([float(r[2]) for r in rows])
    net = cli.load_network(str(net_path))
    X, _ = cli.load_dataset_csv(str(data))
    logits, _ = L.network_forward(net, X[3])
    assert np.max(np.abs(A @ X[3] + b - logits)) < 1e-9


def test_templates_command(tmp_path):
    data = tmp_path / "blobs.csv"
    X, _ = blob_csv(data)
    out = tmp_path / "t.csv"
    assert cli.main(["templates", "--net", "mlp:2-6-2", "--data", str(data),
                     "--out", str(out), "--k", "0"]) == 0
    header, rows = read_csv(str(out))
    assert header == ["t1", "t2", "bias"]
    assert len(rows) == 2  # one template per class


def test_partition_stats_nn_commands(tmp_path, capsys):
    data = tmp_path / "blobs.csv"
    blob_csv(data)
    part = tmp_path / "part.csv"
    assert cli.main(["partition", "--net", "mlp:2-5-2", "--bounds=-3,3",
                     "--resolution", "9", "--out", str(part)]) == 0
    header, rows = read_csv(str(part))
    assert header == ["x1", "x2", "code_id"]
    assert len(rows) == 81

    stats = tmp_path / "stats.csv"
    assert cli.main(["stats", "--net", "mlp:2-5-2", "--data", str(data),
                     "--out", str(stats)]) == 0
    header, rows = read_csv(str(stats))
    counts = [int(r[1]) for r in rows]
    assert sum(counts) == 60
    assert counts == sorted(counts, reverse=True)

    nn = tmp_path / "nn.csv"
    assert cli.main(["nn", "4", "--net", "mlp:2-5-2", "--data", str(data),
                     "--k", "3", "--out", str(nn)]) == 0
    header, rows = read_csv(str(nn))
    assert header == ["rank", "index", "vq_distance"]
    assert len(rows) == 3
    assert all(int(r[1]) != 4 for r in rows)


def test_eval_runs_one_dataset_forward(tmp_path, capsys, forward_calls):
    data = tmp_path / "blobs.csv"
    X, y = blob_csv(data, n=60)
    net = L.make_mlp([2, 5, 2], seed=0)
    out = tmp_path / "eval.csv"
    assert cli.main(["eval", "--net", "mlp:2-5-2", "--data", str(data), "--out", str(out)]) == 0
    # the loss and the accuracy come from one forward over the dataset
    assert forward_calls == [(60, len(net.layers))]
    loss, acc = learn.evaluate(net, X, y)
    assert capsys.readouterr().out == f"loss={loss:.6f} accuracy={acc:.4f} on 60 points\n"
    header, rows = read_csv(str(out))
    assert header == ["loss", "accuracy", "points"]
    assert [[float(v) for v in row] for row in rows] == [[loss, acc, 60.0]]


def test_nn_runs_one_dataset_forward(tmp_path, forward_calls):
    data = tmp_path / "blobs.csv"
    blob_csv(data, n=60)
    X, _ = cli.load_dataset_csv(str(data))
    net = L.make_mlp([2, 5, 2], seed=0)
    # the full net, then a prefix holding no selector units (distance 0.0);
    # each forward stops at the prefix's last selector: the relu, or none
    for prefix, stop in ((len(net.layers), 2), (1, 0)):
        forward_calls.clear()
        out = tmp_path / "nn.csv"
        assert cli.main(["nn", "4", "--net", "mlp:2-5-2", "--data", str(data),
                         "--k", "3", "--layer", str(prefix), "--out", str(out)]) == 0
        # one dataset-wide forward for the ranking, then one of the query and
        # its neighbours
        assert sorted(forward_calls) == [(4, stop), (60, stop)]
        query = partition.layer_codes_batch(net, X[[4]], prefix)[0]
        _, rows = read_csv(str(out))
        for _, index, dist in rows:
            code = partition.layer_codes_batch(net, X[[int(index)]], prefix)[0]
            assert float(dist) == partition.vq_distance(code, query)


def test_norms_command(tmp_path):
    data = tmp_path / "blobs.csv"
    blob_csv(data)
    out = tmp_path / "n.csv"
    assert cli.main(["norms", "--net", "mlp:2-5-3-2", "--data", str(data),
                     "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["depth", "frobenius_norm"]
    assert len(rows) == 4  # depths 1..L-1 for the 5-layer chain


def test_ensemble_command(tmp_path, capsys, rng):
    net = skip_net()
    net_path = tmp_path / "skip.json"
    cli.save_network(net, str(net_path))
    data = tmp_path / "d9.csv"
    X = rng.standard_normal((5, 9))
    cli.save_dataset_csv(str(data), X, np.zeros(5, dtype=np.int64))
    out = tmp_path / "terms.csv"
    assert cli.main(["ensemble", "--net", str(net_path), "--data", str(data),
                     "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "4 terms" in msg  # 2 blocks expand to 2^2 path products
    dev = float(msg.split("deviation")[1].strip())
    assert dev < 1e-9
    _, rows = read_csv(str(out))
    assert len(rows) == 4


def test_splinefit_single_and_curve(tmp_path, capsys):
    data = tmp_path / "quad.csv"
    x = np.linspace(-1, 1, 401)
    data.write_text("x,f\n" + "".join(f"{float(v)!r},{float(v * v)!r}\n" for v in x))
    out = tmp_path / "pieces.csv"
    assert cli.main(["splinefit", "--data", str(data), "--k", "8",
                     "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["slope1", "offset"]
    assert len(rows) == 8

    curve_out = tmp_path / "curve.csv"
    assert cli.main(["splinefit", "--data", str(data), "--k", "2,4,8",
                     "--out", str(curve_out)]) == 0
    msg = capsys.readouterr().out
    assert "slope" in msg
    header, rows = read_csv(str(curve_out))
    assert header == ["R", "sup_error"]
    errs = [float(r[1]) for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_splinefit_requires_budget(tmp_path, capsys):
    data = tmp_path / "quad.csv"
    data.write_text("0.0,0.0\n1.0,1.0\n0.5,0.25\n")
    assert cli.main(["splinefit", "--data", str(data)]) == 2
    assert "--k" in capsys.readouterr().err


# --- activation tables ---------------------------------------------------------------

def test_act_table_file_and_values(tmp_path):
    out = tmp_path / "act.csv"
    assert cli.main(["act-table", "--beta", "0.25,0.5", "--bounds=-3,3",
                     "--resolution", "11", "--out", str(out)]) == 0
    header, rows = read_csv(str(out))
    assert header == ["u", "beta", "hard_value", "soft_value", "beta_value"]
    assert len(rows) == 22
    for r in rows:
        u, beta, hard, soft, bv = (float(c) for c in r)
        assert hard == max(u, 0.0)  # default table is relu
        if beta == 0.5:
            assert abs(bv - soft) < 1e-12


def test_act_table_abs_kind(capsys):
    assert cli.main(["act-table", "--mode", "abs", "--bounds=-1,1",
                     "--resolution", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "u,beta,hard_value,soft_value,beta_value"
    first = [float(c) for c in out[1].split(",")]
    assert first[2] == 1.0  # |-1|


def test_act_table_custom_maso(tmp_path):
    doc = {"A": [[[1.0], [0.5]]], "B": [[0.0, 0.25]]}
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "act.csv"
    assert cli.main(["act-table", "--net", str(p), "--bounds=0,2",
                     "--resolution", "3", "--out", str(out)]) == 0
    _, rows = read_csv(str(out))
    # at u=0 the second piece wins: 0.5*0 + 0.25
    assert float(rows[0][2]) == 0.25


def test_act_table_rows_match_per_input_maso_functions():
    rng = np.random.default_rng(11)
    p = MasoParams(rng.standard_normal((1, 4, 1)), rng.standard_normal((1, 4)))
    betas = [1e-9, 0.3, 0.5, 0.8, 1 - 1e-9]
    grid = np.concatenate([np.linspace(-4.0, 4.0, 201), [0.0, -0.0, 5e-324, -1e-310]])
    columns = cli.emit_activation_table(p, betas, grid)
    assert [len(c) for c in columns] == [grid.size * len(betas)] * 5
    for i, row in enumerate(zip(*(c.tolist() for c in columns))):
        z = grid[i // len(betas)][None]
        b = betas[i % len(betas)]
        hard, _ = forward(p, z)
        soft, _ = forward(p, z, 0.5)
        bv, _ = forward(p, z, b)
        assert repr(row) == repr((float(z[0]), b, float(hard[0]), float(soft[0]), float(bv[0])))


def test_act_table_scores_past_float64_exit_2(tmp_path, capsys):
    # eta = beta / (1 - beta) near 1e12 scales scores of 1e300 past the range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["act-table", "--bounds=-1e300,1e300", "--resolution", "3",
                         "--beta", "0.999999999999"]) == 2
        assert "beta 0.999999999999" in capsys.readouterr().err
        # the same scores under a moderate beta are in range
        assert cli.main(["act-table", "--bounds=-1e300,1e300", "--resolution", "3", "--beta", "0.25"]) == 0
        # scores of both signs near the limit: their softmax shift overflows
        # at the soft column's beta 1/2 although each scaled score fits
        p = tmp_path / "wide.json"
        p.write_text(json.dumps({"A": [[[10.0], [-10.0]]], "B": [[0.0, 0.0]]}))
        assert cli.main(["act-table", "--net", str(p), "--bounds=-1e307,1e307",
                         "--resolution", "3", "--beta", "0.25"]) == 2
    assert "beta 0.5" in capsys.readouterr().err


def test_act_table_bounds_wider_than_float64_exit_2(capsys):
    # hi - lo overflows: the grid's spacing is not a float64
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["act-table", "--bounds=-1e308,1e308", "--resolution", "3"]) == 2
    assert "wider than the float64 range" in capsys.readouterr().err


def test_partition_bounds_wider_than_float64_exit_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["partition", "--net", "mlp:2-4-2", "--bounds=-1e308,1e308",
                         "--resolution", "3"]) == 2
    assert "wider than the float64 range" in capsys.readouterr().err


def test_act_table_rejects_unknown_kind(capsys):
    assert cli.main(["act-table", "--mode", "tanh"]) == 2
    assert cli.main(["act-table", "--beta", "1.5"]) == 2
