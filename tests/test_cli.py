import argparse
import json
import warnings

import numpy as np
import pytest

from masonet import cli, partition
from masonet import layers as L
from masonet.maso import BetaParam, MasoParams, beta_vq_infer, forward_hard, forward_with_selection, svq_infer
from masonet.ndcore import ValidationError


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


def exit_status(argv):
    """cli.main's exit status, whether returned or raised by argparse."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


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
], ids=" ".join)
def test_bad_values_exit_2(tmp_path, capsys, argv):
    blob_csv(tmp_path / "blobs.csv")
    (tmp_path / "quad.csv").write_text("x,f\n0,0\n1,1\n0.5,0.25\n")
    (tmp_path / "ragged.csv").write_text("x,f\n1,1\n2,4,5\n")
    paths = {"blobs": tmp_path / "blobs.csv", "quad": tmp_path / "quad.csv",
             "ragged": tmp_path / "ragged.csv", "tmp": tmp_path}
    assert exit_status([a.format(**paths) for a in argv]) == 2
    assert "internal error" not in capsys.readouterr().err


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
    doc["layers"][0]["conv"] = L.Dense(np.eye(9), np.zeros(9)).to_json()
    p.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="layer 0"):
        cli.load_network(str(p))
    data = tmp_path / "d9.csv"
    cli.save_dataset_csv(str(data), rng.standard_normal((3, 9)), np.zeros(3, dtype=np.int64))
    assert cli.main(["norms", "--net", str(p), "--data", str(data)]) == 2
    assert "internal error" not in capsys.readouterr().err


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


def test_nn_runs_one_dataset_forward(tmp_path, monkeypatch):
    data = tmp_path / "blobs.csv"
    blob_csv(data, n=60)
    X, _ = cli.load_dataset_csv(str(data))
    net = L.make_mlp([2, 5, 2], seed=0)
    forward = partition._prefix_codes
    # the full net, then a prefix holding no selector units (distance 0.0)
    for prefix in (len(net.layers), 1):
        rows_seen = []
        monkeypatch.setattr(partition, "_prefix_codes",
                            lambda net, Z, p: rows_seen.append(Z.shape[0]) or forward(net, Z, p))
        out = tmp_path / "nn.csv"
        assert cli.main(["nn", "4", "--net", "mlp:2-5-2", "--data", str(data),
                         "--k", "3", "--layer", str(prefix), "--out", str(out)]) == 0
        # one dataset-wide forward for the ranking, then one of the query and its neighbours
        assert sorted(rows_seen) == [4, 60]
        query = partition.layer_code(net, X[4], prefix)
        _, rows = read_csv(str(out))
        for _, index, dist in rows:
            code = partition.layer_code(net, X[int(index)], prefix)
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
    rows = cli.emit_activation_table(p, betas, grid)
    assert len(rows) == grid.size * len(betas)
    for i, row in enumerate(rows):
        z = grid[i // len(betas)][None]
        b = betas[i % len(betas)]
        hard, _ = forward_hard(p, z)
        soft = forward_with_selection(p, z, svq_infer(p, z))
        bv = forward_with_selection(p, z, beta_vq_infer(p, z, BetaParam(b)))
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
