"""What the benchmark measures: workloads, metric names, units and bounds.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/suite.py --all` rewrites it), so names and units live
in one place.  The runner checks every result it prints against these lists.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN_SECONDS = 25

# name -> one line saying why the workload is in the benchmark
WORKLOADS = {
    "mlp-train": "one-epoch train sweep over regimes, penalties and widths; "
    "learn only, the no-change control for partition, conv and decomposition work",
    "partition-scan": "full and shallow grid_scan, region_stats and nn queries on a trained "
    "2-45-3-4 net; partition and its 250k-row forward dominate",
    "conv-analysis": "conv net with every layer kind: one training epoch with conv "
    "re-lowering, then decompose, templates and norms per input",
    "cli-pipeline": "the demo CLI sequence through cli.main; the only workload that runs "
    "cli CSV parsing, maso activation tables and splinefit",
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_ms.p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ratio", "ratio", "higher", 0.01),
]

MODULES = ("ndcore", "maso", "layers", "learn", "analysis", "partition", "splinefit", "cli")

LAYER_KINDS = ("Dense", "Conv", "Activation", "MaxPool", "AvgPool", "BatchNorm", "SkipBlock")

# functions whose calls and self time are reported one by one
REPORTED_FUNCTIONS = (
    ["ndcore.as_tensor", "layers.network_forward_batch", "layers.conv_to_matrix"]
    + [f"layers.layer_forward_hard.{k}" for k in LAYER_KINDS]
    + [f"layers.layer_selected_affine.{k}" for k in LAYER_KINDS]
    + ["partition.grid_scan", "partition.region_stats", "partition.nearest_neighbors"]
    + ["analysis.decompose", "analysis.class_templates", "analysis.partial_product_norms"]
    + [
        f"learn.{f}"
        for f in (
            "train",
            "backward",
            "forward_loss",
            "adam_step",
            "accuracy",
            "ortho_penalty_templates",
            "ortho_penalty_filters",
        )
    ]
    + ["cli.main", "cli.load_dataset_csv", "cli.load_network", "cli.emit_activation_table"]
    + [f"maso.{f}" for f in ("scores", "forward_hard", "svq_infer", "beta_vq_infer", "forward_with_selection")]
    + ["splinefit.fit_max_affine", "splinefit.sup_error"]
)

# exact counts recorded at layer boundaries (must repeat run to run)
COUNTS = (
    ("layers.conv_to_matrix.bytes", "bytes"),
    ("layers.network_forward_batch.rows", "count"),
    ("partition.code_bytes", "bytes"),
    ("partition.regions", "count"),
    ("analysis.forward_recomputes", "count"),
    ("cli.load_dataset_csv.bytes", "bytes"),
)


def per_layer() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric a traced run reports."""
    out = []
    for m in MODULES:
        out += [(f"{m}.self_s", "s"), (f"{m}.self_share", "ratio")]
    for f in REPORTED_FUNCTIONS:
        out += [(f"{f}.calls", "count"), (f"{f}.self_s", "s")]
    out += list(COUNTS)
    out += [("trace.overhead_s", "s"), ("trace.uncovered_share", "ratio")]
    return out


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        # every per-layer metric is a cost: time, calls or bytes (the region
        # count should not move at all; a change that moves it changed results)
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in per_layer()],
    }


def write_benchmark_json(path: Path = ROOT / "BENCHMARK.json") -> None:
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
