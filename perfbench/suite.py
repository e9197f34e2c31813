"""Run every workload, check count repeatability, and measure run-to-run spread.

    python3 perfbench/suite.py --all [--seed N]
        Each workload in its own process: one untraced run and two traced
        runs at the same seed.  Prints every metric by name with its unit,
        fails if any count differs between the two traced runs, and
        rewrites BENCHMARK.json from perfbench/spec.py.

    python3 perfbench/suite.py --spread --seeds 1-10 [--workloads a,b]
        Untraced runs, one per seed; prints each end-to-end metric's median
        and interquartile range as a share of the median, beside its bound.

Results are also written as JSON under .perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

RUN = [sys.executable, str(Path(__file__).resolve().parent / "run.py")]


def run_one(workload: str, seed: int, trace: int) -> dict:
    argv = RUN + ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=spec.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _counts(result: dict) -> dict:
    return {n: m["value"] for n, m in result["metrics"].items() if m["unit"] in ("count", "bytes")}


def run_all(seed: int) -> int:
    ok = True
    summary = {}
    for w in spec.WORKLOADS:
        e2e = run_one(w, seed, 0)
        traced = [run_one(w, seed, 1) for _ in range(2)]
        repeat = _counts(traced[0]) == _counts(traced[1])
        good = e2e["correct"] and all(t["correct"] for t in traced) and repeat
        ok &= good
        summary[w] = {"end_to_end": e2e, "traced": traced[0], "counts_repeat": repeat}
        print(f"\n== {w}: correct={good} attempted={e2e['attempted']} failed={e2e['failed']} "
              f"counts repeat across runs={repeat}")
        for name, m in e2e["metrics"].items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
        shares = {n.split(".")[0]: m["value"] for n, m in traced[0]["metrics"].items()
                  if n.endswith(".self_share") and m["value"] > 0}
        print("  self-time share by module: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        for n in ("trace.overhead_s", "trace.uncovered_share"):
            m = traced[0]["metrics"][n]
            print(f"  {n:40s} {m['value']:14.6g} {m['unit']}")
    out = spec.ROOT / ".perfbench" / "out" / f"suite-seed{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    spec.write_benchmark_json()
    print(f"\nall correct: {ok}; summary {out}; BENCHMARK.json rewritten")
    return 0 if ok else 1


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_spread(workloads: list[str], seeds: list[int]) -> int:
    bounds = {n: (u, b) for n, u, _, b in spec.END_TO_END}
    report = {}
    worst_ok = True
    for w in workloads:
        values: dict[str, list] = {n: [] for n in bounds}
        for s in seeds:
            r = run_one(w, s, 0)
            if not r["correct"]:
                print(f"{w} seed {s}: incorrect result {r}", file=sys.stderr)
                worst_ok = False
            for n in bounds:
                values[n].append(r["metrics"][n]["value"])
        print(f"\n== {w} ({len(seeds)} seeds)")
        report[w] = {}
        for n, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            unit, bound = bounds[n]
            flag = "" if spread < bound / 3 or n == "setup_s" else "  <-- above bound/3"
            worst_ok &= spread <= bound or n == "setup_s"
            print(f"  {n:14s} median {med:12.6g} {unit:6s} spread {spread:7.2%}  bound {bound:.0%}{flag}")
            report[w][n] = {"values": vals, "median": med, "spread": spread, "bound": bound}
    out = spec.ROOT / ".perfbench" / "out" / f"spread-{seeds[0]}-{seeds[-1]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nreport {out}")
    return 0 if worst_ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--spread", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    args = p.parse_args(argv)
    if args.all:
        return run_all(args.seed)
    return run_spread(args.workloads.split(","), _seeds(args.seeds))


if __name__ == "__main__":
    sys.exit(main())
