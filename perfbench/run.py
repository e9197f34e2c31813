"""Run one masonet benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the end-to-end metrics are measured with tracing off; with
--trace 1 the per-layer metrics come from traced passes.  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A run record (and,
when traced, the spans) is written under .perfbench/out/.

The package is imported from src/ next to this directory; without it the
run exits with code 1 and prints no result.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def _import_package():
    try:
        import masonet
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import masonet from {ROOT / 'src'}: {exc}")
    if not Path(masonet.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: masonet was imported from {masonet.__file__}, not from {ROOT / 'src'}")
    return masonet


def main(argv=None) -> int:
    import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import harness

    import_s = time.perf_counter() - T0
    module = importlib.import_module("workloads." + args.workload.replace("-", "_"))
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl, setup_times = harness.build(module, args.seed, workdir)
        setup_s = import_s + statistics.median(setup_times)
        problems = []
        if args.trace:
            from spans import Tracer

            tracer = Tracer(spec.MODULES)
            tally, metrics, problems = harness.traced_passes(wl, tracer)
            units = dict(spec.per_layer())
            tracer.save(harness.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            tally = harness.timed_phase(wl, args.seconds)
            metrics = harness.end_to_end(tally, setup_s)
            units = {n: u for n, u, _, _ in spec.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        problems.append(f"metric set does not match spec: {sorted(set(metrics) ^ set(units))}")
    correct = tally.failed == 0 and not problems
    record = {
        "workload": args.workload,
        "why": spec.WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes,
        "notes": wl.notes,
        "machine": harness.machine(),
        "git": harness.git_info(),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "ops": harness.op_summary(tally),
        "failures": tally.failures,
        "problems": problems,
        "metrics": metrics,
    }
    path = harness.write_record(f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    for msg in tally.failures + problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(tally.latencies)} ops, "
          f"{tally.failed} failed; record {path}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')}")
    result = {
        "correct": correct,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items() if n in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
