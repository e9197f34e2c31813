"""Timed phase, traced passes, metrics and the run record.

A workload is a fixed list of ops (one pass) built from the seed, and an
optional prologue that runs once before the passes.  A pass is cut into
windows of `window` consecutive ops; every window of a workload has the
same op mix.  The timed phase runs the prologue, then whole windows, pass
after pass, timing each op alone, until `seconds` have gone by and at
least MIN_OPS ops have run.  So a run lasts about `seconds` however fast
the host is at the moment, and stops only between windows.  Throughput is
the items of the whole timed phase over its op time: on a shared host
whose speed switches between levels about 1.45x apart for seconds to
minutes at a time, the mean over the run averages the levels, where a
median of window rates would pick one.  Each
op's output check runs outside its timer.  The traced run instead makes
three fixed passes over prologue and list, traced, untraced and traced,
so its counts compare across passes and with other runs at the same seed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import spec

MIN_OPS = 100  # so that at least ten op latencies lie beyond p90
SETUP_REPEATS = 5
OUT_DIR = spec.ROOT / ".perfbench" / "out"


@dataclass
class Op:
    """One top-level public call, the items it completes, and its check.

    check(result) returns None when the output is right, else a message.
    """

    name: str
    call: Callable[[], object]
    items: int
    check: Callable[[object], str | None]


@dataclass
class Workload:
    ops: list
    sizes: dict
    notes: dict = field(default_factory=dict)  # recorded, not gated
    prologue: list = field(default_factory=list)  # ops timed once, before the passes
    window: int = 0  # ops per window (a divisor of len(ops)); 0 means one pass

    def windows(self) -> list:
        w = self.window or len(self.ops)
        assert len(self.ops) % w == 0, "a window must divide the pass"
        return [self.ops[i:i + w] for i in range(0, len(self.ops), w)]


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    names: list = field(default_factory=list)
    window_rates: list = field(default_factory=list)  # items per second, per window (recorded)
    items: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def run(self, op: Op, tracer=None) -> float:
        if tracer is not None:
            tracer.op_id = len(self.latencies)
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        self.latencies.append(dt)
        self.names.append(op.name)
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is None:
            self.items += op.items
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{op.name}: {error}")
        return dt


def build(module, seed: int, workdir) -> tuple[Workload, list]:
    """Set the workload up SETUP_REPEATS times; keep the last, time each."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = module.build(seed, workdir)
        times.append(time.perf_counter() - t0)
    return wl, times


def timed_phase(wl: Workload, seconds: float) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for op in wl.prologue:
        tally.run(op)
    while True:
        for ops in wl.windows():
            items = tally.items
            spent = sum(tally.run(op) for op in ops)
            tally.window_rates.append((tally.items - items) / spent)
            if time.perf_counter() >= deadline and len(tally.latencies) >= MIN_OPS:
                return tally


def end_to_end(tally: Tally, setup_s: float) -> dict:
    ms = np.array(tally.latencies) * 1e3
    attempted = len(ms)
    return {
        "setup_s": setup_s,
        "items_per_s": tally.items / float(np.sum(tally.latencies)),
        "op_ms.p50": float(np.percentile(ms, 50)),
        "op_ms.p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - tally.failed) / attempted,
    }


def traced_passes(wl: Workload, tracer) -> tuple[Tally, dict, list]:
    """A traced, an untraced and a traced pass (each with the prologue);
    returns per-layer metrics.

    Calls and counts must agree exactly between the two traced passes;
    any disagreement is returned as a problem.
    """
    tally = Tally()
    passes = []
    for traced in (True, False, True):
        lo = len(tracer)
        tracer.counts.clear()
        if traced:
            tracer.install()
        spent = sum(tally.run(op, tracer if traced else None) for op in wl.prologue + wl.ops)
        tracer.uninstall()
        summary = tracer.summarize(lo, len(tracer)) if traced else {}
        passes.append({"op_s": spent, "counts": dict(tracer.counts), **summary})
    a, base, b = passes
    problems = []
    calls_a = {n: c for n, (c, _) in a["functions"].items()}
    calls_b = {n: c for n, (c, _) in b["functions"].items()}
    if calls_a != calls_b:
        diff = sorted(n for n in set(calls_a) | set(calls_b) if calls_a.get(n) != calls_b.get(n))
        problems.append(f"span calls differ between traced passes: {diff[:5]}")
    counts_a = {**a["counts"], "analysis.forward_recomputes": a["forward_recomputes"]}
    counts_b = {**b["counts"], "analysis.forward_recomputes": b["forward_recomputes"]}
    if counts_a != counts_b:
        problems.append(f"counts differ between traced passes: {counts_a} vs {counts_b}")

    traced_s = (a["op_s"] + b["op_s"]) / 2
    metrics = {}
    for m in spec.MODULES:
        s = (a["modules"].get(m, 0.0) + b["modules"].get(m, 0.0)) / 2
        metrics[f"{m}.self_s"] = s
        metrics[f"{m}.self_share"] = s / traced_s
    for f in spec.REPORTED_FUNCTIONS:
        ca, sa = a["functions"].get(f, (0, 0.0))
        _, sb = b["functions"].get(f, (0, 0.0))
        metrics[f"{f}.calls"] = ca
        metrics[f"{f}.self_s"] = (sa + sb) / 2
    for name, _ in spec.COUNTS:
        metrics[name] = counts_a.get(name, 0)
    metrics["trace.overhead_s"] = traced_s - base["op_s"]
    metrics["trace.uncovered_share"] = 1.0 - (a["covered_s"] + b["covered_s"]) / (2 * traced_s)
    return tally, metrics, problems


# -- run record ---------------------------------------------------------------


def _blas() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_info() -> dict:
    """SHA and dirty flag, only when the benchmark root is a git work tree."""

    def git(*args):
        out = subprocess.run(
            ["git", "-C", str(spec.ROOT), *args], capture_output=True, text=True, timeout=30
        )
        return out.stdout.strip() if out.returncode == 0 else None

    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or os.path.realpath(top) != os.path.realpath(spec.ROOT):
            return {"sha": None, "dirty": None}
        return {"sha": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "python_threads": threading.active_count(),
    }


def write_record(name: str, record: dict) -> str:
    path = OUT_DIR / name
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return str(path)


def op_summary(tally: Tally) -> dict:
    """Latency quantiles overall and the median per op kind, in ms."""
    ms = np.array(tally.latencies) * 1e3
    kinds: dict = {}
    for name, v in zip(tally.names, ms):
        kinds.setdefault(name.split("[")[0], []).append(v)
    return {
        "n": len(ms),
        "window_rates": tally.window_rates,
        "total_s": float(ms.sum() / 1e3),
        "p50_ms": float(np.percentile(ms, 50)),
        "p90_ms": float(np.percentile(ms, 90)),
        "median_ms_by_kind": {k: [len(v), float(np.median(v))] for k, v in kinds.items()},
    }
