"""Outside-in tracing of the masonet package, for the traced run only.

`Tracer.install()` wraps the package's public functions (plus the CLI
command handlers and the partition code-matrix helper, which carry
counters) and rebinds each wrapper at every binding site a caller looks
the function up through: the defining module, every masonet module that
imported it by name, the package namespace and module-level dicts such as
`cli._COMMANDS`.  `uninstall()` puts the originals back.

Each call records a span (name, start, end, parent span, op id) in flat
arrays kept in memory; `save()` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# private helpers traced beside the public API, because a counter needs them
_EXTRA = {"partition": ("_code_matrix",)}
# functions whose span name carries the layer kind of the first argument
_BY_KIND = {"layers.layer_forward_hard", "layers.layer_selected_affine"}
_ANALYSIS_WALKS = ("analysis.decompose", "analysis.class_templates", "analysis.partial_product_norms")


class Tracer:
    def __init__(self, modules):
        self.modules = tuple(modules)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._patches: list[tuple] = []

    # -- span recording -------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, after=None):
        by_kind = name in _BY_KIND
        fixed = self._id(name)
        kinds: dict[type, int] = {}
        stack, start, end = self._stack, self.start, self.end
        name_id, parent, op = self.name_id, self.parent, self.op
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if by_kind:
                cls = type(args[0])
                if cls not in kinds:
                    kinds[cls] = tracer._id(f"{name}.{cls.__name__}")
                name_id.append(kinds[cls])
            else:
                name_id.append(fixed)
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters at layer boundaries -------------------------------------

    def _counter_hooks(self, modname: str, fname: str):
        c = self.counts
        key = f"{modname}.{fname}"
        if key == "layers.conv_to_matrix":
            return lambda a, r: c.update({"layers.conv_to_matrix.bytes": r.shape[0] * r.shape[1] * r.itemsize})
        if key == "layers.network_forward_batch":
            return lambda a, r: c.update({"layers.network_forward_batch.rows": int(np.shape(a[1])[0])})
        if key == "partition._code_matrix":
            return lambda a, r: c.update({"partition.code_bytes": r.shape[0] * r.shape[1] * r.itemsize})
        if key == "partition.grid_scan":
            return lambda a, r: c.update({"partition.regions": len(r[0].entries)})
        if key == "partition.region_stats":
            return lambda a, r: c.update({"partition.regions": int(r["nonempty_count"])})
        return None

    def _wrap_load_csv(self, fn):
        inner = self._wrap("cli.load_dataset_csv", fn)
        counts = self.counts

        @functools.wraps(fn)
        def sized(path, *args, **kwargs):
            counts["cli.load_dataset_csv.bytes"] += os.path.getsize(path)
            return inner(path, *args, **kwargs)

        return sized

    # -- install / uninstall ----------------------------------------------

    def _targets(self):
        for m in self.modules:
            mod = importlib.import_module(f"masonet.{m}")
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            names = list(public) + list(_EXTRA.get(m, ()))
            for fname in names:
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    yield m, fname, fn
            if m == "cli":
                for fn in mod._COMMANDS.values():
                    yield m, fn.__name__, fn

    def install(self) -> None:
        if not self._wrappers:
            for m, fname, fn in self._targets():
                if fname == "load_dataset_csv" and m == "cli":
                    wrapper = self._wrap_load_csv(fn)
                else:
                    wrapper = self._wrap(f"{m}.{fname}", fn, self._counter_hooks(m, fname))
                self._wrappers[id(fn)] = (fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "masonet" and not modname.startswith("masonet."):
                continue
            for key, value in list(vars(mod).items()):
                if id(value) in self._wrappers and self._wrappers[id(value)][0] is value:
                    self._patches.append((vars(mod), key, value))
                    setattr(mod, key, self._wrappers[id(value)][1])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in self._wrappers and self._wrappers[id(v)][0] is v:
                            self._patches.append((value, k, v))
                            value[k] = self._wrappers[id(v)][1]

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    # -- analysis ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        dur = np.array(self.end, dtype=np.float64) - np.array(self.start, dtype=np.float64)
        par = np.array(self.parent, dtype=np.int64)
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=len(dur))
        return dur - child

    def summarize(self, lo: int, hi: int) -> dict:
        """Calls and self time per span name, module totals, and the span
        coverage of spans lo..hi (one pass over the workload's ops)."""
        selfs = self.self_times()[lo:hi]
        ids = np.array(self.name_id, dtype=np.int64)[lo:hi]
        par = np.array(self.parent, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        secs = np.bincount(ids, weights=selfs, minlength=k)
        per_name = {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names) if calls[i]}
        modules: Counter = Counter()
        for n, (_, s) in per_name.items():
            modules[n.split(".")[0]] += s
        start = np.array(self.start, dtype=np.float64)[lo:hi]
        end = np.array(self.end, dtype=np.float64)[lo:hi]
        top = par[lo:hi] < 0
        covered = float(np.sum(end[top] - start[top]))
        return {
            "functions": per_name,
            "modules": dict(modules),
            "covered_s": covered,
            "forward_recomputes": self._recomputes(lo, hi),
        }

    def _recomputes(self, lo: int, hi: int) -> int:
        """layer_forward_hard spans nested inside the analysis walks."""
        walks = {self._ids[n] for n in _ANALYSIS_WALKS if n in self._ids}
        hard = {i for i, n in enumerate(self.names) if n.startswith("layers.layer_forward_hard.")}
        if not walks or not hard:
            return 0
        count = 0
        for i in range(lo, hi):
            if self.name_id[i] not in hard:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] not in walks:
                p = self.parent[p]
            count += p >= 0
        return count

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
        )
