"""In-memory span tracer that wraps gridscreen's layer functions from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every gridscreen module namespace that binds it, so calls made inside the
package (``generate_dataset`` -> ``solve_opf`` -> ``solve_lp``) nest
properly.  ``uninstall`` puts the originals back.  No file of the package is
changed.  Spans stay in a list until the run ends; then the benchmark
derives its metrics from them and writes them out as JSON Lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("netcase", "simplex", "dcopf", "samplegen", "gnn", "pipeline", "cli")

# Private functions that mark a layer boundary the public API does not expose:
# the per-sample draw loop and the batched backward pass.
_PRIVATE = {"samplegen": ("_generate_one",), "gnn": ("_backward_batch",)}
# Methods traced as "Class.method".
_METHODS = {"pipeline": ("ModelPredictor.predict",)}


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _lp_extra(args, kwargs, result):
    lp = args[0]
    return {
        "rows": lp.a_eq.shape[0] + lp.a_ub.shape[0],
        "ub_rows": lp.a_ub.shape[0],
        "status": result.status,
        "iters": result.iterations,
        "phase1": result.diagnostics.get("phase1_iterations", result.iterations),
    }


# Per-function facts recorded with the span: (args, kwargs, result) -> dict.
_EXTRA = {
    "solve_lp": _lp_extra,
    "build_opf": lambda a, k, r: {"monitored": len(a[2] if len(a) > 2 else k["monitored"])},
    "check_limits": lambda a, k, r: {"violated": int(r.flags.sum())},
    "generate_dataset": lambda a, k, r: {"samples": len(r.samples), "redraws": r.redraws},
    "write_dataset": lambda a, k, r: {"bytes": _size(a[1]), "samples": len(a[0].samples)},
    "read_dataset": lambda a, k, r: {"bytes": _size(a[0])},
    "save_model": lambda a, k, r: {"bytes": _size(a[1])},
    "_backward_batch": lambda a, k, r: {"batch": int(a[1].shape[0])},
    "train": lambda a, k, r: {"epochs": len(r.history)},
    "evaluate": lambda a, k, r: {
        "samples": r.num_samples,
        "false_neg": r.false_neg,
        "monitored": sum(row["n_monitored"] for row in r.per_sample),
        "time_pct": r.time_pct,
    },
}


class Span:
    __slots__ = ("idx", "name", "layer", "start", "end", "parent", "tag", "extra")

    def __init__(self, idx, name, layer, parent, tag):
        self.idx, self.name, self.layer, self.parent, self.tag = idx, name, layer, parent, tag
        self.start = self.end = 0.0
        self.extra = None

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


class Tracer:
    """Records spans (name, layer, start, end, parent, tag) for wrapped calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.tag = ""
        self._patches = self._plan()

    # -- patching -------------------------------------------------------
    def _wrap(self, fn, name, layer):
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                try:
                    span.extra = extra(args, kwargs, result)
                except Exception:  # a changed signature loses the facts, not the call
                    span.extra = None
            return result

        return traced

    def _plan(self):
        """(namespace, attribute, original, wrapper) for every binding to replace."""
        modules = {layer: importlib.import_module(f"gridscreen.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("gridscreen"), *modules.values()]
        wrappers = {}
        patches = []
        for layer, mod in modules.items():
            names = [n for n, obj in vars(mod).items()
                     if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                     and not n.startswith("_")]
            names += [n for n in _PRIVATE.get(layer, ()) if hasattr(mod, n)]
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, name, layer))
            for qual in _METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    fn = vars(cls)[meth]
                    patches.append((cls, meth, fn, self._wrap(fn, qual, layer)))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    patches.append((ns, attr, obj, wrappers[id(obj)][1]))
        return patches

    def install(self):
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)

    # -- benchmark-side spans ----------------------------------------------
    def _open(self, name, layer) -> Span:
        span = Span(len(self.spans), name, layer, self._stack[-1] if self._stack else -1, self.tag)
        self.spans.append(span)
        self._stack.append(span.idx)
        return span

    def begin(self, name: str) -> Span:
        """Open a benchmark span (layer "bench") that library spans nest under."""
        span = self._open(name, "bench")
        span.start = time.perf_counter()
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    # -- analysis -------------------------------------------------------
    def children(self) -> list[list[int]]:
        kids = [[] for _ in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                kids[s.parent].append(s.idx)
        return kids

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor (parents precede children)."""
        roots = []
        for s in self.spans:
            roots.append(s.idx if s.parent < 0 else roots[s.parent])
        return roots

    def self_ms(self, kids) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        return [s.ms - sum(self.spans[c].ms for c in kids[s.idx]) for s in self.spans]

    def write_jsonl(self, path):
        """One JSON object per span; times in ms from the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.idx, "parent": s.parent, "name": s.name, "layer": s.layer, "tag": s.tag,
                    "start_ms": 1e3 * (s.start - t0), "ms": s.ms, "extra": s.extra,
                }) + "\n")
