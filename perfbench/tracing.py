"""Span tracing for the traced run.

The tracer wraps the package's public functions at every name their callers
look up (a module attribute, or a method on `SbmGraph`), records one span
per call (name, start, end, parent span), and keeps the spans in memory
until the run ends.  A span's self time is its duration minus that of its
direct children, so the self times of all spans sum to the root span
(`experiment.run_experiment`), whose own self time covers its own code:
validation, prediction glue and report writing.

Wrapped calls also feed a few counts taken from return values, and the
calls whose outputs the benchmark checks are kept, with the report row that
made them, for `checks.check_traced_calls`.  Timed runs install no wrappers.
"""

from __future__ import annotations

import functools
import time

LAYERS = (
    "graphs.sample_sbm",
    "graphs.SbmGraph",
    "graphs.subgraph",
    "functionals.w_value",
    "functionals.w_star_solve",
    "functionals.near_optimal_integer_system",
    "kernels.exact_coloring",
    "kernels.best_weighted_independent_set",
    "chromatic.exact_chromatic",
    "chromatic.dsatur_colouring",
    "chromatic.balanced_extraction_colouring",
    "chromatic.find_balanced_independent_set",
    "chromatic.alpha_h",
    "experiment.run_experiment",
)

COUNTS = (
    "graphs.sample_sbm.edges",
    "functionals.w_star_solve.searched",
    "kernels.best_weighted_independent_set.nodes",
    "chromatic.find_balanced_independent_set.found",
)

# Methods of SbmGraph are patched on the class; the span for construction
# wraps __init__ so that every caller is covered.
_METHODS = {"graphs.SbmGraph": "__init__", "graphs.subgraph": "subgraph"}

# Calls whose arguments and results the output checks need.
CHECKED = frozenset({
    "kernels.exact_coloring",
    "chromatic.exact_chromatic",
    "chromatic.dsatur_colouring",
    "chromatic.balanced_extraction_colouring",
    "chromatic.alpha_h",
    "functionals.w_star_solve",
    "functionals.near_optimal_integer_system",
})

_SHORTCUT_METHODS = ("pseudodefinite-shortcut", "empty")


class Tracer:
    """Installs the wrappers, records spans, and undoes the patching."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock               # seconds; spans read only this
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.calls: list[tuple] = []     # (name, row, args, kwargs, result)
        self.row = None                  # (point, replicate) being measured
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # --- patching -----------------------------------------------------------

    def install(self) -> None:
        import sbmchroma
        from sbmchroma import (chromatic, cli, experiment, functionals, graphs,
                               kernels, predictions)

        # every namespace that may hold a reference to a wrapped function
        modules = (sbmchroma, chromatic, cli, experiment, functionals, graphs,
                   kernels, predictions)
        for name in LAYERS:
            module_name, attr = name.split(".")
            if name in _METHODS:
                owner, attr = graphs.SbmGraph, _METHODS[name]
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(getattr(sbmchroma, module_name), attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)
        # Row attribution only, no span: tells the checks which report row
        # a checked call belongs to.
        measure_row = experiment._measure_row

        @functools.wraps(measure_row)
        def attributed(cfg, point_idx, replicate, *rest):
            self.row = (point_idx, replicate)
            try:
                return measure_row(cfg, point_idx, replicate, *rest)
            finally:
                self.row = None

        self._patch(experiment, "_measure_row", attributed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        observe = self._observer(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return traced

    def _observer(self, name: str):
        counts, calls = self.counts, self.calls

        def keep(args, kwargs, out):
            calls.append((name, self.row, args, kwargs, out))

        if name == "graphs.sample_sbm":
            def observe(args, kwargs, out):
                counts["graphs.sample_sbm.edges"] += out.m
        elif name == "functionals.w_star_solve":
            def observe(args, kwargs, out):
                if out.method not in _SHORTCUT_METHODS:
                    counts["functionals.w_star_solve.searched"] += 1
                keep(args, kwargs, out)
        elif name == "kernels.best_weighted_independent_set":
            def observe(args, kwargs, out):
                counts["kernels.best_weighted_independent_set.nodes"] += out[3]
        elif name == "chromatic.find_balanced_independent_set":
            def observe(args, kwargs, out):
                if out is not None:
                    counts["chromatic.find_balanced_independent_set.found"] += 1
        elif name in CHECKED:
            observe = keep
        else:
            observe = None
        return observe

    # --- results ------------------------------------------------------------

    def layer_times(self) -> dict:
        """{layer: (calls, total_s, self_s)} over every recorded span."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in LAYERS}
        for (name, start, end, _), inner in zip(self.spans, child):
            acc = out[name]
            acc[0] += 1
            acc[1] += end - start
            acc[2] += (end - start) - inner
        return {name: tuple(acc) for name, acc in out.items()}

    def root_seconds(self) -> float:
        roots = [end - start for _, start, end, parent in self.spans
                 if parent < 0]
        if len(roots) != 1:
            raise RuntimeError(f"expected one root span, got {len(roots)}")
        return roots[0]
