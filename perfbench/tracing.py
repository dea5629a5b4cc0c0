"""Outside-in layer tracing: wrap the package's public functions in place.

Nothing inside ``continuum_sums`` knows about tracing.  :func:`install`
replaces module attributes with timing wrappers, so every call that looks a
traced function up through a module namespace records a span.  Calls that go
around a namespace (a private helper calling another private helper, or a
function's recursion into itself) stay inside their caller's span and count as
its self time.

Public functions are wrapped in every package namespace that holds them,
their own module included, so ``grid.dilate`` calling ``dilate_fft`` shows
which route it chose.  Private names are wrapped only where another module
imported them; inside their own module they stay part of the caller's work.
A name that the package no longer defines is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

#: (defining module, function) -> span name.  The span name's first part is
#: the layer.
TARGETS: dict[tuple[str, str], str] = {
    ("grid", "chessboard_distance_transform"): "grid.dt",
    ("grid", "dilate"): "grid.dilate",
    ("grid", "dilate_fft"): "grid.dilate_fft",
    ("grid", "dilate_naive"): "grid.dilate_naive",
    ("grid", "rasterize"): "grid.rasterize",
    ("grid", "connected_components"): "grid.components",
    ("grid", "is_grid_continuum"): "grid.components",
    ("grid", "eps_density_margin"): "grid.margin",
    ("grid", "cube_coverage"): "grid.cube_coverage",
    ("grid", "measure_estimate"): "grid.measure",
    ("affine", "nonflat_certificate"): "affine.certificate",
    ("affine", "flatness_by_projection"): "affine.projection",
    ("affine", "is_nowhere_flat"): "affine.patches",
    ("gallery", "generate"): "gallery.generate",
    ("gallery", "cantor_graph"): "gallery.cantor_graph",
    ("gallery", "dyadic_lines_check"): "gallery.dyadic_lines",
    ("sums", "midpoint_iterate"): "sums.midpoint",
    ("sums", "hl_discrete_check"): "sums.hl_check",
    ("sums", "random_separator_instance"): "sums.random_instance",
    ("sums", "separation_by_search"): "sums.separation_search",
    ("sums", "verify_claim"): "sums.claim",
    ("sums", "claim_measure_chain"): "sums.measure_chain",
    ("sums", "measure_lower_bound_check"): "sums.measure_bound",
    ("verify", "verify_theorem_main"): "verify.theorem_main",
    ("verify", "normalized_sum_raster"): "verify.sum_raster",
    ("verify", "_dilated_sum"): "verify.sum_raster",
    ("verify", "verify_corollary_c1"): "verify.c1",
    ("verify", "verify_example_cantor"): "verify.cantor",
    ("verify", "verify_hl_suite"): "verify.hl_suite",
    ("cli", "main"): "cli.main",
}

MODULES = ("grid", "affine", "gallery", "sums", "verify", "cli")

#: Spans the benchmark records around its own loop.
PASS_SPAN = "bench.pass"
OP_SPAN = "bench.op"


def _cells(value: Any) -> int:
    return int(np.asarray(value).size)


def _grid_cells(result: Any) -> int:
    return int(result.occupancy.size)


#: Span name -> (count name, function of (args, result) giving the count).
COUNTERS: dict[str, tuple[str, Callable[[tuple, Any], int]]] = {
    "grid.dt": ("grid.dt.cells", lambda args, out: _cells(args[0])),
    "grid.dilate": ("grid.dilate.out_cells", lambda args, out: _grid_cells(out)),
    "grid.rasterize": ("grid.rasterize.cells", lambda args, out: _grid_cells(out)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Spans and counts kept in memory until :meth:`write_jsonl`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[str, int, int | None, int | None]] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def count(self, name: str, value: int) -> None:
        span = self._stack[-1] if self._stack else None
        self.counts.append((name, value, span, self.op))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "op": s.op}) + "\n")
            for name, value, span, op in self.counts:
                fh.write(json.dumps({"count": name, "value": value,
                                     "span": span, "op": op}) + "\n")


def _wrap(fn: Callable, name: str, tracer: Tracer) -> Callable:
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(index)
            tracer.count(name + ".calls", 1)
        if counter is not None:
            tracer.count(counter[0], counter[1](args, out))
        return out

    return traced


def install(package: Any, tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every target in every package namespace; returns the undo list."""
    modules = {m: getattr(package, m) for m in MODULES if hasattr(package, m)}
    namespaces = [package, *modules.values()]
    undo: list[tuple[Any, str, Any]] = []
    for (home, attr), name in TARGETS.items():
        module = modules.get(home)
        fn = getattr(module, attr, None) if module is not None else None
        if fn is None:
            continue
        wrapper = _wrap(fn, name, tracer)
        for ns in namespaces:
            if attr.startswith("_") and ns is module:
                continue
            for key, value in list(vars(ns).items()):
                if value is fn:
                    undo.append((ns, key, value))
                    setattr(ns, key, wrapper)
    return undo


def uninstall(undo: Iterable[tuple[Any, str, Any]]) -> None:
    for ns, key, value in undo:
        setattr(ns, key, value)


def pass_profile(tracer: Tracer, root: int) -> tuple[float, dict[str, float], dict[str, int]]:
    """Duration, self time per span name and counts of one pass span.

    Self time is a span's duration minus its children's durations; calls are
    synchronous on one thread, so children never overlap and the self times
    of all spans in the pass add up to the pass duration.
    """
    spans = tracer.spans
    last = root
    while last + 1 < len(spans) and spans[last + 1].start < spans[root].end:
        last += 1
    members = range(root, last + 1)
    child_time = {i: 0.0 for i in members}
    for i in members:
        parent = spans[i].parent
        if i != root and parent in child_time:
            child_time[parent] += spans[i].end - spans[i].start
    self_time: dict[str, float] = {}
    for i in members:
        s = spans[i]
        self_time[s.name] = self_time.get(s.name, 0.0) + (s.end - s.start - child_time[i])
    counts: dict[str, int] = {}
    inside = set(members)
    for name, value, span, _ in tracer.counts:
        if span in inside:
            counts[name] = counts.get(name, 0) + value
    return spans[root].end - spans[root].start, self_time, counts
