"""In-process tracing of countstrat's public functions, from outside the package.

``Tracer.install`` replaces each traced function in every countstrat module
that holds a reference to it (``tuning.optimal_partition``,
``sampling.locate_bin``, ``cli.select_gamma`` and so on), so calls are seen
wherever the calling module looks the name up. Functions called once per
record are only counted and timed in aggregate, which bounds memory; all
others record a span with its name, start, end, parent and workload.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# one span per call
SPANNED = (
    ("counts", "ingest_counts"),
    ("counts", "build_histogram"),
    ("counts", "smooth"),
    ("tuning", "select_gamma"),
    ("tuning", "split_records"),
    ("tuning", "held_out_log_likelihood"),
    ("stratify", "optimal_partition"),
    ("sampling", "assign_bins"),
    ("sampling", "plan_epoch_rr"),
    ("sampling", "plan_epoch_rs"),
    ("evaluate", "parse_predictions"),
    ("evaluate", "evaluate"),
    ("jsonfmt", "dumps"),
    ("jsonfmt", "loads"),
    ("synth", "fit_toy_regressor"),
)

# called once per record: counts and summed time only
AGGREGATED = (
    ("stratify", "locate_bin"),
    ("loss", "routed_bin_loss"),
    ("loss", "routed_bin_loss_subgradient"),
)


def _attrs(name: str, args: tuple, result) -> dict:
    if name == "counts.ingest_counts":
        return {"records": len(result)}
    if name == "stratify.optimal_partition":
        freqs = np.asarray(args[0].freqs)
        return {"cells": int(np.count_nonzero(freqs)), "mass": int(freqs.sum()), "bins": result.n_bins}
    if name in ("sampling.plan_epoch_rr", "sampling.plan_epoch_rs"):
        return {"draws": args[0].total, "bins": len(args[0].by_bin)}
    if name == "jsonfmt.dumps":
        return {"bytes": len(result.encode("utf-8"))}
    return {}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    workload: str
    end: float = 0.0
    agg_child_s: float = 0.0  # time inside aggregated calls made directly from this span
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and per-function aggregates of one workload, kept in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.aggs: dict[str, list] = {}  # name -> [calls, seconds]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one CLI call."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent, self.workload))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx].attrs = _attrs(name, args, result)
            return result

        return wrapper

    def _aggregated(self, name: str, fn):
        agg = self.aggs.setdefault(name, [0, 0.0])
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]].agg_child_s += dt

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a countstrat module binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "countstrat" or n.startswith("countstrat.")]
        for targets, make in ((SPANNED, self._spanned), (AGGREGATED, self._aggregated)):
            for mod, fn_name in targets:
                fn = getattr(sys.modules[f"countstrat.{mod}"], fn_name)
                wrapper = make(f"{mod}.{fn_name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, attr, fn))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    # -- derived figures -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.dur for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Span time minus the time of its child spans and aggregated calls."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.dur
        return sum(s.dur - child[i] - s.agg_child_s for i, s in enumerate(self.spans) if s.name == name)

    def agg(self, name: str) -> tuple[int, float]:
        calls, secs = self.aggs.get(name, (0, 0.0))
        return calls, secs

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "workload": s.workload,
                    "agg_child_s": s.agg_child_s,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            "aggregates": {k: {"calls": c, "seconds": t} for k, (c, t) in self.aggs.items()},
        }
