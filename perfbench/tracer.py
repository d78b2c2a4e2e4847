"""In-memory tracer installed around the package's public functions.

Nothing under ``src/`` changes: the benchmark swaps module attributes and
class methods for timing wrappers before it calls ``chainmeld.cli.main``.

* Whole-call boundaries (one per op, stage or diagnostic) are *spans*: name,
  start, end and parent span, plus a snapshot of the call counters at both
  ends.
* Per-evaluator boundaries run up to millions of times per op, so they are
  *aggregated*: a call count and a total time per (name, parent) pair.

A name's self time is its total time minus the time its children cover.
Stage one runs its two samplers in threads, so each thread keeps its own
stack and aggregates; a thread with an empty stack hangs off the innermost
span open on the main thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

# Layer of every traced name: the package module that defines it.
LAYER_OF_PREFIX = {
    "cli.": "cli",
    "samplers.": "samplers",
    "chain.": "chain",
    "pooling.": "pooling",
    "gaussian.": "gaussian",
    "builtins.": "builtins",
    "normal_approx.": "normal_approx",
    "diagnostics.": "diagnostics",
}
LAYERS = tuple(LAYER_OF_PREFIX.values())


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX.items():
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_aggs: list[dict] = []
        self._main_stack = self._stack()
        self.points: dict[str, int] = defaultdict(int)

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.agg = defaultdict(lambda: [0, 0.0])
            with self._lock:
                self._thread_aggs.append(self._local.agg)
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        for entry in reversed(self._main_stack):
            if isinstance(entry, int):
                return entry
        return None

    def counts(self) -> dict[str, int]:
        """Calls so far of every aggregated name, summed over threads."""
        out: dict[str, int] = defaultdict(int)
        with self._lock:
            aggs = list(self._thread_aggs)
        for agg in aggs:
            for (name, _), (n, _t) in list(agg.items()):
                out[name] += n
        return dict(out)

    def aggregates(self) -> dict:
        out: dict = defaultdict(lambda: [0, 0.0])
        for agg in self._thread_aggs:
            for key, (n, t) in agg.items():
                out[key][0] += n
                out[key][1] += t
        return dict(out)

    # -- wrappers -----------------------------------------------------------

    def aggregate(self, name: str, fn, points=False):
        """Wrap a hot evaluator: count and total time per (name, parent)."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = self._stack()
            parent = self._parent(stack)
            entry_name = name
            if points:
                x = np.asarray(args[-1])
                if x.ndim > 1:
                    entry_name = name + ".batched"
                    self.points[entry_name] += int(np.prod(x.shape[:-1]))
            stack.append(entry_name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                slot = local.agg[(entry_name, parent)]
                slot[0] += 1
                slot[1] += dt

        return wrapper

    def span(self, name: str, fn, on_enter=None, on_exit=None):
        """Wrap a whole-call boundary.

        ``on_enter(args, kwargs)`` returns a value kept as ``record["enter"]``;
        ``on_exit(record, args, kwargs, result)`` may add fields to the record.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = {"name": name, "parent": self._parent(stack),
                      "counts0": self.counts()}
            if on_enter is not None:
                record["enter"] = on_enter(args, kwargs)
            with self._lock:
                record["id"] = len(self.spans)
                self.spans.append(record)
            stack.append(record["id"])
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
                record["counts1"] = self.counts()
            if on_exit is not None:
                on_exit(record, args, kwargs, result)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[int, float]]:
        """Self time per aggregated name and per span id."""
        aggs = self.aggregates()
        by_name: dict[str, float] = defaultdict(float)
        child_of: dict = defaultdict(float)
        for (name, parent), (_, total) in aggs.items():
            by_name[name] += total
            child_of[parent] += total
        agg_self = {name: by_name[name] - child_of.get(name, 0.0) for name in by_name}
        children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        span_self = {}
        for s in self.spans:
            covered = _union_length(children.get(s["id"], []))
            span_self[s["id"]] = (s["end"] - s["start"]) - covered - child_of.get(s["id"], 0.0)
        return agg_self, span_self


def _union_length(intervals) -> float:
    total = 0.0
    end = -float("inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total
