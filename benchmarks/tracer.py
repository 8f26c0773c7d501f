"""Span tracer that wraps afrelay's public functions from outside the package.

`Tracer.install` replaces every public function of the chosen afrelay
modules with a wrapper that records one span per call: name, start, end and
the index of the enclosing span.  A function is rebound under every afrelay
module that imported it (`add_awgn` lives in `afrelay.channel` but is also
bound in `afrelay.relay`), so calls made through any of those names are
seen.  Spans stay in memory until `write_spans`; self time is a span's
duration minus the durations of its direct children.

Besides spans the tracer keeps three counters: constructions of
`afrelay.ofdm.TimeSignal`, `dft`/`idft` calls whose length is not a power
of two (the O(N^2) path), and the process pools `afrelay.harness` creates
with the time spent starting, feeding and shutting them down.  A name a
later version of the package no longer has is skipped, and its metrics
read zero.  Spans recorded inside pool worker processes stay in those
processes and are not collected.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "afrelay"
LAYERS = ("harness", "relay", "channel", "ofdm", "transforms", "analysis", "cli")


def _length(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else len(x)


def _is_pow2(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


class Tracer:
    def __init__(self):
        self.names = []          # span name by id
        self.spans = []          # (name id, start, end, parent span index or -1)
        self.counters = {}
        self._ids = {}
        self._stack = []
        self._patches = []       # (owner, attribute, original value)

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        self.counters["transforms.dense_calls"] = 0
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                on_call = self._count_dense if (layer, attr) in (
                    ("transforms", "dft"), ("transforms", "idft")) else None
                self._rebind(obj, self._wrap(f"{layer}.{attr}", obj, on_call))
        self._count_constructions("ofdm", "TimeSignal")
        self._time_pools()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and zero the counters."""
        self.spans.clear()
        self._stack.clear()
        for key in self.counters:
            self.counters[key] = 0

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def _wrap(self, name: str, fn, on_call=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (nid, start, end, parent)

        return traced

    def _count_dense(self, args) -> None:
        if args and not _is_pow2(_length(args[0])):
            self.counters["transforms.dense_calls"] += 1

    def _count_constructions(self, layer: str, cls_name: str) -> None:
        key = f"{layer}.{cls_name}.constructions"
        self.counters[key] = 0
        cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name, None)
        if cls is None:
            return
        counters, init = self.counters, cls.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            counters[key] += 1
            init(obj, *args, **kwargs)

        self._set(cls, "__init__", counted_init)

    def _time_pools(self) -> None:
        self.counters["harness.pool_starts"] = 0
        self.counters["harness.pool_start_s"] = 0.0
        harness = importlib.import_module(f"{PACKAGE}.harness")
        base = getattr(harness, "ProcessPoolExecutor", None)
        if base is None:
            return
        counters, clock = self.counters, time.perf_counter

        class TimedPool(base):
            """Counts constructions; times construction, submission (which
            starts the worker processes) and shutdown (which joins them)."""

            def __init__(self, *args, **kwargs):
                start = clock()
                super().__init__(*args, **kwargs)
                counters["harness.pool_starts"] += 1
                counters["harness.pool_start_s"] += clock() - start

            def submit(self, *args, **kwargs):
                start = clock()
                try:
                    return super().submit(*args, **kwargs)
                finally:
                    counters["harness.pool_start_s"] += clock() - start

            def shutdown(self, *args, **kwargs):
                start = clock()
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    counters["harness.pool_start_s"] += clock() - start

        self._set(harness, "ProcessPoolExecutor", TimedPool)

    # ------------------------------------------------------------------
    # aggregation

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds and durations."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (nid, start, end, _) in enumerate(spans):
            entry = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0,
                                                     "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            entry["durations"].append(end - start)
        return out

    def top_level_seconds(self, layer: str) -> float:
        """Time inside `layer` spans not nested in another span of the layer."""
        prefix = layer + "."
        total = 0.0
        for nid, start, end, parent in self.spans:
            if not self.names[nid].startswith(prefix):
                continue
            if parent >= 0 and self.names[self.spans[parent][0]].startswith(prefix):
                continue
            total += end - start
        return total

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: index, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")
