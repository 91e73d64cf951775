"""Spans and counters recorded from outside driftchain, around its public calls.

A :class:`Tracer` replaces a public function in every driftchain module that
refers to it, so calls made by the package itself (``stats.verify`` calling
``replicate_final``) are caught as well as calls made by the benchmark.  Each
span records its name, start, end and the span that was open when it began.
Calls that happen once per table row or per replicate (``law_band``,
``increment_law``, ``replicate_rng``) go into counters instead of spans, so
the span list stays small on long runs.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from driftchain import chain, cli, exact, models, stats, theory

MODULES = {"chain": chain, "cli": cli, "exact": exact, "models": models,
           "stats": stats, "theory": theory}

# The boundary the end-to-end metrics need even in an untraced run: the
# replicate_final array is checked, and its wall time gives updates_per_s.
PROBE_CALLS = ("chain.replicate_final",)

# Every public call into a layer that the workloads reach.
TRACED_CALLS = (
    "cli.build_model",
    "theory.model_clt_params",
    "chain.replicate_final",
    "exact.moment_of",
    "exact.exact_moments12",
    "stats.verify",
    "stats.standardize",
    "stats.check_moments",
    "stats.ks_distance",
    "stats.build_report",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


class _TimedGenerator:
    """Stands in for a replicate's generator and times the uniforms it draws."""

    def __init__(self, gen, counters: Counter):
        self._gen = gen
        self._counters = counters

    def random(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._gen.random(*args, **kwargs)
        self._counters["chain.replicate_rng_s"] += time.perf_counter() - t0
        return out


class Tracer:
    """In-memory spans and counters for one pass of a workload."""

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.results: dict[str, object] = {}  # last return value of each probe
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if name == "cli.build_model":
                out = self.counted_model(out)
            if name in PROBE_CALLS:
                self.results[name] = out
            return out
        return traced

    def _timed_rng(self, fn: Callable) -> Callable:
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            gen = fn(*args, **kwargs)
            self.counters["chain.replicate_rng_s"] += time.perf_counter() - t0
            return _TimedGenerator(gen, self.counters)
        return timed

    @contextmanager
    def patched(self):
        """Install the wrappers in every driftchain module; undo them on exit."""
        names = TRACED_CALLS if self.full else PROBE_CALLS
        replaced = []
        for qualified in names:
            layer, attr = qualified.split(".")
            original = getattr(MODULES[layer], attr)
            replaced.append((original, self.wrap(qualified, original)))
        if self.full:
            replaced.append((chain.replicate_rng, self._timed_rng(chain.replicate_rng)))
        saved = []
        try:
            for original, wrapper in replaced:
                for module in MODULES.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def counted_model(self, model):
        """The same model with ``law_band`` and ``increment_law`` counted."""
        counters = self.counters
        band, law = model.law_band, model.increment_law

        def counted_law(state):
            counters["models.increment_law_calls"] += 1
            return law(state)

        if band is None:
            return dataclasses.replace(model, increment_law=counted_law)

        def counted_band(n, lo, hi):
            t0 = time.perf_counter()
            out = band(n, lo, hi)
            counters["models.law_band_s"] += time.perf_counter() - t0
            counters["models.law_band_calls"] += 1
            counters["models.law_band_rows"] += hi - lo + 1
            return out

        return dataclasses.replace(model, law_band=counted_band,
                                   increment_law=counted_law)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """(calls, total seconds, self seconds) per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = {}
        for s, c in zip(self.spans, child):
            entry = out.setdefault(s.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s.end - s.start
            entry[2] += s.end - s.start - c
        return {name: tuple(v) for name, v in out.items()}

    def seconds(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)
