"""In-memory tracing from outside the program.

A Tracer records a span (id, parent, request, name, start, end) around
each coarse call into a layer and tallies fine-grained calls (holds,
adjacent, sample, resample, occurring) as counts and busy time charged
to the enclosing span, so self time is a span's duration minus what its
children covered.  Everything stays in memory until ``write``.  The
program is never edited: module functions are swapped for wrappers
inside ``patched`` and bundles are wrapped in ``TracedBundle``.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: Spans beyond this many are counted but not kept.
SPAN_CAP = 200_000

FAMILIES = ("permutation", "matching", "tree", "variable", "explicit")

#: Per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.emit_s", "s"),
    ("apps.gen_s", "s"),
    ("apps.build_s", "s"),
    ("apps.events", "count"),
    ("apps.build_mb", "MB"),
    ("apps.occurring_s", "s"),
    ("apps.occurring_calls", "count"),
    ("apps.validate_s", "s"),
    ("engine.self_s", "s"),
    ("engine.resamples", "count"),
    ("engine.iterations", "count"),
    ("engine.holds_calls", "count"),
    ("engine.holds_per_resample", "calls/resample"),
    ("graphs.adjacent_calls", "count"),
    ("graphs.adjacent_s", "s"),
    ("verify.occurring_s", "s"),
    ("verify.resample_s", "s"),
    ("verify.draws_per_sample", "draws/sample"),
    ("polynomials.bound_s", "s"),
    ("polynomials.table_s", "s"),
    ("polynomials.table_sets", "count"),
    ("synth.synthesize_s", "s/event"),
    ("synth.kernel_edges", "count"),
) + tuple(
    (f"oracles.{fam}.{what}", unit)
    for fam in FAMILIES
    for what, unit in (("sample_s", "s"), ("sample_calls", "count"),
                       ("resample_s", "s"), ("resample_calls", "count"))
) + (("trace.overhead_pct", "%"),)


class Tracer:
    """Spans and call tallies of one traced phase (set-up or rounds)."""

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = 0
        self.busy: Counter = Counter()   # name -> seconds (inclusive)
        self.self_s: Counter = Counter()  # span name -> seconds minus children
        self.calls: Counter = Counter()  # name, and "span>name" for fine calls
        self.counts: Counter = Counter()  # other tallies (events, resamples, ...)
        self._stack: list[list] = []  # open: [id, name, start, child_s, child calls]
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [sid, name, perf_counter(), 0.0, Counter()]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - frame[2]
            self.busy[name] += duration
            self.self_s[name] += duration - frame[3]
            self.calls[name] += 1
            for child, count in frame[4].items():
                self.calls[f"{name}>{child}"] += count
            if self._stack:
                self._stack[-1][3] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, self.request, name, frame[2], end))
            else:
                self.dropped += 1

    def wrap_span(self, name: str, fn, after=None):
        """fn run inside a span; after(result) may tally what it returned."""
        def call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return call

    def wrap_call(self, name: str, fn):
        """fn tallied as a fine-grained call of the enclosing span."""
        busy, calls, stack = self.busy, self.calls, self._stack

        def call(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                busy[name] += duration
                calls[name] += 1
                if stack:
                    frame = stack[-1]
                    frame[3] += duration
                    frame[4][name] += 1
        return call

    def build_span(self, name: str, fn, family: str):
        """A builder call in a span, its bundle wrapped for tracing."""
        def call(*args):
            bundle, params = self.wrap_span(name, fn, self.count_events)(*args)
            return TracedBundle(self, bundle, family), params
        return call

    def count_events(self, result) -> None:
        """Tally the events of a builder's (bundle, params) pair."""
        self.counts["apps.events"] += result[0].n

    def count_log(self, result) -> None:
        """Tally resamples and iterations from an engine (state, RunLog) pair."""
        _, log = result
        self.counts["engine.resamples"] += log.total_resamples
        self.counts["engine.iterations"] += len(log.iterations)

    def to_json(self) -> dict:
        return {
            "phase": self.phase,
            "fields": ["id", "parent", "request", "name", "start", "end"],
            "spans": self.spans,
            "dropped": self.dropped,
            "calls": dict(self.calls),
            "busy_s": dict(self.busy),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


class TracedGraph:
    """Dependency graph whose adjacent() calls are tallied."""

    def __init__(self, tracer: Tracer, inner) -> None:
        self._inner = inner
        self.adjacent = tracer.wrap_call("graphs.adjacent", inner.adjacent)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedBundle:
    """Bundle whose sample, holds, resample and occurring calls are tallied.

    family names the oracle family ("appendix-a" for the streak bundle,
    whose oracles live in the verify layer).  occurring is exposed only
    when the wrapped bundle has it, because the engine checks for it.
    """

    def __init__(self, tracer: Tracer, inner, family: str) -> None:
        self._inner = inner
        self.graph = TracedGraph(tracer, inner.graph)
        oracle = "verify" if family == "appendix-a" else f"oracles.{family}"
        self.sample = tracer.wrap_call(f"{oracle}.sample", inner.sample)
        self.holds = tracer.wrap_call("holds", inner.holds)
        self.resample = tracer.wrap_call(f"{oracle}.resample", inner.resample)
        if hasattr(inner, "occurring"):
            layer = "verify" if family == "appendix-a" else "apps"
            self.occurring = tracer.wrap_call(f"{layer}.occurring", inner.occurring)
        if hasattr(inner, "validate_solution"):
            self.validate_solution = tracer.wrap_span(
                "apps.validate", inner.validate_solution)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def patched(replacements):
    """Swap module attributes for the duration: [(module, name, new), ...]."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, new in replacements:
            setattr(module, name, new)
        yield
    finally:
        for module, name, old in saved:
            setattr(module, name, old)


def per_layer(setup: Tracer, rounds: Tracer, n_rounds: int, import_s: float,
              build_mb: float, overhead_pct: float) -> dict[str, float]:
    """Per-layer values: set-up totals plus per-round means of the traced rounds."""
    def total(attr: str, key: str) -> float:
        return getattr(setup, attr)[key] + getattr(rounds, attr)[key] / n_rounds

    holds = total("calls", "engine>holds")
    resamples = total("counts", "engine.resamples")
    draws = sum(total("calls", f"verify.{test}>oracles.{fam}.sample")
                for test in ("r1", "r2") for fam in FAMILIES)
    conditioned = total("counts", "verify.conditioned")
    events = total("counts", "synth.events")
    out = {
        "cli.import_s": import_s,
        "cli.emit_s": total("busy", "cli.emit"),
        "apps.gen_s": total("busy", "apps.gen"),
        "apps.build_s": total("busy", "apps.build"),
        "apps.events": total("counts", "apps.events"),
        "apps.build_mb": build_mb,
        "apps.occurring_s": total("busy", "apps.occurring"),
        "apps.occurring_calls": total("calls", "apps.occurring"),
        "apps.validate_s": total("busy", "apps.validate"),
        "engine.self_s": total("self_s", "engine"),
        "engine.resamples": resamples,
        "engine.iterations": total("counts", "engine.iterations"),
        "engine.holds_calls": holds,
        "engine.holds_per_resample": holds / resamples if resamples else 0.0,
        "graphs.adjacent_calls": total("calls", "graphs.adjacent"),
        "graphs.adjacent_s": total("busy", "graphs.adjacent"),
        "verify.occurring_s": total("busy", "verify.occurring"),
        "verify.resample_s": total("busy", "verify.resample"),
        "verify.draws_per_sample": draws / conditioned if conditioned else 0.0,
        "polynomials.bound_s": total("busy", "polynomials.bound"),
        "polynomials.table_s": total("busy", "polynomials.table"),
        "polynomials.table_sets": total("counts", "polynomials.table_sets"),
        "synth.synthesize_s": (total("busy", "synth.synthesize") / events
                               if events else 0.0),
        "synth.kernel_edges": total("counts", "synth.kernel_edges"),
        "trace.overhead_pct": overhead_pct,
    }
    for fam in FAMILIES:
        for what in ("sample", "resample"):
            out[f"oracles.{fam}.{what}_s"] = total("busy", f"oracles.{fam}.{what}")
            out[f"oracles.{fam}.{what}_calls"] = total("calls", f"oracles.{fam}.{what}")
    return out


def write(path: str, tracers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([t.to_json() for t in tracers], fh)
