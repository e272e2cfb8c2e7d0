"""Spans and counters recorded from outside the program under test.

The traced run wraps public functions of each layer (see :data:`HOOKS`)
for the duration of its timed phase and restores the originals
afterwards, so no program file carries instrumentation and untraced runs
never execute a wrapper. Spans are kept in memory and written out when
the run ends.

Parent links come from one tracer-wide stack. That is sound here because
the benchmark keeps exactly one query in flight: while a served query
runs, every other coroutine on the loop is parked on a read, so spans
never interleave.

Calls made while an ``optimizer.plan`` span is open are not recorded: the
estimator replays the engine on its sample, and that work belongs to the
optimizer, not to the engine layer it happens to call.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterator, Optional

import repro.query.compiler as compiler_module
from repro.core.framework import FrameworkNC
from repro.core.state import ScoreState
from repro.optimizer.optimizer import NCOptimizer
from repro.runtime.engine import AsyncExecutor
from repro.service import server as server_module
from repro.sources.cache import SourceCache
from repro.sources.middleware import Middleware

#: Span names are ``<layer>.<operation>``; the layer is what the report
#: groups by.
OPTIMIZER_SPAN = "optimizer.plan"
#: The SR/G engine: sync one-shot runs and the async served runs.
ENGINE_SPANS = ("core.engine", "runtime.engine")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Tracer:
    """In-memory span store, hot-call counters and per-query captures."""

    spans: list[Span] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    #: query id -> what the hooks saw (plans, engine middleware)
    captured: dict[int, dict[str, Any]] = field(default_factory=dict)
    query: Optional[int] = None
    _stack: list[int] = field(default_factory=list)
    _in_optimizer: int = 0

    @property
    def suppressed(self) -> bool:
        return self._in_optimizer > 0

    def _open(self, name: str) -> Span:
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=self._stack[-1] if self._stack else None,
            query=self.query,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        if name == OPTIMIZER_SPAN:
            self._in_optimizer += 1
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name == OPTIMIZER_SPAN:
            self._in_optimizer -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def capture(self, key: str, value: Any) -> None:
        if self.query is not None:
            self.captured.setdefault(self.query, {}).setdefault(key, []).append(
                value
            )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def _span_hook(tracer: Tracer, name: str, fn: Callable) -> Callable:
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            if tracer.suppressed:
                return await fn(*args, **kwargs)
            with tracer.span(name):
                result = await fn(*args, **kwargs)
            if name in ENGINE_SPANS:
                tracer.capture("engine", args[0])
            return result

        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.suppressed:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if name in ENGINE_SPANS:
            tracer.capture("engine", args[0])
        return result

    return wrapper


def _plan_hook(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Span around planning; turns on the optimizer's phase clock."""

    @functools.wraps(fn)
    def wrapper(self: NCOptimizer, *args: Any, **kwargs: Any) -> Any:
        clock = self.clock
        if clock is None:
            self.clock = time.perf_counter
        try:
            with tracer.span(name):
                plan = fn(self, *args, **kwargs)
        finally:
            self.clock = clock
        tracer.capture("plan", plan)
        return plan

    return wrapper


def _count_hook(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Counter only: hot calls (one per bound evaluation) get no span."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.suppressed:
            tracer.counters[name] += 1
        return fn(*args, **kwargs)

    return wrapper


#: (owner, attribute, span or counter name, hook factory)
HOOKS: tuple[tuple[Any, str, str, Callable], ...] = (
    (server_module, "parse_query", "query.parse", _span_hook),
    (compiler_module, "compile_expression", "query.compile", _span_hook),
    (NCOptimizer, "plan", OPTIMIZER_SPAN, _plan_hook),
    (FrameworkNC, "run", "core.engine", _span_hook),
    (AsyncExecutor, "run_async", "runtime.engine", _span_hook),
    (Middleware, "over", "sources.build", _span_hook),
    (Middleware, "warm", "sources.build", _span_hook),
    (SourceCache, "over", "sources.build", _span_hook),
    (ScoreState, "upper_bound", "core.bound_evals", _count_hook),
)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every hook for the duration of the block, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, factory in HOOKS:
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            saved.append((owner, attr, original))
            fn = original.__func__ if isinstance(original, classmethod) else original
            hooked = factory(tracer, name, fn)
            setattr(
                owner,
                attr,
                classmethod(hooked) if isinstance(original, classmethod) else hooked,
            )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child_time: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {s.id: s.duration - child_time[s.id] for s in spans}


@dataclass
class LayerStats:
    """One row of the per-layer table (the shape of a ``StatsTracker``)."""

    name: str
    count: int = 0
    total: float = 0.0
    self_time: float = 0.0


def layer_table(spans: list[Span], wall: float) -> list[LayerStats]:
    """Per span name: count, total and self time; sorted by self time.

    An ``(outside spans)`` row holds the wall time no root span covers
    (the closed loop's own bookkeeping and the oracle check).
    """
    selfs = self_times(spans)
    rows: dict[str, LayerStats] = {}
    for span in spans:
        row = rows.setdefault(span.name, LayerStats(span.name))
        row.count += 1
        row.total += span.duration
        row.self_time += selfs[span.id]
    covered = sum(s.duration for s in spans if s.parent is None)
    rows["(outside spans)"] = LayerStats(
        "(outside spans)", 0, wall - covered, wall - covered
    )
    return sorted(rows.values(), key=lambda r: r.self_time, reverse=True)


def format_layer_table(title: str, rows: list[LayerStats], wall: float) -> str:
    lines = [
        f"== {title}: per-layer time, sorted by self time (wall {wall:.2f} s) ==",
        f"{'span':<20} {'count':>7} {'total_ms':>11} {'self_ms':>11} {'share':>7}",
    ]
    for row in rows:
        share = row.self_time / wall if wall > 0 else 0.0
        lines.append(
            f"{row.name:<20} {row.count:>7} {row.total * 1e3:>11.1f} "
            f"{row.self_time * 1e3:>11.1f} {share:>6.1%}"
        )
    return "\n".join(lines)


def format_waterfalls(spans: list[Span], slowest: int = 5, width: int = 40) -> str:
    """Per-query span waterfalls of the slowest queries, slowest first."""
    roots = sorted(
        (s for s in spans if s.parent is None),
        key=lambda s: s.duration,
        reverse=True,
    )[:slowest]
    by_query: dict[Optional[int], list[Span]] = {}
    for span in spans:
        by_query.setdefault(span.query, []).append(span)
    depth: dict[int, int] = {}
    lines = [f"== waterfalls of the {len(roots)} slowest queries =="]
    for root in roots:
        lines.append(f"query {root.query}: {root.duration * 1e3:.1f} ms")
        scale = width / root.duration if root.duration > 0 else 0.0
        for span in sorted(by_query.get(root.query, []), key=lambda s: s.start):
            depth[span.id] = 0 if span.parent is None else depth.get(span.parent, 0) + 1
            offset = int((span.start - root.start) * scale)
            bar = max(1, int(span.duration * scale))
            lines.append(
                f"  {'  ' * depth[span.id]}{span.name:<{22 - 2 * depth[span.id]}}"
                f" {(span.start - root.start) * 1e3:>8.1f} +{span.duration * 1e3:>8.1f} ms"
                f" |{' ' * offset}{'#' * bar}"
            )
    return "\n".join(lines)
