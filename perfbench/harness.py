"""One workload run: set up, warm up, time a closed loop, check answers.

Each run happens in its own process (``run.py`` is that process). One
client keeps exactly one query in flight and sends the next query when
the verified reply of the previous one is in: a closed loop.

* One-shot workloads call ``NC().run`` over a fresh ``Middleware`` per
  query -- the library's public entry point, with its default
  dummy-sample planner.
* ``serve-tcp`` runs an ``AsyncQueryServer`` behind a ``TcpQueryService``
  with the default ``ServerConfig`` and talks to it over one loopback
  connection with JSON-lines ``query`` ops. Client and server share the
  process and its event loop; the one query in flight means they never
  compete for it.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import ContextManager, Optional, Union

import numpy as np

from repro import NC, Middleware
from repro.exceptions import ReproError
from repro.service.aio import AsyncQueryServer, serve_tcp
from repro.sources.stats import eq1_cost

from perfbench import tracing
from perfbench.workloads import (
    ONESHOT_FAMILIES,
    SERVE_SCHEMA,
    OneShotInputs,
    OneShotSpec,
    ServeInputs,
    ServeSpec,
    matches_oracle,
    oneshot_inputs,
    serve_inputs,
)

#: Workloads and metrics as ``BENCHMARK.json`` at the repository root
#: declares them: names, units and better-directions live only there.
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

SPECS: dict[str, Union[OneShotSpec, ServeSpec]] = {
    "oneshot-probe": OneShotSpec(name="oneshot-probe", n=1000, m=3),
    "serve-tcp": ServeSpec(name="serve-tcp", n=2000, warmup=4),
}
WORKLOADS = {w["name"]: SPECS[w["name"]] for w in BENCHMARK["workloads"]}

#: name -> unit of every end-to-end metric, in report order.
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
#: name -> unit of every per-layer metric of the traced run.
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: Every run times at least this many queries, so that p90 has ten
#: samples beyond it. ``access_cost_per_query`` averages over the first
#: this many queries of the stream, so it repeats exactly at a seed.
MIN_QUERIES = 100
#: Queries a traced run replays untraced to price the tracing overhead.
TRACE_REFERENCE = 20


@dataclass
class Reply:
    """One timed query as the client saw it."""

    position: int
    latency: float
    ok: bool
    charged_cost: float
    sorted: int = 0
    random: int = 0
    #: charged accesses on predicates the query does not name
    unreferenced: int = 0


def _exact(partial: bool, metadata: dict) -> bool:
    """Neither a partial answer nor one over degraded sources."""
    return not (
        partial
        or metadata.get("partial_reasons")
        or metadata.get("degraded_predicates")
    )


def _root_span(
    tracer: Optional[tracing.Tracer], name: str
) -> ContextManager[object]:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class OneShotInstance:
    """Fresh middleware and a fresh default ``NC`` per query."""

    start = 0

    def __init__(self, inputs: OneShotInputs):
        self.inputs = inputs
        self.cost_model = inputs.spec.cost_model()

    async def send(
        self, position: int, tracer: Optional[tracing.Tracer] = None
    ) -> Reply:
        query = self.inputs.queries[position % len(self.inputs.queries)]
        with _root_span(tracer, "client.query"):
            t0 = time.perf_counter()
            middleware = Middleware.over(
                self.inputs.datasets[query.data],
                self.cost_model,
                no_wild_guesses=True,
            )
            try:
                result = NC().run(middleware, query.fn, query.k)
            except ReproError:
                result = None
            latency = time.perf_counter() - t0
        stats = middleware.stats
        ok = (
            result is not None
            and _exact(result.partial, result.metadata)
            and matches_oracle(result.scores, query.expected)
        )
        return Reply(
            position,
            latency,
            ok,
            stats.total_cost(),
            stats.total_sorted,
            stats.total_random,
        )

    def server_stats(self) -> Optional[dict]:
        return None

    async def close(self) -> None:
        pass


class ServeInstance:
    """An async server behind TCP and one connected client."""

    def __init__(self, inputs: ServeInputs):
        self.inputs = inputs
        self.start = inputs.spec.warmup

    async def open(self) -> "ServeInstance":
        self.server = AsyncQueryServer(
            self.inputs.spec.cost_model(),
            dataset=self.inputs.dataset,
            schema=SERVE_SCHEMA,
        )
        self.service = await serve_tcp(self.server, "127.0.0.1", 0)
        existing = asyncio.all_tasks()
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.service.port
        )
        # One round trip guarantees the server has accepted the
        # connection, so its handler task exists and can be told apart.
        self.writer.write(b'{"op": "stats"}\n')
        await self.writer.drain()
        await self.reader.readline()
        self.handlers = asyncio.all_tasks() - existing
        return self

    async def send(
        self, position: int, tracer: Optional[tracing.Tracer] = None
    ) -> Reply:
        template = self.inputs.template(position % len(self.inputs.stream))
        line = json.dumps({"op": "query", "query": template.text}) + "\n"
        with _root_span(tracer, "service.request"):
            t0 = time.perf_counter()
            self.writer.write(line.encode("utf-8"))
            await self.writer.drain()
            response = json.loads(await self.reader.readline())
            latency = time.perf_counter() - t0
        result = response.get("result")
        if not response.get("ok") or result is None:
            return Reply(position, latency, False, response.get("charged_cost", 0.0))
        ok = _exact(response["partial"], result["metadata"]) and matches_oracle(
            [entry["score"] for entry in result["ranking"]], template.expected
        )
        sorted_counts, random_counts = result["sorted_counts"], result["random_counts"]
        unreferenced = sum(
            sorted_counts[i] + random_counts[i]
            for i in range(len(sorted_counts))
            if i not in template.columns
        )
        return Reply(
            position,
            latency,
            ok,
            response["charged_cost"],
            sum(sorted_counts),
            sum(random_counts),
            unreferenced,
        )

    def server_stats(self) -> Optional[dict]:
        return self.server.stats()

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        # The server's connection handler ends by itself once it reads
        # EOF; let it, before the listener closes under it.
        await asyncio.wait(self.handlers, timeout=5.0)
        await self.service.aclose()


Instance = Union[OneShotInstance, ServeInstance]


class WarmupError(RuntimeError):
    """A warm-up query failed: the run cannot be trusted."""


@dataclass
class Setup:
    """One ready instance and what getting it ready took."""

    instance: Instance
    build_s: float
    warmup_s: float
    warmup: list[Reply]


async def setup(name: str, seed: int) -> Setup:
    """Build one instance and warm it up with the head of its stream."""
    spec = WORKLOADS[name]
    t0 = time.perf_counter()
    instance: Instance
    if isinstance(spec, OneShotSpec):
        instance = OneShotInstance(oneshot_inputs(spec, seed))
        # One k=1 query of every family: first calls of every code path,
        # and the same shape of warm-up work at every seed.
        positions = [
            next(
                i
                for i, q in enumerate(instance.inputs.queries)
                if q.family == family and q.k == 1
            )
            for family in ONESHOT_FAMILIES
        ]
    else:
        instance = await ServeInstance(serve_inputs(spec, seed)).open()
        positions = range(spec.warmup)
    t1 = time.perf_counter()
    warmup = [await instance.send(position) for position in positions]
    t2 = time.perf_counter()
    if not all(reply.ok for reply in warmup):
        await instance.close()
        raise WarmupError(f"{name}: a warm-up query failed")
    return Setup(instance, t1 - t0, t2 - t1, warmup)


async def closed_loop(
    instance: Instance,
    seconds: float,
    min_queries: int,
    tracer: Optional[tracing.Tracer] = None,
) -> tuple[list[Reply], float]:
    """Send queries one at a time until both limits are met."""
    replies: list[Reply] = []
    position = instance.start
    t0 = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.query = position
        replies.append(await instance.send(position, tracer))
        position += 1
        if len(replies) >= min_queries and time.perf_counter() - t0 >= seconds:
            break
    return replies, time.perf_counter() - t0


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    report: str = ""
    tracer: Optional[tracing.Tracer] = None


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    replies: list[Reply], wall: float, setup_s: float, cold: list[Reply]
) -> dict[str, float]:
    """The end-to-end metrics of one timed phase.

    ``cold`` holds the first :data:`MIN_QUERIES` replies of the stream as
    served from a cold start -- a served stream's warm-up included,
    because its queries are the ones that fill the cache the rest replay
    for free.
    """
    latencies = [r.latency * 1e3 for r in replies]
    return {
        "throughput_qps": len(replies) / wall,
        "latency_p50_ms": _pct(latencies, 50),
        "latency_p90_ms": _pct(latencies, 90),
        "access_cost_per_query": _mean([r.charged_cost for r in cold]),
        "success_rate": sum(r.ok for r in replies) / len(replies),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }


async def run(
    name: str, seed: int, seconds: float, trace: bool, import_s: float
) -> RunResult:
    """Set up :data:`SETUPS` times, then measure on the last instance.

    A traced run also keeps the second-to-last instance: it replays the
    first :data:`TRACE_REFERENCE` queries there untraced, which prices
    the tracing overhead against an identically warmed twin.
    """
    setups: list[Setup] = []
    try:
        for _ in range(SETUPS):
            setups.append(await setup(name, seed))
            while len(setups) > (2 if trace else 1):
                await setups.pop(0).instance.close()
        setup_s = import_s + statistics.median(
            s.build_s + s.warmup_s for s in setups
        )
        ready = setups[-1]
        if not trace:
            replies, wall = await closed_loop(ready.instance, seconds, MIN_QUERIES)
            cold = (ready.warmup[: ready.instance.start] + replies)[:MIN_QUERIES]
            return RunResult(
                correct=all(r.ok for r in replies),
                attempted=len(replies),
                failed=sum(not r.ok for r in replies),
                metrics=end_to_end(replies, wall, setup_s, cold),
            )
        reference, ref_wall = await closed_loop(
            setups[0].instance, 0.0, TRACE_REFERENCE
        )
        traced_instance = ready.instance
        before = traced_instance.server_stats()
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            replies, wall = await closed_loop(
                traced_instance, seconds - ref_wall, TRACE_REFERENCE, tracer
            )
        after = traced_instance.server_stats()
        metrics = {
            "setup.import_s": import_s,
            "setup.build_s": statistics.median(s.build_s for s in setups),
            "setup.warmup_s": statistics.median(s.warmup_s for s in setups),
            **layer_metrics(tracer, replies, wall, reference, before, after),
        }
        report = "\n\n".join(
            [
                tracing.format_layer_table(
                    f"{name} seed {seed}",
                    tracing.layer_table(tracer.spans, wall),
                    wall,
                ),
                tracing.format_waterfalls(tracer.spans),
            ]
        )
        everything = reference + replies
        return RunResult(
            correct=all(r.ok for r in everything),
            attempted=len(everything),
            failed=sum(not r.ok for r in everything),
            metrics=metrics,
            report=report,
            tracer=tracer,
        )
    finally:
        for s in setups:
            await s.instance.close()


def _recorded_cost(engine: object) -> float:
    """Eq. 1 cost of everything the engine read, cached reads included."""
    stats = engine.middleware.stats  # type: ignore[attr-defined]
    return stats.total_cost() + eq1_cost(
        stats.cost_model, stats.cached_sorted_counts, stats.cached_random_counts
    )


def _engine_accesses(engine: object) -> int:
    stats = engine.middleware.stats  # type: ignore[attr-defined]
    return stats.total_accesses + stats.total_cached


def layer_metrics(
    tracer: tracing.Tracer,
    replies: list[Reply],
    wall: float,
    reference: list[Reply],
    before: Optional[dict],
    after: Optional[dict],
) -> dict[str, float]:
    """Per-layer metrics of a traced phase, from spans, captures and the
    server's ``stats()`` before and after it (``None`` when unserved)."""
    spans = tracer.spans
    per_query: dict[int, dict[str, float]] = {r.position: {} for r in replies}
    for span in spans:
        if span.query in per_query:
            bucket = per_query[span.query]
            bucket[span.name] = bucket.get(span.name, 0.0) + span.duration

    def times(*names: str) -> list[float]:
        out = []
        for bucket in per_query.values():
            if any(n in bucket for n in names):
                out.append(sum(bucket.get(n, 0.0) for n in names))
        return out

    plans = [
        plan
        for captured in tracer.captured.values()
        for plan in captured.get("plan", [])
    ]
    engines = {
        query: captured["engine"][-1]
        for query, captured in tracer.captured.items()
        if captured.get("engine")
    }
    ratios = []
    for query, captured in tracer.captured.items():
        if captured.get("plan") and query in engines:
            recorded = _recorded_cost(engines[query])
            estimate = captured["plan"][-1].estimated_cost
            if recorded > 0 and estimate is not None:
                ratios.append(estimate / recorded)
    accesses = sum(_engine_accesses(e) for e in engines.values())
    engine_ms = [t * 1e3 for t in times(*tracing.ENGINE_SPANS)]
    plan_ms = [t * 1e3 for t in times(tracing.OPTIMIZER_SPAN)]
    phases = [p.notes.get("phase_seconds", {}) for p in plans]
    charged = sum(r.sorted + r.random for r in replies)
    recorded_total = sum(_recorded_cost(e) for e in engines.values())
    selfs = tracing.self_times(spans)

    def share(*layers: str) -> float:
        return sum(selfs[s.id] for s in spans if s.layer in layers) / wall


    metrics = {
        "query.share": share("query"),
        "optimizer.plan_ms_p50": _pct(plan_ms, 50),
        "optimizer.plan_ms_p90": _pct(plan_ms, 90),
        "optimizer.share": share("optimizer"),
        "optimizer.estimator_runs_per_plan": _mean([p.estimator_runs for p in plans]),
        "optimizer.frontier_runs_per_plan": _mean(
            [p.notes.get("frontier_runs", 0) for p in plans]
        ),
        "optimizer.frontier_fallbacks": float(
            sum(p.notes.get("frontier_fallbacks", 0) for p in plans)
        ),
        "optimizer.sample_k_mean": _mean([p.notes.get("sample_k", 0) for p in plans]),
        "optimizer.est_to_actual_cost_p50": _pct(ratios, 50),
        "core.engine_ms_p50": _pct(engine_ms, 50),
        "core.engine_ms_p90": _pct(engine_ms, 90),
        "core.share": share("core", "runtime"),
        "core.us_per_access": sum(engine_ms) * 1e3 / accesses if accesses else 0.0,
        "core.bound_evals_per_access": (
            tracer.counters["core.bound_evals"] / accesses if accesses else 0.0
        ),
        "runtime.share": share("runtime"),
        "sources.build_ms": _pct([t * 1e3 for t in times("sources.build")], 50),
        "sources.sorted_per_query": _mean([r.sorted for r in replies]),
        "sources.random_per_query": _mean([r.random for r in replies]),
        "sources.unreferenced_share": (
            sum(r.unreferenced for r in replies) / charged if charged else 0.0
        ),
        "cache.charged_share": (
            sum(r.charged_cost for r in replies) / recorded_total
            if recorded_total
            else 0.0
        ),
        # The request span's self time: round trip minus parse, plan,
        # engine and build -- protocol, serialization and the event loop.
        "service.overhead_share": share("service"),
        "trace.overhead_ratio": (
            sum(r.latency for r in replies[:TRACE_REFERENCE])
            / sum(r.latency for r in reference[:TRACE_REFERENCE])
        ),
    }
    for phase in ("schedule", "delta_search", "h_optimization"):
        metrics[f"optimizer.phase_ms.{phase}"] = _mean(
            [p[phase] * 1e3 for p in phases if phase in p]
        )
    served = {
        "cache.hit_rate": 0.0,
        "cache.entries_end": 0.0,
        "cache.evictions": 0.0,
        "service.plan_memory_hit_rate": 0.0,
        "service.failed": 0.0,
        "service.rejected": 0.0,
    }
    if before is not None and after is not None:
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        reuse = 'repro_server_warm_start_total{kind="reuse"}'
        reused = after["metrics"]["counters"].get(reuse, 0.0) - before["metrics"][
            "counters"
        ].get(reuse, 0.0)
        served = {
            "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "cache.entries_end": float(after["cache_entries"]),
            "cache.evictions": float(
                after["cache"]["evictions"] - before["cache"]["evictions"]
            ),
            "service.plan_memory_hit_rate": reused / len(replies),
            "service.failed": float(after["failed"] - before["failed"]),
            "service.rejected": float(after["rejected"] - before["rejected"]),
        }
    metrics.update(served)
    return metrics
