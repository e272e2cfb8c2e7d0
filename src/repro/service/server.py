"""The multi-query server: sessions, admission control, warm middlewares.

One :class:`QueryServer` owns the shared cross-query state of a source
pool -- the :class:`~repro.sources.cache.SourceCache`, one shared circuit
breaker per source channel, and the cumulative access clock those breakers
live on -- and serves a stream of top-k query sessions against it. Each
session gets its own *warm* :class:`~repro.sources.middleware.Middleware`
(:meth:`Middleware.warm <repro.sources.middleware.Middleware.warm>`):
cache hits replay at zero charged cost, only frontier accesses pay, and
Eq. 1 keeps metering exactly what reaches a web source.

The execution model is deliberately deterministic: sessions are admitted
up to ``max_in_flight`` open at once, queued, and *executed in submission
order* when their results are demanded (or :meth:`run_pending` is
called). Parallelism lives where the paper puts it -- inside a query, via
the bounded-concurrency :class:`~repro.parallel.ParallelExecutor`
(``query_concurrency > 1``) -- so a serve run replays bit-for-bit under a
fixed seed (session ids come from :func:`repro.determinism.derive_rng`,
never from OS entropy).

Per-session cost budgets ride the graceful-degradation path of
docs/FAULTS.md: with ``degrade_on_budget`` (the server default) an
exhausted budget yields a flagged ``partial`` bound-only answer instead
of an exception, mirroring how dead sources degrade.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.algorithms.nc import NC
from repro.contracts import ContractChecker
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.determinism import SeedLike, derive_rng
from repro.exceptions import ReproError, ServiceOverloadError
from repro.faults.breaker import BreakerPolicy, breakers_for, degraded_predicates
from repro.faults.retry import RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.optimizer.replan import (
    REPLAN_MODES,
    ReplanConfig,
    ReplanController,
    plan_fingerprint,
)
from repro.optimizer.sampling import dummy_uniform_sample
from repro.parallel.executor import ParallelExecutor
from repro.query.ast import ParsedQuery, QueryError
from repro.query.compiler import compile_expression
from repro.query.parser import parse_query
from repro.sources.cache import SourceCache
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from repro.sources.monitor import CostMonitor
from repro.types import QueryResult


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one :class:`QueryServer`.

    Attributes:
        max_in_flight: admission bound -- sessions open at once (submitted
            and not yet retrieved). Submissions beyond it raise
            :class:`~repro.exceptions.ServiceOverloadError`.
        query_concurrency: accesses issued concurrently *within* one
            query; ``1`` runs the sequential NC engine, larger values the
            bounded-concurrency executor (Section 9.1.1).
        speculation: the parallel executor's speculation mode (``"none"``
            or ``"eager"``); ignored at concurrency 1.
        default_budget: per-session cost cap applied when a submission
            names none; ``None`` leaves those sessions unbounded.
        degrade_on_budget: how an exhausted session budget surfaces --
            ``True`` (server default) degrades to a flagged bound-only
            partial answer; ``False`` fails the session loudly.
        cache_ttl: idle ticks before a cached predicate expires (one tick
            per completed query); ``None`` disables expiry.
        cache_max_entries: bound on cached records, LRU-evicted at tick
            boundaries; ``None`` disables the bound.
        seed: root of the server's private RNG (session-id suffixes);
            any :data:`~repro.determinism.SeedLike`.
        contracts: runtime contract checking, forwarded to every
            session's middleware (:mod:`repro.contracts`).
        retry_policy: retry/backoff/timeout for flaky sources, forwarded
            to every session's middleware.
        breaker_policy: tuning of the server-wide shared circuit
            breakers (library default when ``None``).
        sample_size: planning sample size of the per-query optimizer.
        plan_memory: whether the server remembers winning SR/G plans per
            ``(expression, k)``. An exact repeat reuses the remembered
            plan verbatim (planning cost drops to a lookup; the answer
            is identical because planning is deterministic); a repeat of
            the expression at a *different* ``k`` warm-starts the
            optimizer's search from the remembered depths. Hits are
            counted in ``stats()["warm_start_hits"]`` and the
            ``repro_server_warm_start_total`` metric.
        concurrent_queries: sessions *executing* at once -- only the
            async server (:class:`repro.service.aio.AsyncQueryServer`)
            honors values above 1; the sync server stays strictly FIFO.
        max_pending: backpressure bound on admitted-but-not-yet-started
            sessions of the async server (beyond it submissions raise
            :class:`~repro.exceptions.ServiceOverloadError`); ``None``
            leaves the pending queue bounded by ``max_in_flight`` alone.
        client_max_open: per-client cap on open sessions enforced by the
            TCP transport; ``None`` disables the per-client cap.
        time_scale: real seconds per unit of virtual access latency in
            the async runtime (:class:`repro.runtime.Pacer`); ``0.0``
            never sleeps and keeps runs deterministic and maximally fast.
        replan: mid-flight adaptive replanning mode
            (:mod:`repro.optimizer.replan`). ``"off"`` (default) runs
            exactly today's engines; ``"drift"`` attaches a
            :class:`~repro.sources.monitor.CostMonitor` to every session
            and re-optimizes ``(Delta, H)`` at engine checkpoints once
            observed source behaviour drifts beyond
            ``replan_config.drift_tolerance``; ``"always"`` re-evaluates
            at every checkpoint. Remembered plans keep warm-starting the
            re-search either way.
        replan_config: full knob set for the controller; its ``mode``
            field is overridden by ``replan`` (the single coarse switch
            transports expose). ``None`` uses :class:`ReplanConfig`
            defaults.
    """

    max_in_flight: int = 8
    query_concurrency: int = 1
    speculation: str = "none"
    default_budget: Optional[float] = None
    degrade_on_budget: bool = True
    cache_ttl: Optional[int] = None
    cache_max_entries: Optional[int] = None
    seed: SeedLike = 0
    contracts: Union[bool, ContractChecker, None] = False
    retry_policy: Optional[RetryPolicy] = None
    breaker_policy: Optional[BreakerPolicy] = None
    sample_size: int = 100
    plan_memory: bool = True
    concurrent_queries: int = 1
    max_pending: Optional[int] = None
    client_max_open: Optional[int] = None
    time_scale: float = 0.0
    replan: str = "off"
    replan_config: Optional[ReplanConfig] = None

    def __post_init__(self) -> None:
        if self.replan not in REPLAN_MODES:
            raise ValueError(
                f"replan must be one of {REPLAN_MODES}, got {self.replan!r}"
            )
        if self.max_in_flight < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.query_concurrency < 1:
            raise ValueError(
                f"query_concurrency must be >= 1, got {self.query_concurrency}"
            )
        if self.concurrent_queries < 1:
            raise ValueError(
                f"concurrent_queries must be >= 1, got {self.concurrent_queries}"
            )
        if self.max_pending is not None and self.max_pending < 0:
            raise ValueError(
                f"max_pending must be >= 0, got {self.max_pending}"
            )
        if self.client_max_open is not None and self.client_max_open < 1:
            raise ValueError(
                f"client_max_open must be >= 1, got {self.client_max_open}"
            )
        if self.time_scale < 0:
            raise ValueError(
                f"time_scale must be >= 0, got {self.time_scale}"
            )
        if self.sample_size < 1:
            raise ValueError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )


@dataclass
class Session:
    """One submitted query's lifecycle record.

    Status flow: ``queued`` -> ``done`` | ``failed`` (the async server
    adds ``running`` in between and ``cancelled`` as a terminal state for
    queries whose client disconnected or cancelled mid-flight). A session
    stays *open* (occupying an admission slot) until its outcome is
    retrieved.
    """

    id: str
    query: ParsedQuery
    text: str
    budget: Optional[float]
    status: str = "queued"
    result: Optional[QueryResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    charged_cost: float = 0.0
    cache_hits: int = 0
    charged_accesses: int = 0
    retrieved: bool = False

    @property
    def open(self) -> bool:
        """Whether the session still occupies an admission slot."""
        return not self.retrieved


class QueryServer:
    """Serves many top-k queries over one shared, metered source pool.

    Args:
        cost_model: per-predicate unit costs, shared by every session.
        cache: a pre-built :class:`SourceCache` to serve from -- the hook
            for custom (e.g. fault-injected) sources. Its ``ttl`` /
            ``max_entries`` settings win over the config's.
        dataset: when no ``cache`` is given, build one over fresh
            simulated sources for this dataset (capabilities derived
            from the cost model).
        schema: predicate names queries refer to, aligned with the
            middleware's predicate order; defaults to ``p0..p{m-1}``.
        config: server tuning; defaults to :class:`ServerConfig`.
        metrics: the :class:`~repro.obs.MetricsRegistry` the whole
            serving stack (middlewares, cache, sessions) feeds; a fresh
            private registry is created when ``None``, so
            :meth:`stats` always carries a metrics snapshot.
        trace: optional :class:`~repro.obs.TraceRecorder` receiving the
            tick-stamped event log of every session's accesses plus
            session start/end markers (``repro serve --trace``).
    """

    def __init__(
        self,
        cost_model: CostModel,
        cache: Optional[SourceCache] = None,
        dataset: Optional[Dataset] = None,
        schema: Optional[Sequence[str]] = None,
        config: Optional[ServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._trace = trace
        if cache is None:
            if dataset is None:
                raise ValueError("pass a dataset or a pre-built cache")
            cache = SourceCache.over(
                dataset,
                cost_model,
                ttl=self.config.cache_ttl,
                max_entries=self.config.cache_max_entries,
                metrics=self.metrics,
                trace=trace,
            )
        elif cache.metrics is None or (trace is not None and cache.trace is None):
            # A user-supplied cache joins the server's shared ledger
            # unless it already reports elsewhere.
            cache.attach_observability(
                metrics=self.metrics if cache.metrics is None else None,
                trace=trace if cache.trace is None else None,
            )
        if cache.m != cost_model.m:
            raise ValueError(
                f"cache covers {cache.m} predicates but cost model "
                f"{cost_model.m}"
            )
        if schema is None:
            schema = [f"p{i}" for i in range(cost_model.m)]
        if len(schema) != cost_model.m:
            raise ValueError(
                f"schema names {len(schema)} predicates but the pool "
                f"serves {cost_model.m}"
            )
        self.cost_model = cost_model
        self.cache = cache
        self.schema = tuple(schema)
        self.breakers = breakers_for(cost_model.m, self.config.breaker_policy)
        self._rng = derive_rng(self.config.seed)
        # The planner joins the server's shared metrics ledger so
        # estimator counters (runs, cache hits, kernel fallbacks)
        # appear in stats() next to the serving-layer ones.
        self._planner = NC(
            sample_size=self.config.sample_size,
            optimizer=NCOptimizer(metrics=self.metrics),
        )
        # Plan memory is keyed by (scenario fingerprint, expression, k):
        # a plan is a pure function of all three, and the fingerprint
        # part is what keeps a remembered (Delta, H) from surviving a
        # dataset reload or source-set change (a plan optimized for the
        # old pool size replays stale depths against the new one).
        self._plan_memory: OrderedDict[
            tuple[tuple, str, int], SRGPlan
        ] = OrderedDict()
        self._plan_epoch = 0
        self._warm_start_hits = 0
        self._replan_sample: Optional[Dataset] = None
        self._replan_outcomes: dict[str, int] = {}
        self._sessions: dict[str, Session] = {}
        self._queue: list[str] = []
        self._counter = 0
        self._clock_base = 0
        self._charged_total = 0.0
        self._rejected = 0
        self._live_middleware: Optional[Middleware] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def open_sessions(self) -> int:
        """Sessions currently occupying admission slots."""
        return sum(1 for s in self._sessions.values() if s.open)

    @property
    def trace(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, if any (docs/OBSERVABILITY.md)."""
        return self._trace

    def current_clock(self) -> int:
        """The live access-count clock the shared breakers run on.

        Completed sessions' charged accesses plus whatever the currently
        executing session (if any) has charged so far. Breaker state is a
        function of this clock; evaluating it anywhere else -- the old
        ``stats()`` used the stale completed-sessions base even when
        called mid-query -- reports cooldowns as still running after they
        have already elapsed.
        """
        if self._live_middleware is not None:
            return (
                self._clock_base
                + self._live_middleware.stats.total_accesses
            )
        return self._clock_base

    def session(self, session_id: str) -> Session:
        """Look up a session record (raises on unknown ids)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise ReproError(f"unknown session {session_id!r}") from None

    def stats(self) -> dict:
        """A JSON-safe snapshot of the server's shared state.

        ``degraded_predicates`` is the shared
        :func:`~repro.faults.breaker.degraded_predicates` helper --
        the same single pass the middleware's method runs -- evaluated
        at the *live* :meth:`current_clock`, so mid-query and
        between-query callers both see breaker state as it is, not as it
        was when the last session closed. ``metrics`` is the unified
        registry snapshot every layer reconciles against
        (docs/OBSERVABILITY.md).
        """
        sessions = self._sessions.values()
        return {
            "schema": list(self.schema),
            "submitted": len(self._sessions),
            "completed": sum(1 for s in sessions if s.status == "done"),
            "failed": sum(1 for s in sessions if s.status == "failed"),
            "queued": len(self._queue),
            "open": self.open_sessions,
            "rejected": self._rejected,
            "charged_cost_total": self._charged_total,
            "charged_accesses_total": self._clock_base,
            "warm_start_hits": self._warm_start_hits,
            "plan_memory_entries": len(self._plan_memory),
            "plan_epoch": self._plan_epoch,
            "replan_mode": self.config.replan,
            "replans": dict(self._replan_outcomes),
            "cache": self.cache.stats.snapshot(),
            "cache_entries": self.cache.entry_count,
            "degraded_predicates": degraded_predicates(
                self.breakers, self.current_clock()
            ),
            "metrics": self.metrics.snapshot(),
        }

    # ------------------------------------------------------------------
    # Dataset / source-set lifecycle
    # ------------------------------------------------------------------

    def reload(
        self,
        dataset: Optional[Dataset] = None,
        cache: Optional[SourceCache] = None,
    ) -> None:
        """Swap the served source pool; remembered plans are invalidated.

        The supported way to point a live server at new data. Exactly one
        of ``dataset`` (fresh simulated sources are built, as in the
        constructor) or ``cache`` (a pre-built pool, e.g. fault-injected)
        must be given. Bumps the plan-memory epoch and drops every
        remembered plan: a ``(Delta, H)`` optimized against the old pool
        must never replay against the new one, even when the pool sizes
        coincide. Open sessions keep the middleware (and cache) they
        were built over; sessions admitted after the reload see the new
        pool.
        """
        if (dataset is None) == (cache is None):
            raise ValueError("pass exactly one of dataset or cache")
        if cache is None:
            assert dataset is not None
            cache = SourceCache.over(
                dataset,
                self.cost_model,
                ttl=self.config.cache_ttl,
                max_entries=self.config.cache_max_entries,
                metrics=self.metrics,
                trace=self._trace,
            )
        elif cache.metrics is None or (
            self._trace is not None and cache.trace is None
        ):
            cache.attach_observability(
                metrics=self.metrics if cache.metrics is None else None,
                trace=self._trace if cache.trace is None else None,
            )
        if cache.m != self.cost_model.m:
            raise ValueError(
                f"cache covers {cache.m} predicates but cost model "
                f"{self.cost_model.m}"
            )
        self.cache = cache  # repro-ownership: event-loop synchronous section
        self._plan_epoch += 1  # repro-ownership: event-loop synchronous section
        self._plan_memory.clear()  # repro-ownership: event-loop synchronous section
        self.metrics.inc("repro_server_reloads_total")
        if self._trace is not None:
            self._trace.emit(
                "reload", self._clock_base, epoch=self._plan_epoch
            )

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------

    def _admit(self, text: str) -> ParsedQuery:
        """Parse, schema-check, and admission-control one submission.

        Malformed submissions fail immediately (and never occupy a
        slot); admission control then bounds the open sessions. Rejected
        work is counted (``repro_overload_rejections_total``) so the
        obs ledger sees the load the server refused, not only the load
        it carried.
        """
        parsed = parse_query(text)
        unknown = [p for p in parsed.predicates if p not in self.schema]
        if unknown:
            raise QueryError(
                f"predicates {unknown} are not in the served schema "
                f"{list(self.schema)}"
            )
        if self.open_sessions >= self.config.max_in_flight:
            self._reject("server", "max_in_flight")
            raise ServiceOverloadError(
                f"{self.open_sessions} sessions already open "
                f"(max_in_flight={self.config.max_in_flight}); retrieve "
                "results before submitting more"
            )
        return parsed

    def _reject(self, scope: str, limit: str) -> None:
        """Count one refused submission into stats and the obs ledger."""
        self._rejected += 1  # repro-ownership: event-loop synchronous section
        self.metrics.inc(
            "repro_overload_rejections_total", scope=scope, limit=limit
        )

    def _new_session(
        self, parsed: ParsedQuery, text: str, budget: Optional[float]
    ) -> Session:
        """Mint the session record and register it (deterministic ids)."""
        self._counter += 1  # repro-ownership: event-loop synchronous section
        session_id = f"q{self._counter:06d}-{self._rng.getrandbits(32):08x}"
        session = Session(
            id=session_id,
            query=parsed,
            text=text,
            budget=budget if budget is not None else self.config.default_budget,
        )
        self._sessions[session_id] = session  # repro-ownership: event-loop synchronous section
        return session

    def submit(self, text: str, budget: Optional[float] = None) -> str:
        """Admit a query session; returns its id."""
        parsed = self._admit(text)
        session = self._new_session(parsed, text, budget)
        self._queue.append(session.id)  # repro-ownership: event-loop synchronous section
        return session.id

    def run_pending(self, until: Optional[str] = None) -> int:
        """Execute queued sessions in submission order; returns how many.

        With ``until``, stops after that session has been executed --
        earlier submissions still run first, preserving the deterministic
        FIFO execution order.
        """
        executed = 0
        while self._queue:
            session_id = self._queue.pop(0)  # repro-ownership: event-loop synchronous section
            self._execute(self._sessions[session_id])
            executed += 1
            if until is not None and session_id == until:
                break
        return executed

    def result(self, session_id: str) -> Session:
        """Force a session to completion and close its admission slot.

        Queued sessions submitted earlier are executed first (FIFO), so
        retrieval order never changes what any query pays or answers.
        """
        session = self.session(session_id)
        if session.status == "queued":
            self.run_pending(until=session_id)
        session.retrieved = True
        return session

    def query(self, text: str, budget: Optional[float] = None) -> Session:
        """Convenience: submit, execute, and retrieve in one call."""
        return self.result(self.submit(text, budget=budget))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _middleware(self, session: Session) -> Middleware:
        # Replanning needs eyes: a per-session CostMonitor observing the
        # sources' reported durations (and breaker refusals) against the
        # assumed cost model. Off mode attaches none -- byte-identity
        # with today's engines extends to the monitor's absence.
        monitor = (
            CostMonitor(self.cost_model)
            if self.config.replan != "off"
            else None
        )
        return Middleware.warm(
            self.cache,
            self.cost_model,
            budget=session.budget,
            retry_policy=self.config.retry_policy,
            contracts=self.config.contracts,
            breakers=self.breakers,
            clock_base=self._clock_base,
            monitor=monitor,
            metrics=self.metrics,
            trace=self._trace,
        )

    #: Bound on remembered winning plans; oldest-used evicted beyond it.
    _PLAN_MEMORY_CAP = 256

    def _scenario_fingerprint(self, middleware: Middleware) -> tuple:
        """What the remembered plans' validity actually depends on.

        Planning is a pure function of the dummy sample (seeded), the
        cost model, the pool size and the wild-guess setting -- *not* of
        live source state. The fingerprint pins exactly those inputs plus
        a reload epoch, so a plan memorized against one source pool can
        never be replayed against a different one: :meth:`reload` bumps
        the epoch, and even a raw ``server.cache`` swap changes
        ``n_objects`` whenever the pool size does.
        """
        return (
            self._plan_epoch,
            middleware.n_objects,
            middleware.m,
            middleware.no_wild_guesses,
            self.cost_model.cs,
            self.cost_model.cr,
            self.config.sample_size,
        )

    def _session_plan(self, middleware: Middleware, fn, session: Session) -> SRGPlan:
        """Resolve the session's SR/G plan, amortizing optimizer work.

        A plan is a pure function of ``(scenario fingerprint, expression,
        k)`` -- planning samples a seeded dummy distribution, never live
        source state. That makes verbatim reuse of a remembered plan
        *exactly* the plan a fresh optimization would return, and
        remembered depths for the same expression at another ``k`` a
        sound warm start (warm starts extend, never replace, the
        search's canonical start points).
        """
        if not self.config.plan_memory:
            return self._planner.resolve_plan(middleware, fn, session.query.k)
        fingerprint = self._scenario_fingerprint(middleware)
        key = (fingerprint, str(session.query.expr), session.query.k)
        plan = self._plan_memory.get(key)
        if plan is not None:
            self._plan_memory.move_to_end(key)  # repro-ownership: event-loop synchronous section
            self._warm_start_hits += 1  # repro-ownership: event-loop synchronous section
            self.metrics.inc("repro_server_warm_start_total", kind="reuse")
            return plan
        warm = [
            remembered.depths
            for (fp_key, expr_key, _k), remembered in self._plan_memory.items()
            if fp_key == fingerprint and expr_key == key[1]
        ]
        if warm:
            self._warm_start_hits += 1  # repro-ownership: event-loop synchronous section
            self.metrics.inc("repro_server_warm_start_total", kind="climb")
            plan = self._planner.resolve_plan(
                middleware, fn, session.query.k, warm_start=warm[-3:]
            )
        else:
            plan = self._planner.resolve_plan(middleware, fn, session.query.k)
        self._plan_memory[key] = plan  # repro-ownership: event-loop synchronous section
        while len(self._plan_memory) > self._PLAN_MEMORY_CAP:
            self._plan_memory.popitem(last=False)  # repro-ownership: event-loop synchronous section
        return plan

    def _replan_controller(
        self, middleware: Middleware, fn, k: int, plan: SRGPlan
    ) -> Optional[ReplanController]:
        """The session's mid-flight replanning controller, if enabled.

        Shares the server's metrics-wired optimizer (re-search estimator
        counters land in :meth:`stats` like initial planning's do) and
        the cached dummy sample all sessions plan on.
        """
        if self.config.replan == "off":
            return None
        config = (
            self.config.replan_config
            if self.config.replan_config is not None
            else ReplanConfig()
        )
        if config.mode != self.config.replan:
            config = replace(config, mode=self.config.replan)
        if self._replan_sample is None:
            self._replan_sample = dummy_uniform_sample(  # repro-ownership: event-loop synchronous section
                middleware.m, self.config.sample_size, self._planner.seed
            )
        return ReplanController(
            self._replan_sample,
            fn,
            k,
            middleware.n_objects,
            self.cost_model,
            initial_plan=plan,
            config=config,
            optimizer=self._planner.optimizer,
            no_wild_guesses=middleware.no_wild_guesses,
        )

    def _engine(self, middleware: Middleware, session: Session) -> FrameworkNC:
        fn, _order = compile_expression(session.query.expr, schema=self.schema)
        plan = self._session_plan(middleware, fn, session)
        policy = SRGPolicy(plan.depths, plan.schedule)
        controller = self._replan_controller(
            middleware, fn, session.query.k, plan
        )
        if self.config.query_concurrency > 1:
            engine: FrameworkNC = ParallelExecutor(
                middleware,
                fn,
                session.query.k,
                policy,
                concurrency=self.config.query_concurrency,
                speculation=self.config.speculation,
                degrade_on_budget=self.config.degrade_on_budget,
                replan=controller,
            )
        else:
            engine = FrameworkNC(
                middleware,
                fn,
                session.query.k,
                policy,
                degrade_on_budget=self.config.degrade_on_budget,
                replan=controller,
            )
        engine.plan_id = plan_fingerprint(plan)
        return engine

    def _start_session(self, session: Session) -> None:
        """Emit the session-start trace marker (at the current clock)."""
        if self._trace is not None:
            self._trace.emit(
                "session",
                self._clock_base,
                session=session.id,
                status="start",
                query=session.text,
            )

    def _complete(self, session: Session, result: QueryResult) -> None:
        """Record a finished query's answer on its session."""
        result.algorithm = "NC-serve"
        result.metadata["session"] = session.id
        result.metadata["query"] = session.text
        session.status = "done"
        session.result = result

    def _finalize(self, session: Session, middleware: Middleware) -> None:
        """Fold one ended session (any terminal status) into shared state.

        Runs whether the query finished, failed, or was cancelled:
        accesses it charged advance the breaker clock, and the eviction
        clock ticks exactly once per ended session. Must execute as one
        synchronous section -- no awaits -- so concurrent sessions under
        the async server never observe a half-folded clock.
        """
        session.charged_cost = middleware.stats.total_cost()
        session.cache_hits = middleware.stats.total_cached
        session.charged_accesses = middleware.stats.total_accesses
        if session.result is not None:
            session.result.metadata["cache_hits"] = session.cache_hits
        self._charged_total += session.charged_cost  # repro-ownership: event-loop synchronous section
        self._clock_base += session.charged_accesses  # repro-ownership: event-loop synchronous section
        self.metrics.inc("repro_sessions_total", status=session.status)
        self.metrics.set_gauge("repro_server_clock", self._clock_base)
        if self._trace is not None:
            self._trace.emit(
                "session",
                self._clock_base,
                session=session.id,
                status=session.status,
                charged_cost=session.charged_cost,
                charged_accesses=session.charged_accesses,
                cache_hits=session.cache_hits,
            )
        self.cache.tick()

    def _fold_replan(self, controller: Optional[ReplanController]) -> None:
        """Aggregate one ended session's replan decisions into stats()."""
        if controller is None:
            return
        for outcome, count in controller.outcomes.items():
            self._replan_outcomes[outcome] = (  # repro-ownership: event-loop synchronous section
                self._replan_outcomes.get(outcome, 0) + count
            )

    def _execute(self, session: Session) -> None:
        middleware = self._middleware(session)
        self._live_middleware = middleware  # repro-ownership: event-loop synchronous section
        self._start_session(session)
        engine: Optional[FrameworkNC] = None
        try:
            engine = self._engine(middleware, session)
            result = engine.run()
        except ReproError as exc:
            session.status = "failed"
            session.error = str(exc)
            session.error_type = type(exc).__name__
        else:
            self._complete(session, result)
        finally:
            self._live_middleware = None  # repro-ownership: event-loop synchronous section
            if engine is not None:
                self._fold_replan(engine.replan)
            self._finalize(session, middleware)
