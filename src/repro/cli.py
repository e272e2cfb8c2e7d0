"""Command-line interface: run scenarios, comparisons and ad-hoc queries.

Usage (also via ``python -m repro``)::

    python -m repro scenarios
        List the built-in evaluation scenarios.

    python -m repro compare --scenario S2 [--algorithms NC,TA,CA]
        Run algorithms head-to-head on a named scenario and print the
        cost table.

    python -m repro optimize --scenario Q1 [--scheme hclimb]
        Show the SR/G plan the cost-based optimizer picks for a scenario.

    python -m repro query "SELECT * FROM r ORDER BY min(a, b) STOP AFTER 5"
        --n 1000 --seed 7
        Parse and execute an SQL-like query over a synthetic uniform
        database whose predicates are named by first appearance.

    python -m repro serve --n 1000 --schema a,b --seed 7
        Serve many queries over one shared source pool with a cross-query
        cache (docs/SERVICE.md): JSON-lines requests on stdin (or a local
        socket with --socket PATH), responses on stdout. Add
        ``--trace out.jsonl`` to record the structured access trace and
        ``--metrics-out metrics.json`` to dump the unified metrics
        snapshot (docs/OBSERVABILITY.md).

    python -m repro trace out.jsonl [--width 64]
        Analyze a recorded trace file: per-predicate Fig. 7-style access
        timelines plus event totals.

    python -m repro lint src/repro [--format json|sarif] [--select ...]
        Run the domain-aware static-analysis pass (docs/LINTS.md) over
        the given files/directories; exit 1 when findings remain.
        ``--deep`` adds the whole-program flow-sensitive rules
        (RL101-RL105); ``--baseline lint-baseline.json`` absorbs the
        recorded debt and fails on new or stale findings;
        ``--update-baseline`` rewrites the ratchet file.

``compare`` and ``query`` additionally accept ``--contracts`` to arm the
runtime invariant checker (docs/LINTS.md) for the run.

Everything prints plain ASCII tables; exit status is nonzero on errors
or on a verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.algorithms import (
    CA,
    FA,
    NRA,
    MPro,
    QuickCombine,
    SRCombine,
    StreamCombine,
    TA,
    Upper,
)
from repro.bench.harness import compare, nc_with_dummy_planner
from repro.bench.reporting import ascii_table
from repro.bench.scenarios import matrix_scenarios, s1, s2, s3, travel_q1, travel_q2
from repro.data.dataset import Dataset
from repro.data.generators import uniform
from repro.exceptions import ReproError
from repro.faults import (
    FaultProfile,
    RetryPolicy,
    chaos_middleware,
    faulty_sources_for,
)
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    format_timeline,
    read_trace,
)
from repro.optimizer.search import HillClimb, NaiveGrid, Strategies
from repro.query import parse_query, run_query
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware

_ALGORITHM_FACTORIES = {
    "NC": lambda: nc_with_dummy_planner(scheme=HillClimb(restarts=3), sample_size=150),
    "TA": TA,
    "FA": FA,
    "CA": CA,
    "NRA": NRA,
    "MPRO": MPro,
    "UPPER": Upper,
    "QC": QuickCombine,
    "SC": StreamCombine,
    "SRC": SRCombine,
}

_SCHEMES = {
    "naive": lambda: NaiveGrid(resolution=6),
    "strategies": Strategies,
    "hclimb": lambda: HillClimb(restarts=3),
}


def _scenarios() -> dict:
    named = {
        "S1": s1(),
        "S2": s2(),
        "S3": s3(),
        "Q1": travel_q1(),
        "Q2": travel_q2(),
    }
    for scenario in matrix_scenarios():
        named[scenario.name] = scenario
    return named


def _resolve_scenario(name: str):
    scenarios = _scenarios()
    if name not in scenarios:
        raise ReproError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(scenarios))}"
        )
    return scenarios[name]


def _cmd_scenarios(_args) -> int:
    rows = [
        [name, sc.n, sc.m, sc.fn.name, sc.k, sc.cost_model.describe()]
        for name, sc in sorted(_scenarios().items())
    ]
    print(ascii_table(["name", "n", "m", "F", "k", "costs"], rows))
    return 0


def _retry_policy(args) -> RetryPolicy:
    """Translate the fault-related CLI flags into a retry policy."""
    try:
        return RetryPolicy(max_attempts=args.retry_max, timeout=args.timeout)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _synthetic_pool(args, m: int) -> tuple[Dataset, CostModel]:
    """The uniform dataset and cost model named by ``--n/--seed/--cs/--cr``."""
    try:
        return (
            uniform(args.n, m, seed=args.seed),
            CostModel.uniform(m, cs=args.cs, cr=args.cr),
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _fault_factory(args):
    """A per-scenario middleware factory, or ``None`` when neither faults
    nor contract checking were requested on the command line."""
    contracts = getattr(args, "contracts", False)
    if args.fault_rate == 0.0 and args.timeout is None:
        if not contracts:
            return None

        def plain_factory(scenario):
            return Middleware.over(
                scenario.dataset,
                scenario.cost_model,
                no_wild_guesses=scenario.no_wild_guesses,
                contracts=True,
            )

        return plain_factory
    try:
        profile = FaultProfile.transient(args.fault_rate)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    policy = _retry_policy(args)

    def factory(scenario):
        return chaos_middleware(
            scenario.dataset,
            scenario.cost_model,
            profile,
            seed=args.fault_seed,
            retry_policy=policy,
            no_wild_guesses=scenario.no_wild_guesses,
            contracts=contracts,
        )

    return factory


def _cmd_compare(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    wanted = [token.strip().upper() for token in args.algorithms.split(",")]
    unknown = [name for name in wanted if name not in _ALGORITHM_FACTORIES]
    if unknown:
        raise ReproError(
            f"unknown algorithms {unknown}; available: "
            f"{', '.join(sorted(_ALGORITHM_FACTORIES))}"
        )
    algorithms = [_ALGORITHM_FACTORIES[name]() for name in wanted]
    factory = _fault_factory(args)
    rows = compare(scenario, algorithms, middleware_factory=factory)
    if not rows:
        raise ReproError(
            "none of the requested algorithms support this scenario's "
            "capabilities"
        )
    best = min(row.cost for row in rows)
    headers = ["algorithm", "total cost", "sa", "ra", "% of best", "answer ok"]
    table = [
        [
            row.algorithm,
            row.cost,
            row.sorted_accesses,
            row.random_accesses,
            100.0 * row.cost / best,
            "yes" if row.correct else "NO",
        ]
        for row in rows
    ]
    faults_on = args.fault_rate != 0.0 or args.timeout is not None
    if faults_on:
        headers.append("retries")
        for line, row in zip(table, rows):
            line.append(row.result.stats.total_retries)
    print(ascii_table(headers, table, title=f"{scenario.name}: {scenario.description}"))
    if faults_on:
        print(
            f"faults: transient rate {args.fault_rate:g}, "
            f"retry budget {args.retry_max}, "
            f"timeout {args.timeout if args.timeout is not None else '-'}"
        )
    return 0 if all(row.correct for row in rows) else 1


def _cmd_optimize(args) -> int:
    scenario = _resolve_scenario(args.scenario)
    scheme_key = args.scheme.lower()
    if scheme_key not in _SCHEMES:
        raise ReproError(
            f"unknown scheme {args.scheme!r}; available: "
            f"{', '.join(sorted(_SCHEMES))}"
        )
    import time

    on_off = {"auto": "auto", "on": True, "off": False}
    try:
        nc = nc_with_dummy_planner(
            scheme=_SCHEMES[scheme_key](),
            sample_size=args.sample_size,
            vectorized=on_off[args.vectorized],
            clock=time.perf_counter,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    plan = nc.resolve_plan(scenario.middleware(), scenario.fn, scenario.k)
    kernel_runs = plan.notes.get("kernel_runs", 0)
    reference_runs = plan.notes.get("reference_runs", 0)
    print(f"scenario : {scenario.name}  ({scenario.description})")
    print(f"costs    : {scenario.cost_model.describe()}")
    print(f"plan     : {plan.describe()}")
    print(
        f"overhead : {plan.estimator_runs} estimator simulation runs "
        f"({kernel_runs} kernel, {reference_runs} reference)"
    )
    phase_seconds = plan.notes.get("phase_seconds")
    if isinstance(phase_seconds, dict) and phase_seconds:
        rendered = "  ".join(
            f"{name}={seconds:.4f}s" for name, seconds in phase_seconds.items()
        )
        print(f"timing   : {rendered}")
    return 0


def _write_observability(
    trace: Optional[TraceRecorder],
    trace_path: Optional[str],
    metrics: Optional[MetricsRegistry],
    metrics_path: Optional[str],
) -> None:
    """Write the recorded trace / metrics snapshot to their output files.

    Metrics render as the Prometheus text format when the path ends in
    ``.prom``, as a JSON snapshot otherwise.
    """
    if trace is not None and trace_path:
        written = trace.write(trace_path)
        suffix = f" ({trace.dropped} dropped)" if trace.dropped else ""
        print(
            f"trace: {written} events -> {trace_path}{suffix}",
            file=sys.stderr,
        )
    if metrics is not None and metrics_path:
        with open(metrics_path, "w", encoding="utf-8") as handle:
            if metrics_path.endswith(".prom"):
                handle.write(metrics.render_prometheus())
            else:
                json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(f"metrics snapshot -> {metrics_path}", file=sys.stderr)


def _cmd_query(args) -> int:
    parsed = parse_query(args.text)
    data, model = _synthetic_pool(args, len(parsed.predicates))
    trace = TraceRecorder() if args.trace else None
    metrics = MetricsRegistry() if args.metrics_out else None
    if args.fault_rate != 0.0 or args.timeout is not None:
        try:
            profile = FaultProfile.transient(args.fault_rate)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        middleware = chaos_middleware(
            data,
            model,
            profile,
            seed=args.fault_seed,
            retry_policy=_retry_policy(args),
            contracts=args.contracts,
            metrics=metrics,
            trace=trace,
        )
    else:
        middleware = Middleware.over(
            data, model, contracts=args.contracts, metrics=metrics, trace=trace
        )
    result = run_query(parsed, middleware, schema=list(parsed.predicates))
    print(f"query     : {parsed}")
    print(f"predicates: {', '.join(parsed.predicates)} (synthetic uniform scores)")
    print(f"plan      : {result.metadata.get('plan', '-')}")
    print(
        ascii_table(
            ["rank", "object", "score"],
            [
                [rank, entry.obj, f"{entry.score:.4f}"]
                for rank, entry in enumerate(result.ranking, start=1)
            ],
        )
    )
    line = (
        f"total access cost {result.total_cost():g}  "
        f"({middleware.stats.total_sorted} sorted, "
        f"{middleware.stats.total_random} random)"
    )
    if middleware.stats.total_retries or middleware.stats.total_faults:
        line += (
            f"  [{middleware.stats.total_faults} faults, "
            f"{middleware.stats.total_retries} retries]"
        )
    print(line)
    if result.partial:
        print("warning: partial result -- some scores are bound-only")
    _write_observability(trace, args.trace, metrics, args.metrics_out)
    return 0


def _cmd_serve(args) -> int:
    from repro.service import QueryServer, ServerConfig, serve_socket, serve_stream
    from repro.sources.cache import SourceCache

    schema = [name.strip() for name in args.schema.split(",") if name.strip()]
    if not schema:
        raise ReproError("--schema must name at least one predicate")
    data, model = _synthetic_pool(args, len(schema))
    retry_policy = None
    if args.fault_rate != 0.0 or args.timeout is not None:
        try:
            profile = FaultProfile.transient(args.fault_rate)
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
        retry_policy = _retry_policy(args)
        sources = faulty_sources_for(
            data,
            profile,
            seed=args.fault_seed,
            sorted_capable=model.sorted_capabilities,
            random_capable=model.random_capabilities,
        )
        cache = SourceCache(
            sources, ttl=args.cache_ttl, max_entries=args.cache_max_entries
        )
    else:
        cache = SourceCache.over(
            data, model, ttl=args.cache_ttl, max_entries=args.cache_max_entries
        )
    try:
        config = ServerConfig(
            max_in_flight=args.max_in_flight,
            query_concurrency=args.concurrency,
            default_budget=args.budget,
            cache_ttl=args.cache_ttl,
            cache_max_entries=args.cache_max_entries,
            seed=args.seed,
            contracts=args.contracts,
            retry_policy=retry_policy,
            concurrent_queries=args.concurrent_queries,
            time_scale=args.time_scale,
            plan_memory=not args.no_plan_memory,
            replan=args.replan,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    trace = TraceRecorder() if args.trace else None
    if args.tcp:
        from repro.service import AsyncQueryServer, TcpQueryService

        host, _, port_text = args.tcp.rpartition(":")
        try:
            port = int(port_text)
        except ValueError as exc:
            raise ReproError(
                f"--tcp expects HOST:PORT, got {args.tcp!r}"
            ) from exc
        server = AsyncQueryServer(
            model, cache=cache, schema=schema, config=config, trace=trace
        )

        async def _serve_tcp() -> None:
            service = TcpQueryService(
                server, host=host or "127.0.0.1", port=port
            )
            bound_host, bound_port = await service.start()
            print(f"serving on {bound_host}:{bound_port}", file=sys.stderr)
            await service.serve_forever()

        import asyncio

        asyncio.run(_serve_tcp())
    else:
        server = QueryServer(
            model, cache=cache, schema=schema, config=config, trace=trace
        )
        if args.socket:
            print(f"serving on {args.socket}", file=sys.stderr)
            serve_socket(server, args.socket)
        else:
            serve_stream(server, sys.stdin, sys.stdout)
    snapshot = server.stats()
    print(
        f"served {snapshot['completed']} queries "
        f"({snapshot['failed']} failed, {snapshot['rejected']} rejected); "
        f"charged cost {snapshot['charged_cost_total']:g}, "
        f"cache hit rate {snapshot['cache']['hit_rate']:.2f}, "
        f"{snapshot['warm_start_hits']} warm plan start(s)",
        file=sys.stderr,
    )
    _write_observability(trace, args.trace, server.metrics, args.metrics_out)
    return 0


def _cmd_trace(args) -> int:
    try:
        events = read_trace(args.file)
    except (OSError, ValueError) as exc:
        raise ReproError(str(exc)) from exc
    print(format_timeline(events, width=args.width))
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import json_report, run_lint, sarif_report, text_report
    from repro.lint.baseline import (
        describe_stale,
        load_baseline,
        match_baseline,
        write_baseline,
    )
    from repro.lint.core import LintReport

    select = None
    if args.select:
        select = [
            token.strip().upper()
            for token in args.select.split(",")
            if token.strip()
        ]
    try:
        report = run_lint(args.paths, select=select, deep=args.deep)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc

    if args.update_baseline:
        if args.baseline is None:
            raise ReproError("--update-baseline requires --baseline PATH")
        write_baseline(Path(args.baseline), report.findings)
        print(
            f"baseline updated: {len(report.findings)} finding(s) "
            f"recorded in {args.baseline}"
        )
        return 0

    absorbed = None
    stale_lines: list[str] = []
    ok = report.ok
    if args.baseline is not None:
        match = match_baseline(
            report.findings, load_baseline(Path(args.baseline))
        )
        absorbed = match.absorbed
        stale_lines = describe_stale(match.stale)
        ok = match.ok
        if args.format != "sarif":
            # Text/JSON views show only the actionable (new) findings;
            # SARIF keeps everything and marks baselineState instead.
            report = LintReport(
                findings=match.new,
                files_checked=report.files_checked,
                rules_run=report.rules_run,
            )

    if args.format == "json":
        print(json_report(report))
    elif args.format == "sarif":
        print(sarif_report(report, baselined=absorbed))
    else:
        print(text_report(report))
    for line in stale_lines:
        print(line, file=sys.stderr)
    if stale_lines:
        print(
            "stale entries mean recorded debt was fixed: tighten the "
            "ratchet with --update-baseline",
            file=sys.stderr,
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cost-based top-k query optimization (ICDE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list built-in scenarios")

    def add_contracts_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--contracts",
            action="store_true",
            help="assert paper invariants (bounds, thresholds, "
            "monotonicity) at runtime; see docs/LINTS.md",
        )

    def add_obs_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group("observability (docs/OBSERVABILITY.md)")
        group.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="record the structured access trace as JSON lines to FILE "
            "(analyze with `repro trace FILE`)",
        )
        group.add_argument(
            "--metrics-out",
            default=None,
            metavar="FILE",
            help="write the unified metrics snapshot to FILE "
            "(JSON, or Prometheus text when FILE ends in .prom)",
        )

    def add_fault_flags(p: argparse.ArgumentParser) -> None:
        group = p.add_argument_group("fault injection (docs/FAULTS.md)")
        group.add_argument(
            "--fault-rate",
            type=float,
            default=0.0,
            help="transient-failure probability per access (default 0: off)",
        )
        group.add_argument(
            "--retry-max",
            type=int,
            default=5,
            help="attempts per logical access before giving up (default 5)",
        )
        group.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-access deadline in virtual time units (default none)",
        )
        group.add_argument(
            "--fault-seed",
            type=int,
            default=0,
            help="seed of the fault-injection RNG (default 0)",
        )

    cmp_parser = sub.add_parser("compare", help="run algorithms on a scenario")
    cmp_parser.add_argument("--scenario", required=True)
    cmp_parser.add_argument(
        "--algorithms",
        default="NC,TA,CA,NRA",
        help="comma-separated names (NC,TA,FA,CA,NRA,MPRO,UPPER,QC,SC,SRC)",
    )
    add_fault_flags(cmp_parser)
    add_contracts_flag(cmp_parser)

    opt_parser = sub.add_parser("optimize", help="show the optimizer's plan")
    opt_parser.add_argument("--scenario", required=True)
    opt_parser.add_argument("--scheme", default="hclimb")
    opt_parser.add_argument("--sample-size", type=int, default=150)
    opt_parser.add_argument(
        "--vectorized",
        choices=("auto", "on", "off"),
        default="auto",
        help="plan-cost estimator path: fast kernel with spot-checks "
        "(auto), kernel only (on), or reference engine only (off)",
    )

    query_parser = sub.add_parser("query", help="execute an SQL-like query")
    query_parser.add_argument("text", help="the query text")
    query_parser.add_argument("--n", type=int, default=1000)
    query_parser.add_argument("--seed", type=int, default=0)
    query_parser.add_argument("--cs", type=float, default=1.0)
    query_parser.add_argument("--cr", type=float, default=1.0)
    add_fault_flags(query_parser)
    add_contracts_flag(query_parser)
    add_obs_flags(query_parser)

    serve_parser = sub.add_parser(
        "serve", help="serve queries over a shared cached source pool"
    )
    serve_parser.add_argument("--n", type=int, default=1000)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--schema",
        default="a,b",
        help="comma-separated predicate names served (default: a,b)",
    )
    serve_parser.add_argument("--cs", type=float, default=1.0)
    serve_parser.add_argument("--cr", type=float, default=1.0)
    serve_parser.add_argument(
        "--max-in-flight",
        type=int,
        default=8,
        help="admission bound on open sessions (default 8)",
    )
    serve_parser.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="accesses issued concurrently within one query (default 1)",
    )
    serve_parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="default per-session cost cap (default: unbounded)",
    )
    serve_parser.add_argument(
        "--cache-ttl",
        type=int,
        default=None,
        help="idle queries before a cached predicate expires (default: never)",
    )
    serve_parser.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        help="bound on cached records, LRU-evicted (default: unbounded)",
    )
    serve_parser.add_argument(
        "--socket",
        default=None,
        help="serve on a unix socket at this path instead of stdio",
    )
    serve_parser.add_argument(
        "--tcp",
        default=None,
        metavar="HOST:PORT",
        help=(
            "serve multiple concurrent clients over TCP with the async "
            "runtime (docs/RUNTIME.md); port 0 picks a free one"
        ),
    )
    serve_parser.add_argument(
        "--concurrent-queries",
        type=int,
        default=1,
        help=(
            "sessions executing at once on the async (--tcp) server; "
            "1 keeps answers byte-identical to the sync path (default 1)"
        ),
    )
    serve_parser.add_argument(
        "--no-plan-memory",
        action="store_true",
        help="disable per-(expression, k) plan reuse and warm-started "
        "re-optimization across sessions",
    )
    serve_parser.add_argument(
        "--replan",
        choices=["off", "drift", "always"],
        default="off",
        help=(
            "mid-flight adaptive replanning (docs/OPTIMIZER.md): re-optimize "
            "a session's (Delta, H) at engine checkpoints when observed "
            "source behaviour drifts from the assumed cost model; 'off' "
            "(default) runs exactly the static engines"
        ),
    )
    serve_parser.add_argument(
        "--time-scale",
        type=float,
        default=0.0,
        help=(
            "real seconds per unit of virtual access latency on the async "
            "server; 0 never sleeps (default 0)"
        ),
    )
    add_fault_flags(serve_parser)
    add_contracts_flag(serve_parser)
    add_obs_flags(serve_parser)

    trace_parser = sub.add_parser(
        "trace", help="analyze a recorded access trace (docs/OBSERVABILITY.md)"
    )
    trace_parser.add_argument("file", help="JSON-lines trace file to analyze")
    trace_parser.add_argument(
        "--width",
        type=int,
        default=64,
        help="timeline width in characters (default 64)",
    )

    lint_parser = sub.add_parser(
        "lint", help="run the domain static-analysis pass (docs/LINTS.md)"
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files and/or directories to lint (default: src/repro)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    lint_parser.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program flow-sensitive rules "
        "(RL101-RL105, docs/LINTS.md)",
    )
    lint_parser.add_argument(
        "--baseline",
        default=None,
        help="ratchet file: absorb recorded findings, fail on new ones "
        "and on stale entries (docs/LINTS.md)",
    )
    lint_parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with the current findings and exit 0",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "scenarios": _cmd_scenarios,
        "compare": _cmd_compare,
        "optimize": _cmd_optimize,
        "query": _cmd_query,
        "serve": _cmd_serve,
        "trace": _cmd_trace,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
