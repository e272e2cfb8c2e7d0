#!/usr/bin/env python3
"""The repo benchmark: single-client workloads, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload oneshot-probe --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all              # every workload once
    python3 perfbench/run.py --workload all --repeat 5   # steadiness check

One workload (``--workload <name>``) runs in this process and prints, as
the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, preceded by the per-layer table and the waterfalls of the
slowest queries, and the spans are written to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.

``--workload all`` and ``--repeat N`` start one fresh process per run and
time a fixed pure-Python loop (the machine-speed probe) before and after
each. The probe is a diagnostic printed next to the run and is never part
of any metric.

The exit code is 0 only when every answer matched the oracle.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 300


def _load_harness():
    """Import the program from this checkout's ``src``, or exit nonzero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'repro'}; run from a full checkout")
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    from perfbench import harness

    return harness


def machine_probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine is now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_one(args: argparse.Namespace) -> int:
    harness = _load_harness()
    import_s = time.perf_counter() - _T0
    try:
        result = asyncio.run(
            harness.run(args.workload, args.seed, args.seconds, args.trace, import_s)
        )
    except harness.WarmupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        OUT.mkdir(exist_ok=True)
        result.tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        print(result.report)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": result.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


def spawn(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run in a fresh process; returns its result object."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} seed {seed} printed no result (exit {proc.returncode}):\n"
            f"{proc.stderr}"
        )
    if trace:
        print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def run_many(args: argparse.Namespace, workloads: list[str]) -> int:
    """``--repeat`` runs per workload; per-metric median and quartiles."""
    all_correct = True
    for workload in workloads:
        runs: list[dict] = []
        for i in range(args.repeat):
            seed = args.seed + i
            before = machine_probe()
            result = spawn(workload, seed, args.seconds, args.trace)
            after = machine_probe()
            runs.append(result)
            all_correct &= bool(result["correct"])
            print(
                f"{workload} seed={seed} correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']} "
                f"probe_before_s={before:.4f} probe_after_s={after:.4f}",
                flush=True,
            )
        print(f"== {workload}: {len(runs)} runs ==")
        for name, entry in runs[0]["metrics"].items():
            values = " ".join(f"{run['metrics'][name]['value']:.4g}" for run in runs)
            print(f"  {name} [{entry['unit']}]: {values}")
        if len(runs) < 2:
            continue
        print(f"{'metric':<36} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, entry in runs[0]["metrics"].items():
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            print(
                f"{name:<36} {entry['unit']:<10} {median:>12.4f} {q1:>12.4f} "
                f"{q3:>12.4f} {spread:>8.2%}",
                flush=True,
            )
    return 0 if all_correct else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="runs per workload, each in a fresh process")
    args = parser.parse_args(argv)
    if args.workload != "all" and not args.repeat:
        return run_one(args)
    harness = _load_harness()
    workloads = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [w for w in workloads if w not in harness.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    args.repeat = max(args.repeat, 1)
    return run_many(args, workloads)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
