"""E21 -- plan-cost estimator throughput: fast-path kernel vs. reference.

The optimizer is simulation-bound, so the number of plans the estimator
can cost per second bounds how often ``repro serve`` can afford to
re-optimize. This benchmark measures that throughput on both execution
paths -- the flat :class:`~repro.optimizer.kernel.SampleIndex` replay and
the reference ``Middleware``/``FrameworkNC`` engine -- over identical
plan panels, checks the two paths price every plan identically, and
writes the canonical ``BENCH_kernel.json`` at the repo root so the perf
trajectory is tracked PR-over-PR.

Runs two ways:

* under pytest with the rest of the benchmark suite (asserts exact
  cost agreement and a conservative speedup floor);
* as a script -- ``python benchmarks/bench_kernel.py [--quick]`` --
  for the CI perf-smoke job, exiting nonzero if the vectorized path was
  not selected or disagrees with the reference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.obs.metrics import MetricsRegistry
from repro.optimizer.estimator import CostEstimator
from repro.optimizer.sampling import dummy_uniform_sample
from repro.optimizer.search import NaiveGrid
from repro.scoring.functions import Avg, Min, ScoringFunction
from repro.sources.cost import CostModel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_FILE = pathlib.Path(__file__).parent.parent / "BENCH_kernel.json"

K = 10
N_TOTAL = 1000


def plan_panel(m: int, count: int, offset: float = 0.0) -> list[tuple[float, ...]]:
    """A deterministic panel of depth vectors: diagonal + focused points."""
    panel: list[tuple[float, ...]] = []
    for i in range(count):
        d = (i + offset) / count
        panel.append(tuple([d] * m))
        focused = [1.0] * m
        focused[i % m] = d
        panel.append(tuple(focused))
    return list(dict.fromkeys(panel))


def _estimator(
    fn: ScoringFunction,
    model: CostModel,
    sample_size: int,
    vectorized: bool,
    metrics: MetricsRegistry | None = None,
) -> CostEstimator:
    sample = dummy_uniform_sample(fn.arity, sample_size, seed=3)
    return CostEstimator(
        sample,
        fn,
        K,
        N_TOTAL,
        model,
        vectorized=vectorized,
        verify=False,
        metrics=metrics,
    )


def _timed_batch(est: CostEstimator, panel: list[tuple[float, ...]]):
    start = time.perf_counter()
    costs = [est.estimate(plan) for plan in panel]
    return time.perf_counter() - start, costs


def run_config(
    label: str,
    fn: ScoringFunction,
    model: CostModel,
    sample_size: int,
    panel_size: int,
    repeats: int = 3,
    metrics: MetricsRegistry | None = None,
) -> dict:
    """Measure one scenario: cold batch, warm batch, both paths.

    Each measurement is best-of-``repeats`` on a fresh estimator (the
    simulation is deterministic, so repeats only filter scheduler noise).
    """
    cold_panel = plan_panel(fn.arity, panel_size)
    warm_panel = plan_panel(fn.arity, panel_size, offset=0.5)
    result: dict = {"label": label, "plans_per_batch": len(cold_panel)}
    costs: dict = {}
    for name, vectorized in (("kernel", True), ("reference", False)):
        cold_s = warm_s = float("inf")
        for _ in range(repeats):
            est = _estimator(fn, model, sample_size, vectorized, metrics)
            cold_once, cold_costs = _timed_batch(est, cold_panel)
            warm_once, warm_costs = _timed_batch(est, warm_panel)
            cold_s = min(cold_s, cold_once)
            warm_s = min(warm_s, warm_once)
        costs[name] = (cold_costs, warm_costs)
        result[name] = {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "cold_plans_per_s": len(cold_panel) / cold_s if cold_s else None,
            "warm_plans_per_s": len(warm_panel) / warm_s if warm_s else None,
            "kernel_runs": est.kernel_runs,
            "reference_runs": est.reference_runs,
        }
    result["identical_costs"] = costs["kernel"] == costs["reference"]
    result["speedup_cold"] = result["reference"]["cold_s"] / result["kernel"]["cold_s"]
    result["speedup_warm"] = result["reference"]["warm_s"] / result["kernel"]["warm_s"]
    return result


def identical_chosen_plans(sample_size: int = 100, resolution: int = 7) -> bool:
    """The switch must never change the plan the search scheme picks."""
    chosen = []
    for vectorized in (True, False):
        est = _estimator(Min(2), CostModel.expensive_random(2), sample_size, vectorized)
        chosen.append(NaiveGrid(resolution=resolution).search(est).depths)
    return chosen[0] == chosen[1]


def run_suite(quick: bool = False) -> dict:
    if quick:
        configs = [
            ("S1-min-m2-quick", Min(2), CostModel.expensive_random(2), 100, 8),
        ]
    else:
        configs = [
            ("S1-min-m2", Min(2), CostModel.expensive_random(2), 150, 20),
            ("S2-avg-m3", Avg(3), CostModel.uniform(3), 150, 15),
        ]
    metrics = MetricsRegistry()
    payload = {
        "experiment": "E21 kernel estimator throughput",
        "quick": quick,
        "configs": [run_config(*cfg, metrics=metrics) for cfg in configs],
        "identical_chosen_plans": identical_chosen_plans(),
        # Aggregate estimator metrics across every measured run, so the
        # committed artifact shows which execution paths actually fired.
        "metrics": metrics.snapshot(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    RESULT_FILE.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def test_kernel_throughput(benchmark, report):
    payload = run_suite(quick=False)
    lines = []
    for cfg in payload["configs"]:
        lines.append(
            f"{cfg['label']}: {cfg['plans_per_batch']} plans/batch  "
            f"kernel warm {cfg['kernel']['warm_plans_per_s']:.0f} plans/s  "
            f"reference warm {cfg['reference']['warm_plans_per_s']:.0f} plans/s  "
            f"speedup cold {cfg['speedup_cold']:.1f}x warm {cfg['speedup_warm']:.1f}x"
        )
        # Correctness before performance: both paths price every plan
        # identically, bitwise.
        assert cfg["identical_costs"], cfg["label"]
        # Conservative floor (the observed speedup is far higher); keeps
        # the benchmark meaningful without making CI timing-flaky.
        assert cfg["speedup_warm"] >= 2.0, cfg["label"]
    assert payload["identical_chosen_plans"]
    report("E21", "Kernel vs reference estimator throughput", "\n".join(lines))

    est = _estimator(Min(2), CostModel.expensive_random(2), 150, True)
    panel = plan_panel(2, 20)

    def _run():
        est._cache.clear()
        for plan in panel:
            est.estimate(plan)

    benchmark.pedantic(_run, rounds=3, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small panels for CI smoke runs (does not overwrite the "
        "committed full-suite numbers' shape, only re-measures)",
    )
    args = parser.parse_args(argv)
    payload = run_suite(quick=args.quick)
    ok = payload["identical_chosen_plans"]
    for cfg in payload["configs"]:
        status = "ok" if cfg["identical_costs"] else "MISMATCH"
        print(
            f"{cfg['label']}: speedup cold {cfg['speedup_cold']:.1f}x, "
            f"warm {cfg['speedup_warm']:.1f}x, costs {status}"
        )
        ok = ok and cfg["identical_costs"]
        # The point of the smoke run: the fast path must actually have
        # been selected, not silently fallen back.
        ok = ok and cfg["kernel"]["kernel_runs"] > 0
        ok = ok and cfg["kernel"]["reference_runs"] == 0
    print(f"identical chosen plans: {payload['identical_chosen_plans']}")
    print(f"wrote {RESULT_FILE}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
