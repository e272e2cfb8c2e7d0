"""Tests for the NCOptimizer facade and the SRGPlan record."""

import itertools

import pytest

from repro.data.generators import uniform
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.optimizer.sampling import dummy_uniform_sample, sample_from_dataset
from repro.optimizer.schedule import ScheduleOptimizer
from repro.optimizer.search import HillClimb, NaiveGrid, Strategies
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel


class TestSRGPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            SRGPlan(depths=(1.5, 0.5), schedule=(0, 1))
        with pytest.raises(ValueError):
            SRGPlan(depths=(0.5, 0.5), schedule=(0, 0))

    def test_describe(self):
        plan = SRGPlan(depths=(0.5, 1.0), schedule=(1, 0), estimated_cost=42.0)
        text = plan.describe()
        assert "0.50" in text and "p1,p0" in text and "42.0" in text

    def test_m(self):
        assert SRGPlan(depths=(0.1, 0.2, 0.3), schedule=(0, 1, 2)).m == 3


class TestNCOptimizerPlan:
    def test_plan_fields_populated(self):
        sample = dummy_uniform_sample(2, 60, seed=1)
        plan = NCOptimizer(scheme=NaiveGrid(4)).plan(
            sample, Min(2), 5, 600, CostModel.uniform(2)
        )
        assert plan.m == 2
        assert plan.estimated_cost is not None and plan.estimated_cost > 0
        assert plan.estimator_runs > 0
        assert plan.notes["scheme"] == "Naive(grid=4)"
        assert plan.notes["sample_size"] == 60

    def test_schedule_threaded_through(self):
        # With heuristic H-optimization, the plan's schedule is the
        # benefit/cost ranking of the sample.
        from repro.optimizer.schedule import benefit_cost_schedule

        data = uniform(500, 2, seed=3)
        sample = sample_from_dataset(data, 100, seed=4)
        model = CostModel.per_predicate(cs=[1, 1], cr=[5.0, 1.0])
        plan = NCOptimizer(scheme=Strategies()).plan(
            sample, Min(2), 5, 500, model
        )
        assert plan.schedule == benefit_cost_schedule(sample, model)

    def test_exhaustive_schedule_mode(self):
        sample = dummy_uniform_sample(2, 50, seed=2)
        optimizer = NCOptimizer(
            scheme=NaiveGrid(3),
            schedule_optimizer=ScheduleOptimizer(mode="exhaustive"),
        )
        plan = optimizer.plan(sample, Min(2), 3, 500, CostModel.uniform(2))
        assert sorted(plan.schedule) == [0, 1]

    def test_default_scheme_is_hclimb(self):
        assert NCOptimizer().scheme.describe().startswith("HClimb")

    def test_plans_differ_across_cost_scenarios(self):
        """Cost-based optimization must react to the cost scenario: free
        probes pull a depth up to 1.0 (probe instead of descend), while
        expensive probes keep every depth strictly below 1.0."""
        sample = dummy_uniform_sample(2, 100, seed=5)
        optimizer = NCOptimizer(scheme=NaiveGrid(5))
        plan_free_ra = optimizer.plan(
            sample, Min(2), 5, 1000, CostModel.uniform(2, cs=1.0, cr=0.0)
        )
        plan_dear_ra = optimizer.plan(
            sample, Min(2), 5, 1000, CostModel.expensive_random(2, ratio=10.0)
        )
        assert max(plan_free_ra.depths) == 1.0
        assert max(plan_dear_ra.depths) < 1.0

    def test_plans_differ_across_scoring_functions(self):
        """Example 11 on real runs: under S1/S2 data NC's optimized plan
        saves big over TA for min but only marginally for avg."""
        from repro.algorithms.nc import NC
        from repro.algorithms.ta import TA
        from repro.sources.middleware import Middleware

        data = uniform(1000, 2, seed=42)

        def ratio(fn):
            mw_ta = Middleware.over(data, CostModel.uniform(2))
            TA().run(mw_ta, fn, 10)
            mw_nc = Middleware.over(data, CostModel.uniform(2))
            NC(
                sample_size=150, optimizer=NCOptimizer(scheme=NaiveGrid(6))
            ).run(mw_nc, fn, 10)
            return mw_nc.stats.total_cost() / mw_ta.stats.total_cost()

        ratio_min, ratio_avg = ratio(Min(2)), ratio(Avg(2))
        assert ratio_min < 0.8, "min: NC should save substantially over TA"
        assert ratio_avg < 1.05, "avg: NC should at least match TA"
        assert ratio_min < ratio_avg, "savings larger in the asymmetric case"


class TestOptimizerNotes:
    def test_plan_notes_carry_phase_times(self):
        ticks = itertools.count()
        optimizer = NCOptimizer(
            scheme=NaiveGrid(resolution=6),
            clock=lambda: float(next(ticks)),
        )
        sample = dummy_uniform_sample(2, 60, seed=3)
        plan = optimizer.plan(sample, Avg(2), 5, 600, CostModel.uniform(2))
        assert set(plan.notes["phase_seconds"]) == {
            "schedule",
            "delta_search",
            "h_optimization",
        }

    def test_trace_timeline_renders_the_optimizer_summary(self):
        from repro.obs.timeline import format_timeline

        events = [
            {"event": "phase", "phase": "schedule", "tick": 0},
            {
                "event": "phase",
                "phase": "done",
                "tick": 5,
                "phase_seconds": {
                    "schedule": 0.0001,
                    "delta_search": 0.0123,
                    "h_optimization": 0.0004,
                },
            },
            {"event": "access", "predicate": 0, "kind": "sorted", "tick": 1},
        ]
        rendered = format_timeline(events)
        assert "optimizer: phases schedule=0.0001s" in rendered
        assert "delta_search=0.0123s" in rendered

    def test_warm_start_threads_through_plan(self):
        optimizer = NCOptimizer(scheme=HillClimb(seed=7))
        sample = dummy_uniform_sample(2, 60, seed=3)
        plan = optimizer.plan(
            sample,
            Avg(2),
            5,
            600,
            CostModel.uniform(2),
            warm_start=[(0.4, 0.4)],
        )
        assert plan.notes["warm_started"] is True
