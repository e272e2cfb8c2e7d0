"""Tests for the NC algorithm wrapper (optimizer + engine)."""

import pytest

from repro.algorithms.nc import NC
from repro.data.generators import uniform
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.optimizer.search import NaiveGrid
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware
from tests.conftest import assert_valid_topk, mw_over


class TestFixedPlan:
    def test_runs_given_plan(self, small_uniform):
        plan = SRGPlan(depths=(0.6, 0.6), schedule=(0, 1))
        mw = mw_over(small_uniform)
        result = NC(plan=plan).run(mw, Min(2), 3)
        assert_valid_topk(result, small_uniform, Min(2), 3)
        assert result.metadata["depths"] == (0.6, 0.6)

    def test_plan_and_planner_mutually_exclusive(self):
        plan = SRGPlan(depths=(0.5,), schedule=(0,))
        with pytest.raises(ValueError):
            NC(plan=plan, planner=lambda mw, fn, k: plan)

    def test_sample_size_validated(self):
        with pytest.raises(ValueError, match="sample_size"):
            NC(sample_size=0)


class TestPlannerHook:
    def test_custom_planner_invoked(self, small_uniform):
        calls = []

        def planner(mw, fn, k):
            calls.append((mw.n_objects, fn.name, k))
            return SRGPlan(depths=(0.7, 0.7), schedule=(1, 0))

        mw = mw_over(small_uniform)
        result = NC(planner=planner).run(mw, Min(2), 2)
        assert calls == [(50, "min[2]", 2)]
        assert result.metadata["schedule"] == (1, 0)
        assert_valid_topk(result, small_uniform, Min(2), 2)


class TestDefaultDummyPlanner:
    def test_self_contained_optimization(self, small_uniform):
        mw = mw_over(small_uniform)
        result = NC(sample_size=60).run(mw, Min(2), 3)
        assert_valid_topk(result, small_uniform, Min(2), 3)
        assert result.metadata["estimator_runs"] > 0

    def test_planning_does_not_touch_real_middleware(self, small_uniform):
        mw = mw_over(small_uniform)
        nc = NC(sample_size=60)
        nc.resolve_plan(mw, Min(2), 3)
        assert mw.stats.total_accesses == 0

    def test_adapts_to_cost_scenario(self):
        """The headline behaviour: the same NC instance picks structurally
        different plans as costs change."""
        data = uniform(400, 2, seed=20)
        nc = NC(sample_size=100, optimizer=NCOptimizer(scheme=NaiveGrid(5)))
        fn = Min(2)

        mw_cheap_ra = Middleware.over(data, CostModel.uniform(2, cs=1.0, cr=0.0))
        plan_cheap = nc.resolve_plan(mw_cheap_ra, fn, 5)

        mw_no_ra = Middleware.over(data, CostModel.no_random(2))
        plan_no_ra = nc.resolve_plan(mw_no_ra, fn, 5)

        # Free probes: barely descend. No probes: descend deep.
        assert max(plan_cheap.depths) >= max(plan_no_ra.depths)

    def test_respects_universe_mode(self, small_uniform):
        mw = Middleware.over(
            small_uniform, CostModel.no_sorted(2), no_wild_guesses=False
        )
        result = NC(sample_size=50).run(mw, Min(2), 3)
        assert_valid_topk(result, small_uniform, Min(2), 3)
        assert mw.stats.total_sorted == 0


class TestAllScenarioCells:
    """NC must answer correctly in every Figure 2 matrix cell."""

    @pytest.mark.parametrize(
        "model_factory, universe",
        [
            (lambda: CostModel.uniform(2), False),
            (lambda: CostModel.expensive_random(2), False),
            (lambda: CostModel.cheap_random(2), False),
            (lambda: CostModel.no_random(2), False),
            (lambda: CostModel.no_sorted(2), True),
            (lambda: CostModel.uniform(2, cs=1.0, cr=0.0), False),
        ],
        ids=["uniform", "expensive-ra", "cheap-ra", "no-ra", "no-sa", "zero-ra"],
    )
    def test_correct_in_cell(self, small_uniform, model_factory, universe):
        mw = Middleware.over(
            small_uniform, model_factory(), no_wild_guesses=not universe
        )
        result = NC(sample_size=50).run(mw, Min(2), 3)
        assert_valid_topk(result, small_uniform, Min(2), 3)
