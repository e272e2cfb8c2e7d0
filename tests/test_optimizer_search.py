"""Tests for the Delta-search schemes (Naive, Strategies, HClimb)."""

import pytest

from repro.exceptions import OptimizationError
from repro.optimizer.estimator import CostEstimator
from repro.optimizer.sampling import dummy_uniform_sample
from repro.optimizer.search import HillClimb, NaiveGrid, Strategies
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel


def make_estimator(fn=None, model=None, m=2, size=80, k=5, n=800):
    sample = dummy_uniform_sample(m, size, seed=1)
    return CostEstimator(
        sample, fn or Min(m), k, n, model or CostModel.uniform(m)
    )


class TestNaiveGrid:
    def test_finds_grid_optimum(self):
        est = make_estimator()
        result = NaiveGrid(resolution=4).search(est)
        # The result must be the best of all 16 grid points by definition.
        axis = [0.0, 1 / 3, 2 / 3, 1.0]
        best = min(
            est.estimate((a, b)) for a in axis for b in axis
        )
        assert result.cost == pytest.approx(best)

    def test_evaluation_count(self):
        est = make_estimator()
        result = NaiveGrid(resolution=3).search(est)
        assert result.evaluations == 9

    def test_guard_against_blowup(self):
        est = make_estimator(m=2)
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=200, max_points=100).search(est)

    def test_resolution_validated(self):
        est = make_estimator()
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=1).search(est)

    def test_depths_within_cube(self):
        result = NaiveGrid(resolution=4).search(make_estimator())
        assert all(0.0 <= d <= 1.0 for d in result.depths)


class TestStrategies:
    def test_auto_picks_focused_for_min(self):
        scheme = Strategies(strategy="auto")
        assert scheme._families(Min(2)) == ["focused"]

    def test_auto_picks_parallel_for_avg(self):
        scheme = Strategies(strategy="auto")
        assert scheme._families(Avg(2)) == ["parallel"]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OptimizationError):
            Strategies(strategy="bogus")

    def test_search_returns_valid_point(self):
        result = Strategies().search(make_estimator())
        assert all(0.0 <= d <= 1.0 for d in result.depths)
        assert result.evaluations > 0

    def test_focused_family_contains_single_deep_configs(self):
        scheme = Strategies(strategy="focused", resolution=3)
        candidates = scheme._candidates(2, ["focused"])
        assert (0.0, 1.0) in candidates
        assert (1.0, 0.0) in candidates

    def test_refinement_never_worsens(self):
        est = make_estimator()
        result = Strategies().search(est)
        family_best = min(
            est.estimate(point)
            for point in Strategies()._candidates(2, ["focused"])
        )
        assert result.cost <= family_best


class TestHillClimb:
    def test_finds_local_optimum_not_worse_than_starts(self):
        est = make_estimator()
        result = HillClimb(restarts=2).search(est)
        for start in ([0.5, 0.5], [1.0, 1.0], [0.0, 0.0]):
            assert result.cost <= est.estimate(start)

    def test_competitive_with_fine_grid(self):
        """HClimb should land within 15% of the exhaustive grid optimum --
        the quality claim of the paper's Appendix comparison."""
        est = make_estimator(fn=Min(2), model=CostModel.expensive_random(2))
        grid = NaiveGrid(resolution=9).search(est)
        climb = HillClimb(restarts=3).search(est)
        assert climb.cost <= grid.cost * 1.15

    def test_uses_fewer_evaluations_than_fine_grid(self):
        est_a = make_estimator()
        grid = NaiveGrid(resolution=9).search(est_a)
        est_b = make_estimator()
        climb = HillClimb(restarts=2).search(est_b)
        assert climb.evaluations < grid.evaluations

    def test_parameter_validation(self):
        with pytest.raises(OptimizationError):
            HillClimb(restarts=-1)
        with pytest.raises(OptimizationError):
            HillClimb(step=0.1, min_step=0.5)

    def test_deterministic_given_seed(self):
        a = HillClimb(restarts=2, seed=3).search(make_estimator())
        b = HillClimb(restarts=2, seed=3).search(make_estimator())
        assert a.depths == b.depths

    def test_three_predicates(self):
        est = make_estimator(fn=Min(3), model=CostModel.uniform(3), m=3)
        result = HillClimb(restarts=1).search(est)
        assert len(result.depths) == 3


class TestCoarseToFine:
    def test_validation(self):
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=5, coarse_resolution=5)
        with pytest.raises(OptimizationError):
            NaiveGrid(resolution=5, coarse_resolution=1)

    def test_refines_the_coarse_optimum(self):
        coarse_only = NaiveGrid(resolution=3).search(make_estimator(fn=Avg(2)))
        scheme = NaiveGrid(resolution=9, coarse_resolution=3)
        refined = scheme.search(make_estimator(fn=Avg(2)))
        full = NaiveGrid(resolution=9).search(make_estimator(fn=Avg(2)))
        # The coarse best sits on the fine grid, so refinement can only
        # improve on it -- and never beats the exhaustive fine scan.
        assert refined.cost <= coarse_only.cost
        assert refined.cost >= full.cost
        assert "coarse=3" in scheme.describe()

    def test_prices_fewer_plans_than_full_grid(self):
        fine = make_estimator(fn=Avg(2))
        NaiveGrid(resolution=9).search(fine)
        two_stage = make_estimator(fn=Avg(2))
        NaiveGrid(resolution=9, coarse_resolution=3).search(two_stage)
        assert two_stage.runs < fine.runs


class TestWarmStarts:
    def test_warm_starts_only_add_evaluations(self):
        plain_result = HillClimb(seed=7).search(make_estimator(fn=Avg(2)))
        warm_result = HillClimb(seed=7).search(
            make_estimator(fn=Avg(2)),
            warm_starts=[plain_result.depths, (2.0, -1.0)],
        )
        # Out-of-range warm points are clipped, not rejected; canonical
        # starts still run, so the warm search can only do better.
        assert warm_result.cost <= plain_result.cost


class TestSchemeAdaptivity:
    def test_min_function_yields_focused_depths(self):
        """Example 11 / Figure 11(b): under F=min (scenario S2) the optimum
        is *focused* -- one predicate descends, the other is served by
        probes (depth pinned at 1.0) -- and it beats every equal-depth
        configuration."""
        est = make_estimator(fn=Min(2), size=150, k=5, n=1500)
        result = NaiveGrid(resolution=6).search(est)
        assert max(result.depths) == 1.0
        assert max(result.depths) - min(result.depths) >= 0.35
        equal_depth_best = min(
            est.estimate((d, d)) for d in (0.0, 0.2, 0.4, 0.6, 0.8)
        )
        assert result.cost < equal_depth_best

    def test_expensive_probes_forbid_focused_plans(self):
        """With cr = 10*cs, probe-heavy focused plans lose: the optimum
        keeps every depth below 1.0 (descend rather than probe)."""
        est = make_estimator(
            fn=Min(2), model=CostModel.expensive_random(2, ratio=10.0),
            size=150, k=5, n=1500,
        )
        result = NaiveGrid(resolution=6).search(est)
        assert max(result.depths) < 1.0

    def test_free_probes_disable_some_descent(self):
        """Example 2's zero-cost probes: at least one list never descends
        (its depth pins at 1.0) because probing it is free."""
        est = make_estimator(
            fn=Min(2), model=CostModel.uniform(2, cs=1.0, cr=0.0)
        )
        result = NaiveGrid(resolution=6).search(est)
        assert max(result.depths) == 1.0
        assert result.cost <= est.estimate((0.5, 0.5))
