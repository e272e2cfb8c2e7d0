"""Tests for sampling and the simulation-based cost estimator."""

import pytest

from repro.data.generators import uniform, zipf_skewed
from repro.optimizer.estimator import CostEstimator
from repro.optimizer.sampling import dummy_uniform_sample, sample_from_dataset
from repro.scoring.functions import Avg, Min
from repro.sources.cost import CostModel


class TestSampling:
    def test_dummy_shape(self):
        sample = dummy_uniform_sample(3, 40, seed=1)
        assert sample.n == 40
        assert sample.m == 3

    def test_dummy_deterministic(self):
        import numpy as np

        a = dummy_uniform_sample(2, 10, seed=5)
        b = dummy_uniform_sample(2, 10, seed=5)
        assert np.array_equal(a.matrix, b.matrix)

    def test_dummy_validation(self):
        with pytest.raises(ValueError):
            dummy_uniform_sample(0, 10)
        with pytest.raises(ValueError):
            dummy_uniform_sample(2, 0)

    def test_true_sample_rows_from_dataset(self):
        data = uniform(50, 2, seed=2)
        sample = sample_from_dataset(data, 10, seed=3)
        originals = {tuple(row) for row in data.matrix}
        assert all(tuple(row) in originals for row in sample.matrix)


class TestEstimatorScaling:
    def test_sample_k_proportional(self):
        sample = dummy_uniform_sample(2, 100, seed=0)
        est = CostEstimator(sample, Min(2), 50, 1000, CostModel.uniform(2))
        assert est.sample_k == 5
        assert est.scale == pytest.approx(10.0)

    def test_sample_k_at_least_one(self):
        sample = dummy_uniform_sample(2, 10, seed=0)
        est = CostEstimator(sample, Min(2), 1, 100000, CostModel.uniform(2))
        assert est.sample_k == 1

    def test_estimate_is_scaled_sample_cost(self):
        data = uniform(100, 2, seed=4)
        est = CostEstimator(data, Min(2), 5, 1000, CostModel.uniform(2))
        # The sample *is* a dataset: running the plan directly on it must
        # give exactly estimate / scale.
        from repro.core.framework import FrameworkNC
        from repro.core.policies import SRGPolicy
        from repro.sources.middleware import Middleware

        mw = Middleware.over(data, CostModel.uniform(2))
        FrameworkNC(mw, Min(2), 1, SRGPolicy([0.5, 0.5])).run()
        assert est.estimate([0.5, 0.5]) == pytest.approx(
            mw.stats.total_cost() * 10.0
        )


class TestEstimatorCaching:
    def test_repeat_queries_hit_cache(self):
        sample = dummy_uniform_sample(2, 50, seed=0)
        est = CostEstimator(sample, Avg(2), 5, 500, CostModel.uniform(2))
        a = est.estimate([0.5, 0.5])
        runs_after_first = est.runs
        b = est.estimate([0.5, 0.5])
        assert a == b
        assert est.runs == runs_after_first == 1

    def test_distinct_schedules_are_distinct_keys(self):
        sample = dummy_uniform_sample(2, 50, seed=0)
        est = CostEstimator(sample, Min(2), 5, 500, CostModel.uniform(2))
        est.estimate([1.0, 1.0], schedule=(0, 1))
        est.estimate([1.0, 1.0], schedule=(1, 0))
        assert est.runs == 2

    def test_close_depths_are_distinct_keys(self):
        # Regression: keys used to round depths to 6 digits, colliding
        # distinct fine-step hill-climb depths into one memo entry and
        # silently returning the wrong plan's cost. Keys are now exact.
        sample = dummy_uniform_sample(2, 50, seed=0)
        est = CostEstimator(sample, Min(2), 5, 500, CostModel.uniform(2))
        est.estimate([0.5, 0.5])
        est.estimate([0.5 + 1e-9, 0.5])
        assert est.runs == 2
        # ... while bitwise-equal depths still share one entry.
        est.estimate([0.5, 0.5])
        assert est.runs == 2

    def test_cache_is_bounded_lru(self):
        sample = dummy_uniform_sample(2, 30, seed=0)
        est = CostEstimator(
            sample, Min(2), 5, 300, CostModel.uniform(2), cache_size=2
        )
        est.estimate([0.1, 0.1])
        est.estimate([0.2, 0.2])
        est.estimate([0.1, 0.1])  # refresh recency of the first entry
        est.estimate([0.3, 0.3])  # evicts [0.2, 0.2], not [0.1, 0.1]
        assert est.cache_info()["size"] == 2
        runs = est.runs
        est.estimate([0.1, 0.1])
        assert est.runs == runs  # still cached
        est.estimate([0.2, 0.2])
        assert est.runs == runs + 1  # was evicted, re-simulated

    def test_hit_miss_counters(self):
        sample = dummy_uniform_sample(2, 30, seed=0)
        est = CostEstimator(sample, Min(2), 5, 300, CostModel.uniform(2))
        est.estimate([0.5, 0.5])
        est.estimate([0.5, 0.5])
        est.estimate([0.4, 0.4])
        assert est.cache_hits == 1
        assert est.cache_misses == 2
        info = est.cache_info()
        assert info["hits"] == 1 and info["misses"] == 2
        assert info["size"] == 2


class TestEstimatorFidelity:
    def test_relative_order_of_plans_predicted(self):
        """The estimator's reason for existing: on a same-distribution
        sample it must rank plan costs like the full database does."""
        data = uniform(2000, 2, seed=6)
        fn = Min(2)
        model = CostModel.expensive_random(2, ratio=10.0)
        sample = sample_from_dataset(data, 200, seed=7)
        est = CostEstimator(sample, fn, 10, data.n, model)

        from repro.core.framework import FrameworkNC
        from repro.core.policies import SRGPolicy
        from repro.sources.middleware import Middleware

        def true_cost(depths):
            mw = Middleware.over(data, model)
            FrameworkNC(mw, fn, 10, SRGPolicy(depths)).run()
            return mw.stats.total_cost()

        plans = [(1.0, 1.0), (0.7, 0.7), (0.0, 0.0)]
        estimated = [est.estimate(p) for p in plans]
        actual = [true_cost(p) for p in plans]
        est_order = sorted(range(3), key=lambda i: estimated[i])
        true_order = sorted(range(3), key=lambda i: actual[i])
        assert est_order == true_order

    def test_estimate_within_factor_on_true_sample(self):
        data = zipf_skewed(2000, 2, skew=2.0, seed=8)
        fn = Avg(2)
        model = CostModel.uniform(2)
        sample = sample_from_dataset(data, 200, seed=9)
        est = CostEstimator(sample, fn, 10, data.n, model)

        from repro.core.framework import FrameworkNC
        from repro.core.policies import SRGPolicy
        from repro.sources.middleware import Middleware

        mw = Middleware.over(data, model)
        FrameworkNC(mw, fn, 10, SRGPolicy([0.8, 0.8])).run()
        actual = mw.stats.total_cost()
        estimated = est.estimate([0.8, 0.8])
        assert actual / 4 <= estimated <= actual * 4


class TestEstimatorValidation:
    def test_width_mismatch(self):
        sample = dummy_uniform_sample(2, 10, seed=0)
        with pytest.raises(ValueError):
            CostEstimator(sample, Min(2), 1, 100, CostModel.uniform(3))
        with pytest.raises(ValueError):
            CostEstimator(sample, Min(3), 1, 100, CostModel.uniform(2))

    def test_k_and_n_validated(self):
        sample = dummy_uniform_sample(2, 10, seed=0)
        with pytest.raises(ValueError):
            CostEstimator(sample, Min(2), 0, 100, CostModel.uniform(2))
        with pytest.raises(ValueError):
            CostEstimator(sample, Min(2), 1, 0, CostModel.uniform(2))
