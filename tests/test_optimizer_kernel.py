"""Differential tests: the fast-path kernel vs. the reference engine.

The kernel (:mod:`repro.optimizer.kernel`) is specified to be
*bitwise-identical* to running ``FrameworkNC`` over a fresh middleware --
same per-predicate access counts, same Eq. 1 cost, same error conditions.
These tests hold it to that bar on adversarial inputs (ties, endpoint
scores, partial capabilities, both wild-guess settings), and pin the
estimator's ``vectorized`` switch semantics on top.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.exceptions import KernelMismatchError, UnanswerableQueryError
from repro.optimizer.estimator import AUTO_VERIFY_RUNS, CostEstimator
from repro.optimizer.kernel import SampleIndex, scalar_evaluator
from repro.optimizer.sampling import dummy_uniform_sample
from repro.scoring.functions import (
    Avg,
    Max,
    Median,
    Min,
    Product,
    WeightedSum,
)
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware

# Deliberately includes exact ties and the interval endpoints.
score_value = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
)

depth_value = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32),
)


def _fn_for(draw, m):
    kind = draw(st.sampled_from(["min", "max", "avg", "wsum", "prod", "median"]))
    if kind == "min":
        return Min(m)
    if kind == "max":
        return Max(m)
    if kind == "avg":
        return Avg(m)
    if kind == "prod":
        return Product(m)
    if kind == "median":
        return Median(m)
    weights = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    return WeightedSum(weights)


@st.composite
def instances(draw, max_m: int = 3):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=1, max_value=max_m))
    rows = draw(
        st.lists(
            st.lists(score_value, min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    dataset = Dataset(np.array(rows, dtype=float))
    fn = _fn_for(draw, m)
    k = draw(st.integers(min_value=1, max_value=n))
    depths = tuple(draw(st.lists(depth_value, min_size=m, max_size=m)))
    schedule = tuple(draw(st.permutations(range(m))))
    # Per-predicate capabilities: both, sorted-only, or random-only.
    caps = draw(
        st.lists(
            st.sampled_from(["both", "sorted", "random"]),
            min_size=m,
            max_size=m,
        )
    )
    cs = tuple(
        1.0 + i if caps[i] != "random" else math.inf for i in range(m)
    )
    cr = tuple(
        2.0 + i if caps[i] != "sorted" else math.inf for i in range(m)
    )
    model = CostModel(cs, cr)
    no_wild_guesses = draw(st.booleans())
    return dataset, fn, k, depths, schedule, model, no_wild_guesses


def _reference_counts(dataset, model, no_wild_guesses, fn, k, depths, schedule):
    middleware = Middleware.over(
        dataset, model, no_wild_guesses=no_wild_guesses
    )
    FrameworkNC(middleware, fn, k, SRGPolicy(depths, schedule)).run()
    return (
        middleware.stats.sorted_counts,
        middleware.stats.random_counts,
        middleware.stats.total_cost(),
    )


class TestKernelDifferential:
    @settings(max_examples=120, deadline=None)
    @given(instances())
    def test_counts_and_cost_match_reference(self, instance):
        dataset, fn, k, depths, schedule, model, no_wild_guesses = instance
        index = SampleIndex(dataset, model, no_wild_guesses=no_wild_guesses)
        try:
            counts = index.simulate(fn, k, depths, schedule)
            kernel_error = None
        except UnanswerableQueryError as exc:
            counts = None
            kernel_error = type(exc)
        try:
            reference = _reference_counts(
                dataset, model, no_wild_guesses, fn, k, depths, schedule
            )
            reference_error = None
        except UnanswerableQueryError as exc:
            reference = None
            reference_error = type(exc)
        assert kernel_error == reference_error
        if counts is not None:
            assert counts.sorted_counts == reference[0]
            assert counts.random_counts == reference[1]
            # Bitwise, not approximate: shared eq1_cost accumulation.
            assert counts.cost(model) == reference[2]

    @settings(max_examples=60, deadline=None)
    @given(instances())
    def test_index_is_reusable_across_plans(self, instance):
        dataset, fn, k, depths, schedule, model, no_wild_guesses = instance
        index = SampleIndex(dataset, model, no_wild_guesses=no_wild_guesses)
        plans = [depths, tuple(0.0 for _ in depths), tuple(1.0 for _ in depths)]
        for plan in plans:
            try:
                first = index.simulate(fn, k, plan, schedule)
            except UnanswerableQueryError:
                continue
            second = index.simulate(fn, k, plan, schedule)
            assert first == second

    def test_unseen_no_wild_guess_unanswerable_parity(self):
        # No sorted access anywhere + no wild guesses: nothing can ever
        # be discovered. Both paths must refuse identically.
        dataset = dummy_uniform_sample(2, 10, seed=0)
        model = CostModel.no_sorted(2)
        index = SampleIndex(dataset, model, no_wild_guesses=True)
        with pytest.raises(UnanswerableQueryError):
            index.simulate(Min(2), 1, (0.5, 0.5), (0, 1))
        with pytest.raises(UnanswerableQueryError):
            _reference_counts(
                dataset, model, True, Min(2), 1, (0.5, 0.5), (0, 1)
            )

    def test_wild_guesses_probe_only_scenario_matches(self):
        # With wild guesses allowed, a probe-only scenario is answerable;
        # the kernel must replay the schedule-ordered probing exactly.
        dataset = dummy_uniform_sample(3, 12, seed=1)
        model = CostModel.no_sorted(3)
        index = SampleIndex(dataset, model, no_wild_guesses=False)
        for schedule in [(0, 1, 2), (2, 0, 1)]:
            counts = index.simulate(Avg(3), 2, (0.5, 0.5, 0.5), schedule)
            reference = _reference_counts(
                dataset, model, False, Avg(3), 2, (0.5, 0.5, 0.5), schedule
            )
            assert counts.sorted_counts == reference[0]
            assert counts.random_counts == reference[1]

    def test_plan_validation_matches_policy(self):
        dataset = dummy_uniform_sample(2, 5, seed=0)
        index = SampleIndex(dataset, CostModel.uniform(2))
        with pytest.raises(ValueError):
            index.simulate(Min(2), 1, (1.5, 0.0), (0, 1))
        with pytest.raises(ValueError):
            index.simulate(Min(2), 1, (0.5, 0.5), (0, 0))
        with pytest.raises(ValueError):
            index.simulate(Min(2), 0, (0.5, 0.5), (0, 1))
        with pytest.raises(ValueError):
            index.simulate(Min(3), 1, (0.5, 0.5), (0, 1))


class TestScalarEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_bitwise_equal_to_evaluate(self, m, data):
        fn = _fn_for(data.draw, m)
        fast = scalar_evaluator(fn)
        vals = data.draw(
            st.lists(score_value, min_size=m, max_size=m)
        )
        assert fast(vals) == fn.evaluate(vals)


class TestVectorizedSwitch:
    def _estimator(self, **kwargs):
        sample = dummy_uniform_sample(2, 60, seed=3)
        return CostEstimator(
            sample, Avg(2), 5, 600, CostModel.uniform(2), **kwargs
        )

    def test_modes_agree_exactly(self):
        plans = [(0.0, 0.0), (0.3, 0.7), (0.5, 0.5), (1.0, 1.0)]
        costs = {}
        for mode in (True, False, "auto"):
            est = self._estimator(vectorized=mode)
            costs[mode] = [est.estimate(p) for p in plans]
        assert costs[True] == costs[False] == costs["auto"]

    def test_reference_mode_never_touches_kernel(self):
        est = self._estimator(vectorized=False)
        est.estimate([0.5, 0.5])
        assert est.kernel_runs == 0
        assert est.reference_runs == 1
        assert not est.kernel_active

    def test_kernel_mode_never_touches_reference(self):
        est = self._estimator(vectorized=True)
        est.estimate([0.5, 0.5])
        est.estimate([0.2, 0.8])
        assert est.kernel_runs == 2
        assert est.reference_runs == 0

    def test_auto_mode_spot_verifies_then_trusts(self):
        est = self._estimator(vectorized="auto")
        for d in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]:
            est.estimate([d, d])
        assert est.kernel_runs == 6
        assert est.reference_runs == AUTO_VERIFY_RUNS
        assert est.fallbacks == 0
        assert est.kernel_active

    def test_verify_mismatch_raises_in_kernel_mode(self, monkeypatch):
        est = self._estimator(vectorized=True, verify=True)
        monkeypatch.setattr(
            SampleIndex, "simulate_cost", lambda self, *a, **k: 123.456
        )
        with pytest.raises(KernelMismatchError):
            est.estimate([0.5, 0.5])

    def test_verify_mismatch_falls_back_in_auto_mode(self, monkeypatch):
        est = self._estimator(vectorized="auto")
        reference = self._estimator(vectorized=False)
        monkeypatch.setattr(
            SampleIndex, "simulate_cost", lambda self, *a, **k: 123.456
        )
        cost = est.estimate([0.5, 0.5])
        assert cost == reference.estimate([0.5, 0.5])
        assert est.fallbacks == 1
        assert not est.kernel_active
        # Subsequent estimates stay on the reference path.
        est.estimate([0.25, 0.25])
        assert est.kernel_runs == 1  # only the rejected first attempt

    def test_verify_every_run_when_requested(self):
        est = self._estimator(vectorized=True, verify=True)
        for d in [0.1, 0.2, 0.3, 0.4, 0.5]:
            est.estimate([d, d])
        assert est.kernel_runs == 5
        assert est.reference_runs == 5  # one cross-check each

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            self._estimator(vectorized="yes")


class TestBatchEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(instances(max_m=4))
    def test_batch_matches_scalar_loop(self, instance):
        dataset, fn, _k, _d, _s, _model, _nwg = instance
        batch = fn.evaluate_batch(dataset.matrix)
        loop = [fn.evaluate(list(row)) for row in dataset.matrix.tolist()]
        if fn.batch_exact:
            assert list(batch) == loop
        else:
            assert np.allclose(batch, loop, atol=1e-12)

    def test_overall_scores_unchanged_by_batching(self):
        dataset = dummy_uniform_sample(3, 40, seed=2)
        for fn in [Min(3), Max(3), Median(3), Avg(3), Product(3)]:
            scores = dataset.overall_scores(fn)
            loop = [fn(tuple(row)) for row in dataset.matrix.tolist()]
            assert list(scores) == loop

    def test_batch_shape_validated(self):
        with pytest.raises(ValueError):
            Min(2).evaluate_batch(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            Avg(2).evaluate_batch(np.zeros(4))
