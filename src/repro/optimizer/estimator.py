"""Simulation-based plan cost estimation (Section 7.3).

Boolean optimizers estimate plan costs analytically from per-predicate
selectivities; top-k queries aggregate predicates through an *arbitrary*
monotone function, so the aggregate effect "cannot be quantified by
analytic composition ... but only by simulation runs". The estimator
therefore *executes* each candidate SR/G plan on a small sample database:

* the sample plays the database, with the same cost model and wild-guess
  setting as the real scenario;
* the retrieval size is scaled proportionally,
  ``k_s = max(1, round(k * s / n))``;
* the measured sample cost is scaled back by ``n / s``.

Two execution paths produce that sample cost:

* the **reference path** builds a fresh
  :class:`~repro.sources.middleware.Middleware` and steps
  :class:`~repro.core.framework.FrameworkNC` object-by-object -- the
  engine itself, trivially correct, but re-sorting the sample and paying
  the full access-layer machinery on every call;
* the **kernel path** (:mod:`repro.optimizer.kernel`) replays the same
  algorithm on a :class:`~repro.optimizer.kernel.SampleIndex` built once
  per estimator, bitwise-identical by construction.

``vectorized`` selects between them: ``False`` is reference-only,
``True`` is kernel-only (cross-checks raise
:class:`~repro.exceptions.KernelMismatchError`), and ``"auto"`` (the
default) runs the kernel but spot-verifies its first few simulations
against the reference and *permanently falls back* if they ever disagree
-- fast in the steady state, self-validating on every fresh estimator.

Results are memoized per ``(Delta, H)`` in a bounded LRU so search
schemes revisiting a configuration (hill-climbing does constantly) pay
once; the run counter still reports *distinct* simulation runs, the
optimization-overhead metric of the scheme-comparison experiment.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence, Union

from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.data.dataset import Dataset
from repro.exceptions import KernelMismatchError, ReproError
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.kernel import SampleIndex
from repro.scoring.functions import ScoringFunction
from repro.sources.cost import CostModel
from repro.sources.middleware import Middleware

#: Plan key: exact depth floats + the schedule permutation. Depths are
#: produced deterministically by the search schemes, so exact equality is
#: the correct notion of "same plan" -- rounding (an earlier revision
#: rounded to 6 digits) collides distinct fine-step hill-climb depths.
PlanKey = tuple[tuple[float, ...], tuple[int, ...]]

#: How many distinct simulations ``vectorized="auto"`` cross-checks
#: against the reference engine before trusting the kernel outright.
AUTO_VERIFY_RUNS = 3


class CostEstimator:
    """Estimates full-database SR/G plan costs by sample simulation.

    Args:
        sample: the sample database (true-distribution or dummy).
        fn: the query's scoring function.
        k: the query's retrieval size (on the full database).
        n_total: the full database size the estimate scales to.
        cost_model: the scenario's access costs.
        no_wild_guesses: mirror of the real middleware's setting.
        vectorized: ``True`` | ``False`` | ``"auto"`` -- see the module
            docstring. ``"auto"`` is the default.
        verify: cross-check policy for kernel simulations. ``None``
            (default) verifies the first :data:`AUTO_VERIFY_RUNS` distinct
            simulations in ``"auto"`` mode and none in ``True`` mode;
            ``True`` verifies every simulation; ``False`` verifies none.
        cache_size: LRU capacity of the plan-cost memo (``None`` =
            unbounded, the pre-bounding behaviour; serving processes
            should keep the default cap).
        metrics: optional :class:`~repro.obs.MetricsRegistry` fed with
            run/cache/fallback counters (``repro_estimator_*``,
            docs/OBSERVABILITY.md).
    """

    def __init__(
        self,
        sample: Dataset,
        fn: ScoringFunction,
        k: int,
        n_total: int,
        cost_model: CostModel,
        no_wild_guesses: bool = True,
        min_sample_k: Optional[int] = None,
        max_amplified_size: int = 5000,
        vectorized: Union[bool, str] = "auto",
        verify: Optional[bool] = None,
        cache_size: Optional[int] = 65536,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_total < 1:
            raise ValueError(f"n_total must be >= 1, got {n_total}")
        if sample.m != cost_model.m:
            raise ValueError("sample width and cost model width differ")
        if fn.arity != sample.m:
            raise ValueError("scoring function arity and sample width differ")
        if vectorized not in (True, False, "auto"):
            raise ValueError(
                f'vectorized must be True, False or "auto", got {vectorized!r}'
            )
        if cache_size is not None and cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {cache_size}")
        if min_sample_k is not None:
            if min_sample_k < 1:
                raise ValueError(f"min_sample_k must be >= 1, got {min_sample_k}")
            plain_k = max(1, round(k * sample.n / n_total))
            if plain_k < min_sample_k:
                # Proportional scaling would simulate an unrealistically
                # tiny retrieval; bootstrap-amplify the sample until the
                # scaled retrieval size is meaningful (capped to bound
                # simulation cost).
                from repro.optimizer.sampling import bootstrap_sample

                target = min(
                    max_amplified_size,
                    max(sample.n, -(-min_sample_k * n_total // k)),
                )
                if target > sample.n:
                    sample = bootstrap_sample(sample, target, seed=0)
        self.sample = sample
        self.fn = fn
        self.k = k
        self.n_total = n_total
        self.cost_model = cost_model
        self.no_wild_guesses = no_wild_guesses
        self.sample_k = max(1, round(k * sample.n / n_total))
        self.scale = n_total / sample.n
        self.vectorized = vectorized
        self.verify = verify
        self.cache_size = cache_size
        self._cache: OrderedDict[PlanKey, float] = OrderedDict()
        self._runs = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._kernel_runs = 0
        self._reference_runs = 0
        self._fallbacks = 0
        self._index: Optional[SampleIndex] = None
        self._kernel_enabled = vectorized in (True, "auto")
        if verify is True:
            self._verify_remaining = float("inf")
        elif verify is None and vectorized == "auto":
            self._verify_remaining = float(AUTO_VERIFY_RUNS)
        else:
            self._verify_remaining = 0.0
        self._metrics = metrics

    def _m_inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        if self._metrics is not None:
            self._metrics.inc(name, value, **labels)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def runs(self) -> int:
        """Distinct simulation runs performed (the optimizer's overhead).

        One per distinct plan simulated, independent of execution path;
        verification replays do not add to it.
        """
        return self._runs

    @property
    def cache_hits(self) -> int:
        """Estimates answered from the plan-cost memo."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """Estimates that required a fresh simulation."""
        return self._cache_misses

    @property
    def kernel_runs(self) -> int:
        """Simulations executed on the fast-path kernel."""
        return self._kernel_runs

    @property
    def reference_runs(self) -> int:
        """Simulations executed on the reference engine (incl. cross-checks)."""
        return self._reference_runs

    @property
    def fallbacks(self) -> int:
        """Kernel simulations abandoned to the reference path (auto mode)."""
        return self._fallbacks

    @property
    def kernel_active(self) -> bool:
        """Whether new simulations currently take the kernel path."""
        return self._kernel_enabled

    def cache_info(self) -> dict:
        """Memo statistics: hits, misses, current size, and the cap."""
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._cache),
            "cap": self.cache_size,
        }

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def _key(
        self, depths: Sequence[float], schedule: Sequence[int]
    ) -> PlanKey:
        return (
            tuple(float(d) for d in depths),
            tuple(int(p) for p in schedule),
        )

    def _cache_get(self, key: PlanKey) -> Optional[float]:
        cost = self._cache.get(key)
        if cost is not None:
            self._cache.move_to_end(key)
        return cost

    def _cache_put(self, key: PlanKey, cost: float) -> None:
        self._cache[key] = cost
        self._cache.move_to_end(key)
        if self.cache_size is not None:
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Simulation paths
    # ------------------------------------------------------------------

    def _reference_cost(
        self, depths: tuple[float, ...], schedule: tuple[int, ...]
    ) -> float:
        middleware = Middleware.over(
            self.sample,
            self.cost_model,
            no_wild_guesses=self.no_wild_guesses,
        )
        policy = SRGPolicy(depths, schedule)
        engine = FrameworkNC(middleware, self.fn, self.sample_k, policy)
        engine.run()
        self._reference_runs += 1
        self._m_inc("repro_estimator_runs_total", path="reference")
        return middleware.stats.total_cost() * self.scale

    def _kernel_cost(
        self, depths: tuple[float, ...], schedule: tuple[int, ...]
    ) -> float:
        if self._index is None:
            self._index = SampleIndex(
                self.sample,
                self.cost_model,
                no_wild_guesses=self.no_wild_guesses,
            )
        index = self._index
        try:
            cost = (
                index.simulate_cost(self.fn, self.sample_k, depths, schedule)
                * self.scale
            )
        except (ReproError, ValueError):
            # Conditions the reference engine raises too (unanswerable
            # query, bad plan): genuine errors in both paths, propagate.
            raise
        except Exception:
            if self.vectorized is True:
                raise
            # Defensive: an unexpected kernel bug in auto mode degrades
            # to the (slower, trivially correct) reference path.
            self._fallbacks += 1
            self._m_inc("repro_estimator_fallbacks_total")
            self._kernel_enabled = False
            return self._reference_cost(depths, schedule)
        self._kernel_runs += 1
        self._m_inc("repro_estimator_runs_total", path="kernel")
        if self._verify_remaining > 0:
            self._verify_remaining -= 1
            reference = self._reference_cost(depths, schedule)
            if reference != cost:
                if self.vectorized is True:
                    raise KernelMismatchError(
                        f"kernel cost {cost!r} != reference cost "
                        f"{reference!r} for plan depths={depths} "
                        f"schedule={schedule}"
                    )
                self._fallbacks += 1
                self._m_inc("repro_estimator_fallbacks_total")
                self._kernel_enabled = False
                return reference
        return cost

    def _simulate(
        self, depths: tuple[float, ...], schedule: tuple[int, ...]
    ) -> float:
        self._runs += 1
        if self._kernel_enabled:
            return self._kernel_cost(depths, schedule)
        return self._reference_cost(depths, schedule)

    # ------------------------------------------------------------------
    # Public estimation API
    # ------------------------------------------------------------------

    def estimate(
        self,
        depths: Sequence[float],
        schedule: Optional[Sequence[int]] = None,
    ) -> float:
        """Estimated full-database cost of the SR/G plan ``(Delta, H)``.

        ``schedule`` defaults to the identity order. A memoized plan
        counts as a cache hit and costs nothing; an uncached one is one
        simulation run on the current execution path.
        """
        key = self._key(
            depths, schedule if schedule is not None else range(self.sample.m)
        )
        cached = self._cache_get(key)
        if cached is not None:
            self._cache_hits += 1
            self._m_inc("repro_estimator_cache_total", event="hit")
            return cached
        self._cache_misses += 1
        self._m_inc("repro_estimator_cache_total", event="miss")
        cost = self._simulate(*key)
        self._cache_put(key, cost)
        return cost
