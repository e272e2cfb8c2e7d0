"""Global random-access schedule optimization (the G of SR/G).

Section 7.1's second heuristic fixes one global predicate order ``H`` for
all random accesses, following the global scheduling of MPro [5]: when a
task offers several probes, take the target's next unevaluated predicate
according to ``H``.

Two ways to pick ``H``:

* **benefit/cost ranking** (the closed-form heuristic of [5]): probe first
  the predicate with the largest expected bound reduction per unit cost,
  ``(1 - mu_i) / cr_i``, with ``mu_i`` the sample mean score. A low mean
  means probing usually reveals a poor score -- pruning the object -- and
  a cheap probe means that pruning is bought cheaply. Zero-cost probes
  (Example 2's bundled attributes) go first outright; infinite-cost
  (unsupported) ones go last, tie-broken by index.
* **exhaustive search**: estimate every permutation at fixed depths via
  the simulation estimator; exact but ``m!`` runs, so guarded to small
  ``m``.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import OptimizationError
from repro.optimizer.estimator import CostEstimator
from repro.sources.cost import CostModel


def benefit_cost_schedule(
    sample: Dataset, cost_model: CostModel
) -> tuple[int, ...]:
    """Rank predicates by expected pruning benefit per probe cost."""
    if sample.m != cost_model.m:
        raise ValueError("sample width and cost model width differ")
    means = sample.matrix.mean(axis=0)

    def rank(i: int) -> float:
        cr = cost_model.random_cost(i)
        if math.isinf(cr):
            return -math.inf  # unsupported probes schedule last
        benefit = 1.0 - float(means[i])
        if cr == 0.0:
            return math.inf  # free probes schedule first
        return benefit / cr

    order = sorted(range(sample.m), key=lambda i: (-rank(i), i))
    return tuple(order)


class ScheduleOptimizer:
    """Chooses the global schedule ``H`` (heuristic or exhaustive)."""

    def __init__(self, mode: str = "heuristic", max_exhaustive_m: int = 5):
        if mode not in ("heuristic", "exhaustive"):
            raise OptimizationError(f"unknown schedule mode {mode!r}")
        self.mode = mode
        self.max_exhaustive_m = max_exhaustive_m

    def optimize(
        self,
        estimator: CostEstimator,
        depths: Sequence[float],
        initial: Optional[Sequence[int]] = None,
    ) -> tuple[int, ...]:
        """Pick ``H`` for the given depths.

        ``heuristic`` mode ranks by benefit/cost from the estimator's own
        sample; ``exhaustive`` mode simulates every permutation and keeps
        the cheapest.
        """
        m = estimator.sample.m
        if self.mode == "heuristic":
            return benefit_cost_schedule(estimator.sample, estimator.cost_model)
        if m > self.max_exhaustive_m:
            raise OptimizationError(
                f"exhaustive schedule search over {m}! permutations exceeds "
                f"max_exhaustive_m={self.max_exhaustive_m}"
            )
        best: Optional[tuple[int, ...]] = None
        best_cost = float("inf")
        start = tuple(initial) if initial is not None else tuple(range(m))
        depths = tuple(float(d) for d in depths)
        for perm in itertools.permutations(range(m)):
            cost = estimator.estimate(depths, perm)
            # Prefer the initial schedule on exact ties for stability.
            if cost < best_cost or (cost == best_cost and perm == start):
                best_cost = cost
                best = perm
        assert best is not None
        return best
