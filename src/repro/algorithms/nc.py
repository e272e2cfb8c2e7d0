"""NC packaged as a runnable algorithm: optimize, then execute.

This wraps the two halves of the paper's system -- the
:class:`~repro.optimizer.NCOptimizer` (Section 7) and the
:class:`~repro.core.FrameworkNC` engine with an SR/G policy (Section 6) --
behind the same :class:`TopKAlgorithm` interface the baselines implement,
so head-to-head cost comparisons are one harness call.

Planning modes, in precedence order:

* an explicit :class:`~repro.optimizer.SRGPlan` (``plan=...``) -- run it
  as-is;
* a ``planner`` callable ``(middleware, fn, k) -> SRGPlan`` -- e.g. a
  closure over a true-distribution sample;
* neither: the default self-contained planner builds a **dummy uniform
  sample** (the paper's worst case: no knowledge of the real score
  distributions) and optimizes with the configured scheme. Planning
  simulates on the sample only; it performs no accesses on the real
  middleware, so the reported run cost is purely execution.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.algorithms.base import TopKAlgorithm
from repro.core.framework import FrameworkNC
from repro.core.policies import SRGPolicy
from repro.optimizer.optimizer import NCOptimizer
from repro.optimizer.plan import SRGPlan
from repro.optimizer.replan import (
    ReplanConfig,
    ReplanController,
    plan_fingerprint,
)
from repro.optimizer.sampling import dummy_uniform_sample
from repro.scoring.functions import ScoringFunction
from repro.sources.middleware import Middleware
from repro.types import QueryResult

Planner = Callable[[Middleware, ScoringFunction, int], SRGPlan]


class NC(TopKAlgorithm):
    """The unified cost-based algorithm (the paper's system)."""

    name = "NC"

    def __init__(
        self,
        plan: Optional[SRGPlan] = None,
        planner: Optional[Planner] = None,
        optimizer: Optional[NCOptimizer] = None,
        sample_size: int = 100,
        seed: int = 0,
        replan: Optional[ReplanConfig] = None,
    ):
        if plan is not None and planner is not None:
            raise ValueError("pass either a fixed plan or a planner, not both")
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self.plan = plan
        self.planner = planner
        self.optimizer = optimizer if optimizer is not None else NCOptimizer()
        self.sample_size = sample_size
        self.seed = seed
        self.replan = replan

    def _default_planner(
        self,
        middleware: Middleware,
        fn: ScoringFunction,
        k: int,
        warm_start: Optional[list[tuple[float, ...]]] = None,
    ) -> SRGPlan:
        sample = dummy_uniform_sample(middleware.m, self.sample_size, self.seed)
        kwargs: dict[str, object] = {}
        if warm_start is not None:
            kwargs["warm_start"] = warm_start
        return self.optimizer.plan(
            sample,
            fn,
            k,
            middleware.n_objects,
            middleware.cost_model,
            no_wild_guesses=middleware.no_wild_guesses,
            **kwargs,  # type: ignore[arg-type]
        )

    def resolve_plan(
        self,
        middleware: Middleware,
        fn: ScoringFunction,
        k: int,
        warm_start: Optional[list[tuple[float, ...]]] = None,
    ) -> SRGPlan:
        """The plan this algorithm would execute on the given query.

        ``warm_start`` seeds the optimizer's search with depth vectors
        from previous winning plans (serving layers remember them per
        scenario); fixed-plan and custom-planner modes ignore it.
        """
        if self.plan is not None:
            return self.plan
        if self.planner is not None:
            return self.planner(middleware, fn, k)
        return self._default_planner(middleware, fn, k, warm_start=warm_start)

    def controller_for(
        self, middleware: Middleware, fn: ScoringFunction, k: int, plan: SRGPlan
    ) -> ReplanController:
        """Build the mid-flight replanning controller for one run.

        The controller reasons over the same knowledge model the default
        planner optimizes on (the seeded dummy uniform sample) -- even in
        fixed-plan and custom-planner modes, where it is the only sample
        available to re-search against.
        """
        sample = dummy_uniform_sample(middleware.m, self.sample_size, self.seed)
        return ReplanController(
            sample,
            fn,
            k,
            middleware.n_objects,
            middleware.cost_model,
            initial_plan=plan,
            config=self.replan,
            optimizer=self.optimizer,
            no_wild_guesses=middleware.no_wild_guesses,
        )

    def run(
        self, middleware: Middleware, fn: ScoringFunction, k: int
    ) -> QueryResult:
        plan = self.resolve_plan(middleware, fn, k)
        policy = SRGPolicy(plan.depths, plan.schedule)
        # Mode "off" builds no controller at all: the run (result
        # metadata included) is byte-identical to a replan-less engine.
        controller = (
            self.controller_for(middleware, fn, k, plan)
            if self.replan is not None and self.replan.mode != "off"
            else None
        )
        engine = FrameworkNC(middleware, fn, k, policy, replan=controller)
        engine.plan_id = plan_fingerprint(plan)
        result = engine.run()
        result.algorithm = self.name
        result.metadata["plan"] = plan.describe()
        result.metadata["depths"] = plan.depths
        result.metadata["schedule"] = plan.schedule
        result.metadata["estimator_runs"] = plan.estimator_runs
        if controller is not None:
            result.metadata["depths"] = controller.plan.depths
            result.metadata["schedule"] = controller.plan.schedule
            result.metadata["plan"] = controller.plan.describe()
            result.metadata["initial_plan"] = plan.describe()
        return result
