"""Multi-source query optimization (paper requirement 3).

The optimizer is the pipeline's middle third, and since the plan-IR
redesign it is a thin orchestrator over :mod:`repro.mediator.plan`:

1. **build** — the decomposed subqueries become a logical tree
   (:func:`repro.mediator.plan.build_logical`);
2. **optimize** — :class:`repro.mediator.plan.RuleOptimizer` rewrites
   the tree via named rule passes (predicate pushdown, link-fetch
   pruning, selectivity ordering, semijoin anchor selection — one per
   :class:`OptimizerOptions` switch), each recording whether it fired;
3. **lower** — :class:`repro.mediator.plan.PhysicalPlanner` lowers the
   optimized tree to a :class:`~repro.mediator.plan.PhysicalPlan`, the
   executable stage DAG the :class:`~repro.mediator.executor.Executor`
   walks.

``Optimizer.plan()`` still takes subqueries and returns the plan in
one call, so callers that never need the intermediate layers keep
their old shape.
"""

from repro.mediator.plan import (
    OptimizerOptions,
    PhysicalPlanner,
    RuleOptimizer,
    RuleReport,
    build_logical,
)

__all__ = ["Optimizer", "OptimizerOptions"]


class Optimizer:
    """Plan subqueries against a registry of wrappers."""

    def __init__(self, wrappers_by_name, options=None):
        self.wrappers = wrappers_by_name
        self.options = options or OptimizerOptions()
        self._rules = RuleOptimizer(self.wrappers, self.options)
        self._planner = PhysicalPlanner(self.wrappers)

    def build_logical(self, subqueries, select=()):
        """The unoptimized logical tree for decomposed subqueries."""
        return build_logical(subqueries, select=select)

    def optimize_logical(self, logical):
        """``(optimized logical plan, rule report)``."""
        return self._rules.optimize(logical)

    def lower(self, logical, rules=None):
        """Lower a logical tree to its executable physical plan."""
        if rules is None:
            rules = RuleReport()
        return self._planner.lower(logical, rules=rules)

    def plan(self, subqueries, select=()):
        """Build, optimize and lower in one call."""
        logical = self.build_logical(subqueries, select=select)
        optimized, rules = self.optimize_logical(logical)
        return self.lower(optimized, rules=rules)
