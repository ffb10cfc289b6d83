"""The query plan and the rule optimizer (paper requirement 3).

Every query the decomposer produces has one shape: an anchor subquery
plus one subquery per link constraint, joined left to right.  The plan
is that shape and nothing more: a :class:`PhysicalPlan` is an anchor
:class:`FetchStage` plus a tuple of link stages, each carrying
everything the executor needs (pushed/residual/closure conditions,
link join shape, pruning decision, semijoin driver).

:class:`Optimizer` builds one stage per subquery, with every condition
residual (``under`` conditions go to ``closure``), then runs the named
rules of :data:`RULE_NAMES` on ``(anchor, links)``: predicate
pushdown, link-fetch pruning, selectivity ordering and semijoin anchor
selection — one rule per :class:`OptimizerOptions` switch, each
leaving a :class:`RuleRecord` saying whether it fired and why.  Stages
are frozen dataclasses; rules rewrite them with
:func:`dataclasses.replace` (lint rule ANN006 enforces that nothing
mutates a plan object in place).

Planning invariants (locked in by the property suite):

- the multiset of ``(source, purpose)`` stages equals the multiset of
  subqueries, under every OptimizerOptions ablation;
- every condition of a subquery lands in exactly one of its stage's
  pushed, residual or closure conditions;
- the anchor stage is always first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from repro.util.errors import ConfigurationError

#: One predicate in a source's local vocabulary.
ConditionTriple = Tuple[str, str, Any]
Conditions = Tuple[ConditionTriple, ...]


class LinkLike(Protocol):
    """The shape of a decomposed link constraint the planner reads."""

    source_name: str
    mode: str
    via: str
    symbol_join: bool
    reverse_join: bool


class SubQueryLike(Protocol):
    """The shape of a decomposed subquery the optimizer reads."""

    source_name: str
    purpose: str
    local_conditions: Sequence[Tuple[str, str, Any]]
    link: Optional[LinkLike]
    via_anchor_label: Optional[str]


class WrapperLike(Protocol):
    """The wrapper capabilities the optimizer consults."""

    def supports(self, label: str, op: str) -> bool: ...

    def count(self) -> int: ...

    def field_specs(self) -> Mapping[str, Sequence[Any]]: ...


@dataclass(frozen=True)
class OptimizerOptions:
    """Ablation switches; defaults reproduce full ANNODA behaviour.

    Each switch enables one named optimizer rule (see
    :data:`RULE_NAMES`).  ``enable_semijoin`` activates the future-work
    optimization the paper's conclusion calls for ("new approaches of
    query optimization across multi-systems"): when one include-link is
    far more selective than the anchor, its matching ids are fetched
    first and the anchor is retrieved by id-equality pushdown instead
    of by full scan.
    """

    enable_pushdown: bool = True
    enable_pruning: bool = True
    enable_ordering: bool = True
    enable_semijoin: bool = False


#: A link qualifies to drive the semijoin when its estimated rows are
#: below this fraction of the anchor's estimate.
SEMIJOIN_SELECTIVITY_THRESHOLD = 0.25


class SemiJoinSpec(NamedTuple):
    """Anchor retrieval strategy: fetch anchors by the driving link's
    ids instead of scanning (a plain 2-tuple, so equality with
    ``(driver, label)`` pairs holds)."""

    driver_source: str
    via_anchor_label: str


def _render_conditions(conditions: Conditions) -> str:
    return " and ".join(
        f"{label} {op} {value!r}" for label, op, value in conditions
    )


#: The named rewrite passes, in application order; one per
#: OptimizerOptions switch.
RULE_NAMES = (
    "predicate_pushdown",
    "link_fetch_pruning",
    "selectivity_ordering",
    "semijoin_anchor",
)


@dataclass(frozen=True)
class RuleRecord:
    """One rule's outcome: whether it rewrote the plan, and why."""

    rule: str
    fired: bool
    reason: str

    def render(self) -> str:
        status = "fired" if self.fired else "skipped"
        return f"{self.rule}: {status} — {self.reason}"


@dataclass(frozen=True)
class RuleReport:
    """Every rule's record for one optimization, in pass order."""

    records: Tuple[RuleRecord, ...] = ()

    def fired(self) -> Tuple[str, ...]:
        return tuple(r.rule for r in self.records if r.fired)

    def skipped(self) -> Tuple[str, ...]:
        return tuple(r.rule for r in self.records if not r.fired)

    def record(self, rule: str) -> RuleRecord:
        for entry in self.records:
            if entry.rule == rule:
                return entry
        raise KeyError(rule)

    def render(self) -> str:
        lines = ["optimizer rules:"]
        lines.extend(f"  {entry.render()}" for entry in self.records)
        return "\n".join(lines)

    def to_dict(self) -> List[Dict[str, Any]]:
        return [
            {"rule": r.rule, "fired": r.fired, "reason": r.reason}
            for r in self.records
        ]


#: Rough selectivity guesses per operator, used only for ordering and
#: cost estimates (never correctness).
_SELECTIVITY = {
    "=": 0.05,
    "!=": 0.95,
    "<": 0.4,
    "<=": 0.4,
    ">": 0.4,
    ">=": 0.4,
    "like": 0.2,
    "contains": 0.25,
    # Batched key lookup: a handful of needles out of the extent.
    "in": 0.1,
}


def _estimate_rows(wrapper: WrapperLike, pushed: Conditions) -> int:
    from repro.oem.types import OEMType

    specs = wrapper.field_specs()
    rows = float(wrapper.count())
    for label, op, _value in pushed:
        selectivity = _SELECTIVITY.get(op, 0.5)
        # Equality on a boolean field splits the extent, it does not
        # pick a needle out of it.
        if op == "=" and label in specs and (
            specs[label][1] is OEMType.BOOLEAN
        ):
            selectivity = 0.5
        rows *= selectivity
    return max(1, int(round(rows)))


@dataclass(frozen=True)
class FetchStage:
    """One executable source access of the plan.

    Carries everything the executor needs — nothing is re-inferred at
    run time: the pushed/residual/closure condition split, the link
    join shape, the pruning decision and (anchor only) the semijoin
    driver.  Frozen; the optimizer rewrites stages with
    :func:`dataclasses.replace` and the executor only reads them.
    """

    source_name: str
    purpose: str  # "anchor" | "link"
    pushed: Conditions = ()
    residual: Conditions = ()
    #: Ontology-closure conditions (op "under"): evaluated by the
    #: mediator against the wrapper's transitive-descendant closure.
    closure: Conditions = ()
    link: Optional[LinkLike] = None
    #: Pruned stages perform no fetch; the anchor's ids decide.
    pruned: bool = False
    estimated_rows: int = 0
    #: Anchor only: (driving link source, anchor via-label) when the
    #: semijoin strategy retrieves the anchor by link-id equality.
    semijoin: Optional[SemiJoinSpec] = None
    #: Link only: the anchor's local label carrying this link's ids.
    via_anchor_label: Optional[str] = None

    def render(self) -> str:
        parts = [f"fetch {self.source_name} ({self.purpose})"]
        if self.semijoin is not None:
            parts.append(
                f"SEMIJOIN: anchor fetched by {self.semijoin[1]} ids "
                f"from {self.semijoin[0]}"
            )
        if self.pruned:
            parts.append("PRUNED: answered from anchor link ids")
        elif self.semijoin is None or self.purpose != "anchor":
            pushed = _render_conditions(self.pushed) or "true"
            parts.append(f"push down: {pushed}")
            if self.residual:
                parts.append(
                    "residual at mediator: "
                    + _render_conditions(self.residual)
                )
            parts.append(f"~{self.estimated_rows} rows")
        return " | ".join(parts)


@dataclass(frozen=True)
class PhysicalPlan:
    """The executable plan of one query: the anchor stage, then the
    link stages in the order the executor matches them.

    ``rules`` reports what each optimizer rule did; ``driver_index``
    is the index into ``link_steps`` of the semijoin driving step when
    the anchor carries a semijoin spec, so the executor never
    re-infers it.
    """

    anchor: FetchStage
    link_steps: Tuple[FetchStage, ...] = ()
    estimated_cost: float = 0.0
    rules: RuleReport = RuleReport()
    driver_index: Optional[int] = None

    def steps(self) -> List[FetchStage]:
        return [self.anchor] + list(self.link_steps)

    def explain(self) -> str:
        lines = [
            f"execution plan (estimated cost {self.estimated_cost:.0f}):"
        ]
        lines.extend(
            f"  {index + 1}. {step.render()}"
            for index, step in enumerate(self.steps())
        )
        return "\n".join(lines)

    def describe(self) -> str:
        """The plan story: the per-rule report, then the numbered
        execution steps."""
        sections = []
        if self.rules.records:
            sections.append(self.rules.render())
        sections.append(self.explain())
        return "\n\n".join(sections)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "estimated_cost": self.estimated_cost,
            "rules": self.rules.to_dict(),
            "steps": [_stage_to_dict(step) for step in self.steps()],
            "driver_index": self.driver_index,
        }


def _stage_to_dict(stage: FetchStage) -> Dict[str, Any]:
    link = stage.link
    return {
        "source": stage.source_name,
        "purpose": stage.purpose,
        "pushed": [list(triple) for triple in stage.pushed],
        "residual": [list(triple) for triple in stage.residual],
        "closure": [list(triple) for triple in stage.closure],
        "pruned": stage.pruned,
        "estimated_rows": stage.estimated_rows,
        "semijoin": None if stage.semijoin is None else list(stage.semijoin),
        "via_anchor_label": stage.via_anchor_label,
        "link": (
            None
            if link is None
            else {
                "source": link.source_name,
                "mode": link.mode,
                "via": link.via,
                "symbol_join": bool(link.symbol_join),
                "reverse_join": bool(link.reverse_join),
            }
        ),
    }


Stages = Tuple[FetchStage, ...]


class Optimizer:
    """Plan decomposed subqueries against a registry of wrappers.

    :meth:`plan` builds one frozen stage per subquery and runs the
    rules of :data:`RULE_NAMES` on them in order.  Every rule is a pure
    function of the stages; a disabled or inapplicable rule leaves
    them untouched and records why it was skipped.
    """

    def __init__(
        self,
        wrappers: Mapping[str, WrapperLike],
        options: Optional[OptimizerOptions] = None,
    ) -> None:
        self.wrappers = wrappers
        self.options = options or OptimizerOptions()

    def plan(self, subqueries: Sequence[SubQueryLike]) -> PhysicalPlan:
        """The optimized plan of one decomposed query.

        Raises
        ------
        ConfigurationError
            Without exactly one anchor subquery, for a link subquery
            without a link constraint, or for an ``under`` condition
            anywhere but on an ontology link source.
        """
        stages, pushdown = self._predicate_pushdown(
            self._stages(subqueries)
        )
        anchor, links = stages[0], stages[1:]
        links, pruning = self._link_fetch_pruning(links)
        # Estimation is not itself a rule: ordering and the semijoin
        # both need row estimates, even when ordering is ablated off.
        anchor = self._estimate(anchor)
        links = tuple(self._estimate(step) for step in links)
        links, ordering = self._selectivity_ordering(links)
        anchor, driver_index, semijoin = self._semijoin_anchor(
            anchor, links
        )
        return PhysicalPlan(
            anchor=anchor,
            link_steps=links,
            estimated_cost=float(anchor.estimated_rows)
            + sum(step.estimated_rows for step in links),
            rules=RuleReport((pushdown, pruning, ordering, semijoin)),
            driver_index=driver_index,
        )

    # -- stages ---------------------------------------------------------------

    def _stages(self, subqueries: Sequence[SubQueryLike]) -> Stages:
        """The anchor stage, then one stage per link subquery in
        decomposition order."""
        anchors = [sub for sub in subqueries if sub.purpose == "anchor"]
        if len(anchors) > 1:
            raise ConfigurationError("plan has more than one anchor subquery")
        if not anchors:
            raise ConfigurationError("plan has no anchor subquery")
        stages = [self._stage(anchors[0])]
        for subquery in subqueries:
            if subquery.purpose == "anchor":
                continue
            if subquery.link is None:
                raise ConfigurationError(
                    f"link subquery for {subquery.source_name!r} carries "
                    "no link constraint"
                )
            stages.append(self._stage(subquery))
        return tuple(stages)

    def _stage(self, subquery: SubQueryLike) -> FetchStage:
        """One subquery's stage: every condition starts residual (the
        pushdown rule moves what its wrapper evaluates natively), and
        ``under`` conditions go to ``closure``.

        Transitive-closure conditions never run natively (the flat
        sources have no closure capability) and only make sense
        against an ontology-shaped link wrapper.
        """
        residual: List[ConditionTriple] = []
        closure: List[ConditionTriple] = []
        for label, op, value in subquery.local_conditions:
            target = closure if op == "under" else residual
            target.append((label, op, value))
        if closure and (
            subquery.purpose != "link"
            or not hasattr(
                self.wrappers[subquery.source_name], "descendants"
            )
        ):
            raise ConfigurationError(
                f"'under' requires an ontology link source, "
                f"not {subquery.source_name!r}"
            )
        return FetchStage(
            source_name=subquery.source_name,
            purpose=subquery.purpose,
            residual=tuple(residual),
            closure=tuple(closure),
            link=subquery.link,
            via_anchor_label=subquery.via_anchor_label,
        )

    # -- rule: predicate pushdown --------------------------------------------

    def _predicate_pushdown(
        self, stages: Stages
    ) -> Tuple[Stages, RuleRecord]:
        name = "predicate_pushdown"
        if not self.options.enable_pushdown:
            return stages, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_pushdown"
            )
        moved = 0
        rewritten = []
        for stage in stages:
            wrapper = self.wrappers[stage.source_name]
            pushed: List[ConditionTriple] = []
            residual: List[ConditionTriple] = []
            for label, op, value in stage.residual:
                target = pushed if wrapper.supports(label, op) else residual
                target.append((label, op, value))
            moved += len(pushed)
            rewritten.append(
                replace(
                    stage,
                    pushed=stage.pushed + tuple(pushed),
                    residual=tuple(residual),
                )
            )
        if moved:
            return tuple(rewritten), RuleRecord(
                name, True,
                f"pushed {moved} condition(s) into source scans",
            )
        return stages, RuleRecord(
            name, False, "no condition is natively evaluable at its source"
        )

    # -- rule: link-fetch pruning --------------------------------------------

    def _link_fetch_pruning(
        self, links: Stages
    ) -> Tuple[Stages, RuleRecord]:
        name = "link_fetch_pruning"
        if not self.options.enable_pruning:
            return links, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_pruning"
            )
        # An unconditional link (nothing pushed, nothing residual, no
        # closure) needs no fetch — unless the join runs through
        # symbols or the linked source's own back-references, which
        # only its records can answer.
        rewritten = tuple(
            replace(step, pruned=True)
            if not (
                step.pushed
                or step.residual
                or step.closure
                or step.link is None
                or step.link.symbol_join
                or step.link.reverse_join
            )
            else step
            for step in links
        )
        pruned = sum(1 for step in rewritten if step.pruned)
        if pruned:
            return rewritten, RuleRecord(
                name, True,
                f"{pruned} unconditional link fetch(es) answered from "
                "anchor link ids",
            )
        return links, RuleRecord(
            name, False,
            "every link step is conditioned or joins through "
            "symbols/back-references",
        )

    # -- cardinality estimate (always on; feeds ordering + semijoin) ---------

    def _estimate(self, stage: FetchStage) -> FetchStage:
        """The stage with its estimated row count: pruned stages cost
        nothing; each closure condition keeps roughly a tenth of the
        rows the pushed conditions leave."""
        if stage.pruned:
            return replace(stage, estimated_rows=0)
        rows = _estimate_rows(self.wrappers[stage.source_name], stage.pushed)
        scale = 0.1 ** len(stage.closure)
        return replace(
            stage, estimated_rows=max(1, int(round(rows * scale)))
        )

    # -- rule: selectivity ordering ------------------------------------------

    def _selectivity_ordering(
        self, links: Stages
    ) -> Tuple[Stages, RuleRecord]:
        name = "selectivity_ordering"
        if not self.options.enable_ordering:
            return links, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_ordering"
            )
        ordered = tuple(sorted(links, key=lambda step: step.estimated_rows))
        if ordered == links:
            return links, RuleRecord(
                name, False, "link joins already run most-selective first"
            )
        return ordered, RuleRecord(
            name, True, "link joins reordered most-selective first"
        )

    # -- rule: semijoin anchor selection --------------------------------------

    def _semijoin_anchor(
        self, anchor: FetchStage, links: Stages
    ) -> Tuple[FetchStage, Optional[int], RuleRecord]:
        """``(anchor, index of the driving link step, record)``."""
        name = "semijoin_anchor"
        if not self.options.enable_semijoin:
            return anchor, None, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_semijoin"
            )
        anchor_wrapper = self.wrappers[anchor.source_name]
        bound = anchor.estimated_rows * SEMIJOIN_SELECTIVITY_THRESHOLD
        candidates = [
            (index, SemiJoinSpec(step.source_name, step.via_anchor_label))
            for index, step in enumerate(links)
            if step.link is not None
            # exclude-links cannot drive the anchor
            and step.link.mode == "include"
            and not step.pruned
            and not step.link.symbol_join
            and step.via_anchor_label is not None
            and anchor_wrapper.supports(step.via_anchor_label, "=")
            and step.estimated_rows < bound
        ]
        if not candidates:
            return anchor, None, RuleRecord(
                name, False,
                "no include-link is selective enough to drive the anchor",
            )
        driver_index, spec = min(
            candidates, key=lambda pair: links[pair[0]].estimated_rows
        )
        # Rough estimate: each selective link id pulls in a couple of
        # anchors; far below a full anchor scan by construction.
        anchor = replace(
            anchor,
            semijoin=spec,
            estimated_rows=min(
                anchor.estimated_rows,
                links[driver_index].estimated_rows * 2,
            ),
        )
        return anchor, driver_index, RuleRecord(
            name, True,
            f"anchor fetched by {spec.via_anchor_label} ids from "
            f"{spec.driver_source}",
        )
