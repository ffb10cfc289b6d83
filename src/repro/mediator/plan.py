"""First-class planning IR: logical plan, rule optimizer, physical DAG.

The mediator pipeline (decompose -> optimize -> execute) plans through
three explicit layers instead of one ad-hoc structure:

1. **Logical plan** — a tree of relational-style nodes built from the
   decomposer's subqueries: the anchor is a :class:`Scan` under a
   :class:`Filter`; every include-link adds a :class:`SemiJoin` layer
   (exclude-links an :class:`AntiJoin`), whose right side is the linked
   source's own Scan/Filter subtree (plus a :class:`ClosureFilter` for
   ontology ``under`` predicates); :class:`Reconcile`, :class:`Enrich`
   and :class:`Project` cap the tree.  The logical tree states *what*
   the query joins, not how.
2. **Rule optimizer** — :class:`RuleOptimizer` rewrites the tree via
   named passes (:data:`RULE_NAMES`): predicate pushdown, link-fetch
   pruning, selectivity ordering and semijoin anchor selection — one
   rule per :class:`OptimizerOptions` switch, each leaving a
   :class:`RuleRecord` saying whether it fired and why.  Nodes are
   frozen dataclasses; rules rewrite with :func:`dataclasses.replace`
   (lint rule ANN006 enforces that nothing mutates a node in place).
3. **Physical plan** — :class:`PhysicalPlanner` lowers the optimized
   tree to a :class:`PhysicalPlan`: a DAG of executable stages on the
   existing fetch boundaries.  Each :class:`FetchStage` carries
   everything the executor needs (pushed/residual/closure conditions,
   link join shape, semijoin driver) — lowering never changes what a
   stage means, only where its description lives.

Lowering invariants (locked in by the property suite):

- the multiset of ``(source, purpose)`` fetch stages equals the
  multiset of logical Scans, under every OptimizerOptions ablation;
- the anchor stage is always first; link stages keep the optimized
  join-chain order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
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
    """The shape of a decomposed subquery the logical builder reads."""

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
    #: A link qualifies to drive the semijoin when its estimated rows
    #: are below this fraction of the anchor's estimate.
    semijoin_selectivity_threshold: float = 0.25


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


# -- logical plan nodes -------------------------------------------------------


@dataclass(frozen=True)
class LogicalNode:
    """Base of the node catalog.  Nodes are frozen: the optimizer
    rewrites trees with :func:`dataclasses.replace`, never in place."""

    def children(self) -> Tuple["LogicalNode", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class Scan(LogicalNode):
    """One source's extent.  ``pushed`` conditions run natively at the
    source (filled by the pushdown rule); ``pruned`` scans fetch
    nothing (the anchor's own link ids decide); a ``semijoin`` spec on
    the anchor scan retrieves it by link-id equality."""

    source_name: str
    purpose: str  # "anchor" | "link"
    pushed: Conditions = ()
    estimated_rows: int = 0
    pruned: bool = False
    semijoin: Optional[SemiJoinSpec] = None

    def label(self) -> str:
        parts = [f"Scan {self.source_name} ({self.purpose})"]
        if self.semijoin is not None:
            parts.append(
                f"SEMIJOIN by {self.semijoin.via_anchor_label} ids "
                f"from {self.semijoin.driver_source}"
            )
        if self.pruned:
            parts.append("PRUNED")
        if self.pushed:
            parts.append(f"push down: {_render_conditions(self.pushed)}")
        parts.append(f"~{self.estimated_rows} rows")
        return " | ".join(parts)


@dataclass(frozen=True)
class Filter(LogicalNode):
    """Residual predicates evaluated at the mediator."""

    child: LogicalNode
    conditions: Conditions = ()

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter [{_render_conditions(self.conditions)}]"


@dataclass(frozen=True)
class ClosureFilter(LogicalNode):
    """Ontology transitive-closure predicates (op ``under``),
    evaluated by the mediator against the wrapper's descendant
    closure."""

    child: LogicalNode
    conditions: Conditions = ()

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"ClosureFilter [{_render_conditions(self.conditions)}]"


@dataclass(frozen=True)
class SemiJoin(LogicalNode):
    """Keep left-side anchors having a qualifying right-side link."""

    left: LogicalNode
    right: LogicalNode
    link: LinkLike
    via_anchor_label: Optional[str] = None

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return _join_label("SemiJoin", self.link)


@dataclass(frozen=True)
class AntiJoin(LogicalNode):
    """Keep left-side anchors having *no* qualifying right-side link
    (the exclude-link constraint)."""

    left: LogicalNode
    right: LogicalNode
    link: LinkLike
    via_anchor_label: Optional[str] = None

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        return _join_label("AntiJoin", self.link)


def _join_label(kind: str, link: LinkLike) -> str:
    parts = [f"{kind} {link.source_name} via {link.via}"]
    if link.reverse_join:
        parts.append("(reverse join)")
    if link.symbol_join:
        parts.append("+ symbol join")
    return " ".join(parts)


@dataclass(frozen=True)
class Reconcile(LogicalNode):
    """Apply the reconciler while matching link constraints."""

    child: LogicalNode

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Enrich(LogicalNode):
    """Attach linked-source detail to surviving anchors (the executor
    may skip it when the caller asks for ids only)."""

    child: LogicalNode

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Project(LogicalNode):
    """Restrict the integrated answer to the selected attributes."""

    child: LogicalNode
    select: Tuple[str, ...] = ()

    def children(self) -> Tuple[LogicalNode, ...]:
        return (self.child,)

    def label(self) -> str:
        if not self.select:
            return "Project *"
        return f"Project [{', '.join(self.select)}]"


@dataclass(frozen=True)
class LogicalPlan:
    """One immutable logical tree (the decomposer's output and the
    rule optimizer's input/output)."""

    root: LogicalNode

    def walk(self) -> Iterator[LogicalNode]:
        """Every node, pre-order."""
        stack: List[LogicalNode] = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def scans(self) -> Tuple[Scan, ...]:
        """Every Scan leaf, in tree order."""
        return tuple(
            node for node in self.walk() if isinstance(node, Scan)
        )

    def render(self) -> str:
        """Indented tree text."""
        lines = ["logical plan:"]

        def emit(node: LogicalNode, depth: int) -> None:
            lines.append("  " * (depth + 1) + node.label())
            for child in node.children():
                emit(child, depth + 1)

        emit(self.root, 0)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return _node_to_dict(self.root)


def _node_to_dict(node: LogicalNode) -> Dict[str, Any]:
    data: Dict[str, Any] = {"node": type(node).__name__}
    if isinstance(node, Scan):
        data["source"] = node.source_name
        data["purpose"] = node.purpose
        data["pushed"] = [list(triple) for triple in node.pushed]
        data["estimated_rows"] = node.estimated_rows
        data["pruned"] = node.pruned
        data["semijoin"] = (
            None if node.semijoin is None else list(node.semijoin)
        )
    elif isinstance(node, (Filter, ClosureFilter)):
        data["conditions"] = [list(triple) for triple in node.conditions]
    elif isinstance(node, (SemiJoin, AntiJoin)):
        data["source"] = node.link.source_name
        data["via"] = node.link.via
        data["symbol_join"] = bool(node.link.symbol_join)
        data["reverse_join"] = bool(node.link.reverse_join)
        data["via_anchor_label"] = node.via_anchor_label
    elif isinstance(node, Project):
        data["select"] = list(node.select)
    children = [_node_to_dict(child) for child in node.children()]
    if children:
        data["children"] = children
    return data


# -- building the logical tree ------------------------------------------------


def build_logical(
    subqueries: Sequence[SubQueryLike], select: Sequence[str] = ()
) -> LogicalPlan:
    """The canonical logical tree for one decomposed query.

    Left-deep: the anchor's Scan/Filter subtree at the bottom, one
    SemiJoin/AntiJoin layer per link constraint in decomposition
    order, capped by Reconcile -> Enrich -> Project.

    Raises
    ------
    ConfigurationError
        Without exactly one anchor subquery, or when an ``under``
        predicate appears outside a link subquery (closure predicates
        never run on the anchor).
    """
    anchor: Optional[SubQueryLike] = None
    links: List[SubQueryLike] = []
    for subquery in subqueries:
        if subquery.purpose == "anchor":
            if anchor is not None:
                raise ConfigurationError(
                    "plan has more than one anchor subquery"
                )
            anchor = subquery
        else:
            links.append(subquery)
    if anchor is None:
        raise ConfigurationError("plan has no anchor subquery")
    tree = _source_subtree(anchor)
    for subquery in links:
        link = subquery.link
        if link is None:
            raise ConfigurationError(
                f"link subquery for {subquery.source_name!r} carries "
                "no link constraint"
            )
        join_type = SemiJoin if link.mode == "include" else AntiJoin
        tree = join_type(
            left=tree,
            right=_source_subtree(subquery),
            link=link,
            via_anchor_label=subquery.via_anchor_label,
        )
    return LogicalPlan(
        root=Project(
            child=Enrich(child=Reconcile(child=tree)),
            select=tuple(select),
        )
    )


def _source_subtree(subquery: SubQueryLike) -> LogicalNode:
    """Scan under Filter under ClosureFilter (each layer only when it
    has conditions).  Every condition starts residual; the pushdown
    rule moves what a wrapper can evaluate natively into the Scan."""
    plain: List[ConditionTriple] = []
    closure: List[ConditionTriple] = []
    for label, op, value in subquery.local_conditions:
        if op == "under":
            closure.append((label, op, value))
        else:
            plain.append((label, op, value))
    if closure and subquery.purpose != "link":
        raise ConfigurationError(
            f"'under' requires an ontology link source, "
            f"not {subquery.source_name!r}"
        )
    node: LogicalNode = Scan(
        source_name=subquery.source_name, purpose=subquery.purpose
    )
    if plain:
        node = Filter(child=node, conditions=tuple(plain))
    if closure:
        node = ClosureFilter(child=node, conditions=tuple(closure))
    return node


# -- rule optimizer -----------------------------------------------------------


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
    """One rule's outcome: whether it rewrote the tree, and why."""

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


def _rewrite(
    node: LogicalNode, fn: Callable[[LogicalNode], LogicalNode]
) -> LogicalNode:
    """Bottom-up structural rewrite: rebuild children first, then map
    ``fn`` over the (re-built) node."""
    if isinstance(node, (Filter, ClosureFilter, Reconcile, Enrich, Project)):
        node = replace(node, child=_rewrite(node.child, fn))
    elif isinstance(node, (SemiJoin, AntiJoin)):
        node = replace(
            node,
            left=_rewrite(node.left, fn),
            right=_rewrite(node.right, fn),
        )
    return fn(node)


def _join_chain(
    node: LogicalNode,
) -> Tuple[LogicalNode, List[LogicalNode]]:
    """``(anchor subtree, join layers deepest-first)`` of a left-deep
    join chain (layer order == decomposition order before the ordering
    rule, selectivity order after it)."""
    layers: List[LogicalNode] = []
    while isinstance(node, (SemiJoin, AntiJoin)):
        layers.append(node)
        node = node.left
    layers.reverse()
    return node, layers


def _rebuild_chain(
    base: LogicalNode, layers: Sequence[LogicalNode]
) -> LogicalNode:
    node = base
    for layer in layers:
        node = replace(layer, left=node)
    return node


def _subtree_scan(node: LogicalNode) -> Scan:
    """The Scan leaf under a Filter/ClosureFilter stack."""
    while isinstance(node, (Filter, ClosureFilter)):
        node = node.child
    if not isinstance(node, Scan):
        raise ConfigurationError(
            "malformed logical plan: expected a Scan leaf, found "
            f"{type(node).__name__}"
        )
    return node


def _replace_scan(node: LogicalNode, scan: Scan) -> LogicalNode:
    """The same Filter/ClosureFilter stack over a replacement Scan."""
    if isinstance(node, (Filter, ClosureFilter)):
        return replace(node, child=_replace_scan(node.child, scan))
    return scan


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


class RuleOptimizer:
    """Rewrite a logical plan via the named passes of
    :data:`RULE_NAMES`, recording per-rule outcomes.

    Every rule is a pure tree-to-tree function (frozen nodes,
    ``dataclasses.replace`` rewrites); a disabled or inapplicable rule
    leaves the tree untouched and records why it was skipped.
    """

    def __init__(
        self,
        wrappers: Mapping[str, WrapperLike],
        options: Optional[OptimizerOptions] = None,
    ) -> None:
        self.wrappers = wrappers
        self.options = options or OptimizerOptions()

    def optimize(
        self, plan: LogicalPlan
    ) -> Tuple[LogicalPlan, RuleReport]:
        records: List[RuleRecord] = []
        root = plan.root
        for rule in (
            self._predicate_pushdown,
            self._link_fetch_pruning,
            self._selectivity_ordering,
            self._semijoin_anchor,
        ):
            root, record = rule(root)
            records.append(record)
        return LogicalPlan(root=root), RuleReport(records=tuple(records))

    # -- rule: predicate pushdown --------------------------------------------

    def _predicate_pushdown(
        self, root: LogicalNode
    ) -> Tuple[LogicalNode, RuleRecord]:
        name = "predicate_pushdown"
        if not self.options.enable_pushdown:
            return root, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_pushdown"
            )
        moved = 0

        def push(node: LogicalNode) -> LogicalNode:
            nonlocal moved
            if not (
                isinstance(node, Filter) and isinstance(node.child, Scan)
            ):
                return node
            wrapper = self.wrappers[node.child.source_name]
            pushed: List[ConditionTriple] = []
            residual: List[ConditionTriple] = []
            for label, op, value in node.conditions:
                if wrapper.supports(label, op):
                    pushed.append((label, op, value))
                else:
                    residual.append((label, op, value))
            if not pushed:
                return node
            moved += len(pushed)
            scan = replace(
                node.child, pushed=node.child.pushed + tuple(pushed)
            )
            if residual:
                return replace(
                    node, child=scan, conditions=tuple(residual)
                )
            return scan

        rewritten = _rewrite(root, push)
        if moved:
            return rewritten, RuleRecord(
                name, True,
                f"pushed {moved} condition(s) into source scans",
            )
        return rewritten, RuleRecord(
            name, False, "no condition is natively evaluable at its source"
        )

    # -- rule: link-fetch pruning --------------------------------------------

    def _link_fetch_pruning(
        self, root: LogicalNode
    ) -> Tuple[LogicalNode, RuleRecord]:
        name = "link_fetch_pruning"
        if not self.options.enable_pruning:
            return root, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_pruning"
            )
        pruned = 0

        def prune(node: LogicalNode) -> LogicalNode:
            nonlocal pruned
            if not isinstance(node, (SemiJoin, AntiJoin)):
                return node
            right = node.right
            # An unconditional link (a bare Scan: nothing was pushed,
            # nothing is residual, no closure) needs no fetch — unless
            # the join runs through symbols or the linked source's own
            # back-references, which only its records can answer.
            if (
                isinstance(right, Scan)
                and not right.pushed
                and not node.link.symbol_join
                and not node.link.reverse_join
            ):
                pruned += 1
                return replace(node, right=replace(right, pruned=True))
            return node

        rewritten = _rewrite(root, prune)
        if pruned:
            return rewritten, RuleRecord(
                name, True,
                f"{pruned} unconditional link fetch(es) answered from "
                "anchor link ids",
            )
        return rewritten, RuleRecord(
            name, False,
            "every link step is conditioned or joins through "
            "symbols/back-references",
        )

    # -- cardinality annotation (always on; feeds ordering + semijoin) -------

    def _estimate(self, root: LogicalNode) -> LogicalNode:
        """Annotate every Scan with its estimated row count (pruned
        scans cost nothing; each closure predicate above a scan keeps
        roughly a tenth of it)."""

        def annotate(node: LogicalNode, closure_count: int) -> LogicalNode:
            if isinstance(node, ClosureFilter):
                return replace(
                    node,
                    child=annotate(
                        node.child, closure_count + len(node.conditions)
                    ),
                )
            if isinstance(node, Filter):
                return replace(
                    node, child=annotate(node.child, closure_count)
                )
            if isinstance(node, (Reconcile, Enrich, Project)):
                return replace(node, child=annotate(node.child, 0))
            if isinstance(node, (SemiJoin, AntiJoin)):
                return replace(
                    node,
                    left=annotate(node.left, 0),
                    right=annotate(node.right, 0),
                )
            if isinstance(node, Scan):
                if node.pruned:
                    return replace(node, estimated_rows=0)
                scale = 0.1 ** closure_count
                rows = _estimate_rows(
                    self.wrappers[node.source_name], node.pushed
                )
                return replace(
                    node,
                    estimated_rows=max(1, int(round(rows * scale))),
                )
            return node

        return annotate(root, 0)

    # -- rule: selectivity ordering ------------------------------------------

    def _selectivity_ordering(
        self, root: LogicalNode
    ) -> Tuple[LogicalNode, RuleRecord]:
        name = "selectivity_ordering"
        # Estimation is not itself a rule — ordering and semijoin both
        # need row estimates even when ordering is ablated off.
        root = self._estimate(root)
        if not self.options.enable_ordering:
            return root, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_ordering"
            )
        changed = False

        def order(node: LogicalNode) -> LogicalNode:
            nonlocal changed
            if not isinstance(node, Reconcile):
                return node
            base, layers = _join_chain(node.child)
            ordered = sorted(
                layers,
                key=lambda layer: _subtree_scan(
                    layer.children()[1]
                ).estimated_rows,
            )
            if ordered == layers:
                return node
            changed = True
            return replace(node, child=_rebuild_chain(base, ordered))

        rewritten = _rewrite(root, order)
        if changed:
            return rewritten, RuleRecord(
                name, True, "link joins reordered most-selective first"
            )
        return rewritten, RuleRecord(
            name, False, "link joins already run most-selective first"
        )

    # -- rule: semijoin anchor selection --------------------------------------

    def _semijoin_anchor(
        self, root: LogicalNode
    ) -> Tuple[LogicalNode, RuleRecord]:
        name = "semijoin_anchor"
        if not self.options.enable_semijoin:
            return root, RuleRecord(
                name, False, "disabled by OptimizerOptions.enable_semijoin"
            )
        spec: Optional[SemiJoinSpec] = None

        def choose(node: LogicalNode) -> LogicalNode:
            nonlocal spec
            if not isinstance(node, Reconcile):
                return node
            base, layers = _join_chain(node.child)
            anchor_scan = _subtree_scan(base)
            anchor_wrapper = self.wrappers[anchor_scan.source_name]
            threshold = self.options.semijoin_selectivity_threshold
            candidates: List[Tuple[Scan, SemiJoinSpec]] = []
            for layer in layers:
                if not isinstance(layer, SemiJoin):
                    continue  # exclude-links cannot drive the anchor
                scan = _subtree_scan(layer.right)
                via_label = layer.via_anchor_label
                if (
                    scan.pruned
                    or layer.link.symbol_join
                    or via_label is None
                    or not anchor_wrapper.supports(via_label, "=")
                    or scan.estimated_rows
                    >= anchor_scan.estimated_rows * threshold
                ):
                    continue
                candidates.append(
                    (scan,
                     SemiJoinSpec(layer.link.source_name, via_label))
                )
            if not candidates:
                return node
            driver_scan, chosen = min(
                candidates, key=lambda pair: pair[0].estimated_rows
            )
            spec = chosen
            # Rough estimate: each selective link id pulls in a couple
            # of anchors; far below a full anchor scan by construction.
            new_anchor = replace(
                anchor_scan,
                semijoin=chosen,
                estimated_rows=min(
                    anchor_scan.estimated_rows,
                    driver_scan.estimated_rows * 2,
                ),
            )
            return replace(
                node,
                child=_rebuild_chain(
                    _replace_scan(base, new_anchor), layers
                ),
            )

        rewritten = _rewrite(root, choose)
        if spec is not None:
            return rewritten, RuleRecord(
                name, True,
                f"anchor fetched by {spec.via_anchor_label} ids from "
                f"{spec.driver_source}",
            )
        return rewritten, RuleRecord(
            name, False,
            "no include-link is selective enough to drive the anchor",
        )


# -- physical plan ------------------------------------------------------------


@dataclass(frozen=True)
class FetchStage:
    """One executable source access of the physical DAG.

    Carries everything the executor needs — nothing is re-inferred at
    run time: the pushed/residual/closure condition split, the link
    join shape, the pruning decision and (anchor only) the semijoin
    driver.  Frozen like the logical nodes; the executor only reads.
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
class StageNode:
    """One node of the rendered stage DAG."""

    stage_id: str
    kind: str  # "fetch" | "reconcile" | "enrich" | "answer"
    detail: str


@dataclass(frozen=True)
class PhysicalPlan:
    """The executable stage DAG one query lowers to.

    Keeps the classic plan surface (``anchor``, ``link_steps``,
    ``estimated_cost``, :meth:`steps`, :meth:`explain`) that the
    executor, benchmarks and tests consume, and adds the IR context:
    the optimized :attr:`logical` tree, the per-rule :attr:`rules`
    report, the semijoin :attr:`driver_index` (so the executor never
    re-infers the driving step) and the stage DAG
    (:meth:`stages`/:meth:`edges`/:meth:`render_dag`).
    """

    anchor: FetchStage
    link_steps: Tuple[FetchStage, ...] = ()
    estimated_cost: float = 0.0
    logical: Optional[LogicalPlan] = None
    rules: RuleReport = RuleReport()
    #: Index into ``link_steps`` of the semijoin driving step, when
    #: the anchor carries a semijoin spec.
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

    # -- the stage DAG --------------------------------------------------------

    def _dag(
        self,
    ) -> Tuple[Tuple[StageNode, ...], Tuple[Tuple[str, str], ...]]:
        nodes: List[StageNode] = []
        edges: List[Tuple[str, str]] = []
        fetch_count = 1 + len(self.link_steps)
        reconcile_id = f"s{fetch_count}"
        enrich_id = f"s{fetch_count + 1}"
        answer_id = f"s{fetch_count + 2}"
        anchor_detail = f"fetch {self.anchor.source_name} (anchor)"
        if self.anchor.semijoin is not None:
            anchor_detail += " [semijoin]"
        nodes.append(StageNode("s0", "fetch", anchor_detail))
        edges.append(("s0", reconcile_id))
        for index, step in enumerate(self.link_steps):
            stage_id = f"s{index + 1}"
            detail = f"fetch {step.source_name} (link)"
            if step.pruned:
                detail = f"prune {step.source_name} (link: no fetch)"
            nodes.append(StageNode(stage_id, "fetch", detail))
            edges.append((stage_id, reconcile_id))
            if self.driver_index == index:
                edges.append((stage_id, "s0"))
        nodes.append(
            StageNode(reconcile_id, "reconcile", "reconcile + join links")
        )
        nodes.append(
            StageNode(enrich_id, "enrich", "enrich linked detail")
        )
        nodes.append(
            StageNode(answer_id, "answer", "integrated OEM answer")
        )
        edges.append((reconcile_id, enrich_id))
        edges.append((enrich_id, answer_id))
        return tuple(nodes), tuple(edges)

    def stages(self) -> Tuple[StageNode, ...]:
        return self._dag()[0]

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        return self._dag()[1]

    def render_dag(self) -> str:
        nodes, edges = self._dag()
        successors: Dict[str, List[str]] = {}
        for source, target in edges:
            successors.setdefault(source, []).append(target)
        lines = ["physical stage DAG:"]
        for node in nodes:
            arrow = ""
            if node.stage_id in successors:
                arrow = " -> " + ", ".join(successors[node.stage_id])
            lines.append(f"  {node.stage_id} {node.detail}{arrow}")
        return "\n".join(lines)

    def describe(self) -> str:
        """The full plan story: logical tree, per-rule report,
        numbered execution steps, stage DAG."""
        sections = []
        if self.logical is not None:
            sections.append(self.logical.render())
        if self.rules.records:
            sections.append(self.rules.render())
        sections.append(self.explain())
        sections.append(self.render_dag())
        return "\n\n".join(sections)

    def to_dict(self) -> Dict[str, Any]:
        nodes, edges = self._dag()
        return {
            "estimated_cost": self.estimated_cost,
            "logical": (
                None if self.logical is None else self.logical.to_dict()
            ),
            "rules": self.rules.to_dict(),
            "steps": [_stage_to_dict(step) for step in self.steps()],
            "stages": [
                {"id": n.stage_id, "kind": n.kind, "detail": n.detail}
                for n in nodes
            ],
            "edges": [list(edge) for edge in edges],
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


class PhysicalPlanner:
    """Lower an optimized logical tree to the executable stage DAG.

    Lowering is shape-preserving: one FetchStage per Scan (anchor
    first, link stages in join-chain order), residual/closure
    conditions read off the Filter/ClosureFilter stack above each
    scan.  Validation that needs wrapper capabilities happens here —
    an ``under`` predicate against a source without a descendant
    closure is a planning error, not an execution one.
    """

    def __init__(self, wrappers: Mapping[str, WrapperLike]) -> None:
        self.wrappers = wrappers

    def lower(
        self,
        logical: LogicalPlan,
        rules: Optional[RuleReport] = None,
    ) -> PhysicalPlan:
        node = logical.root
        select: Tuple[str, ...] = ()
        if isinstance(node, Project):
            select = node.select
            node = node.child
        if isinstance(node, Enrich):
            node = node.child
        if isinstance(node, Reconcile):
            node = node.child
        base, layers = _join_chain(node)

        anchor_scan, residual, closure = self._subtree_parts(base)
        self._validate_closure(anchor_scan, closure)
        anchor = FetchStage(
            source_name=anchor_scan.source_name,
            purpose=anchor_scan.purpose,
            pushed=anchor_scan.pushed,
            residual=residual,
            closure=closure,
            estimated_rows=anchor_scan.estimated_rows,
            semijoin=anchor_scan.semijoin,
        )

        link_steps: List[FetchStage] = []
        for layer in layers:
            if not isinstance(layer, (SemiJoin, AntiJoin)):
                raise ConfigurationError(
                    "malformed logical plan: expected a join layer, "
                    f"found {type(layer).__name__}"
                )
            scan, residual, closure = self._subtree_parts(layer.right)
            self._validate_closure(scan, closure)
            link_steps.append(
                FetchStage(
                    source_name=scan.source_name,
                    purpose=scan.purpose,
                    pushed=scan.pushed,
                    residual=residual,
                    closure=closure,
                    link=layer.link,
                    pruned=scan.pruned,
                    estimated_rows=scan.estimated_rows,
                    via_anchor_label=layer.via_anchor_label,
                )
            )

        driver_index = self._driver_index(anchor, link_steps)
        cost = float(anchor.estimated_rows) + sum(
            step.estimated_rows for step in link_steps
        )
        del select  # projection is applied by the answer stage itself
        return PhysicalPlan(
            anchor=anchor,
            link_steps=tuple(link_steps),
            estimated_cost=cost,
            logical=logical,
            rules=rules if rules is not None else RuleReport(),
            driver_index=driver_index,
        )

    @staticmethod
    def _subtree_parts(
        node: LogicalNode,
    ) -> Tuple[Scan, Conditions, Conditions]:
        """(scan, residual conditions, closure conditions) of one
        Scan/Filter/ClosureFilter stack."""
        residual: List[ConditionTriple] = []
        closure: List[ConditionTriple] = []
        while isinstance(node, (Filter, ClosureFilter)):
            if isinstance(node, ClosureFilter):
                closure.extend(node.conditions)
            else:
                residual.extend(node.conditions)
            node = node.child
        if not isinstance(node, Scan):
            raise ConfigurationError(
                "malformed logical plan: expected a Scan leaf, found "
                f"{type(node).__name__}"
            )
        return node, tuple(residual), tuple(closure)

    def _validate_closure(self, scan: Scan, closure: Conditions) -> None:
        """Transitive-closure predicates never run natively (the flat
        sources have no closure capability) and only make sense against
        an ontology-shaped wrapper."""
        if not closure:
            return
        wrapper = self.wrappers[scan.source_name]
        if scan.purpose != "link" or not hasattr(wrapper, "descendants"):
            raise ConfigurationError(
                f"'under' requires an ontology link source, "
                f"not {scan.source_name!r}"
            )

    @staticmethod
    def _driver_index(
        anchor: FetchStage, link_steps: Sequence[FetchStage]
    ) -> Optional[int]:
        if anchor.semijoin is None:
            return None
        driver_source, via_label = anchor.semijoin
        for index, step in enumerate(link_steps):
            if (
                step.source_name == driver_source
                and step.via_anchor_label == via_label
            ):
                return index
        raise ConfigurationError(
            f"semijoin driver {driver_source!r} is not among the "
            "plan's link steps"
        )
