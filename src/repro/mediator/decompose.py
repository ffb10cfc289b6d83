"""Global queries and their decomposition into per-source subqueries.

A :class:`GlobalQuery` is expressed purely in the global vocabulary:
an *anchor* concept (the gene source), attribute conditions on the
anchor, and *link constraints* over other sources — include ("genes
annotated with some GO function"), exclude ("but not associated with
some OMIM disease"), each optionally qualified by conditions on the
linked source.  The decomposer translates every global attribute into
the owning source's local labels via the mapping module, yielding one
:class:`SubQuery` per source touched.
"""

from dataclasses import dataclass, field

from repro.util.errors import IntegrationError, QueryError

#: Link modes: include keeps anchors having a qualifying link, exclude
#: keeps anchors having none.
LINK_MODES = ("include", "exclude")


@dataclass(frozen=True)
class Condition:
    """One predicate in global vocabulary: ``attribute op value``."""

    attribute: str
    op: str
    value: object

    def render(self):
        return f"{self.attribute} {self.op} {self.value!r}"


@dataclass(frozen=True)
class LinkConstraint:
    """One cross-source constraint on the anchor.

    ``via`` names the global attribute carrying the link identifiers:
    for *forward* joins it lives on the anchor (``AnnotationID`` for
    GO, ``DiseaseID`` for OMIM, ``CitationID`` for PubMed); for
    *reverse* joins (``reverse_join=True``) it is the linked source's
    own key, and the linked source carries a ``GeneID`` back-reference
    instead (the SwissProt-like protein source links this way).
    ``symbol_join`` additionally joins through ``GeneSymbol``, which is
    where reconciliation earns its keep.
    """

    source_name: str
    mode: str
    via: str
    conditions: tuple = ()
    symbol_join: bool = False
    reverse_join: bool = False

    def __post_init__(self):
        if self.mode not in LINK_MODES:
            raise QueryError(
                f"link mode must be one of {LINK_MODES}, got {self.mode!r}"
            )

    def render(self):
        parts = [f"{self.mode} {self.source_name} via {self.via}"]
        if self.reverse_join:
            parts.append("(reverse join)")
        if self.symbol_join:
            parts.append("+ symbol join")
        if self.conditions:
            rendered = " and ".join(c.render() for c in self.conditions)
            parts.append(f"where {rendered}")
        return " ".join(parts)


@dataclass(frozen=True)
class GlobalQuery:
    """A query against the ANNODA global schema."""

    anchor_source: str
    conditions: tuple = ()
    links: tuple = ()
    select: tuple = ()

    def render(self):
        lines = [f"anchor: {self.anchor_source}"]
        for condition in self.conditions:
            lines.append(f"  where {condition.render()}")
        for link in self.links:
            lines.append(f"  {link.render()}")
        if self.select:
            lines.append(f"  select {', '.join(self.select)}")
        return "\n".join(lines)


@dataclass
class SubQuery:
    """One source's share of a global query (local vocabulary).

    ``local_conditions`` are (local label, op, value) triples; the
    optimizer later splits them into pushed-down vs residual.
    ``purpose`` is ``anchor`` or ``link``.  For link subqueries,
    ``via_anchor_label`` is the anchor's local label carrying the link
    ids (used by the semijoin strategy).
    """

    source_name: str
    purpose: str
    local_conditions: list = field(default_factory=list)
    link: LinkConstraint = None
    via_anchor_label: str = None

    def render(self):
        conditions = (
            " and ".join(
                f"{label} {op} {value!r}"
                for label, op, value in self.local_conditions
            )
            or "true"
        )
        return f"[{self.purpose}] {self.source_name}: {conditions}"


class QueryDecomposer:
    """Translate global queries into per-source subqueries."""

    def __init__(self, mapping_module):
        self.mapping_module = mapping_module

    def decompose(self, query):
        """One anchor subquery plus one subquery per link constraint.

        Raises
        ------
        IntegrationError
            When a referenced source is not mapped, or a condition's
            attribute has no counterpart at its source.
        """
        if query.anchor_source not in self.mapping_module.sources():
            raise IntegrationError(
                f"anchor source {query.anchor_source!r} is not registered"
            )
        if self.mapping_module.correspondences(
            query.anchor_source
        ).to_local("GeneID") is None:
            raise IntegrationError(
                f"source {query.anchor_source!r} cannot anchor a query: "
                "its schema has no element mapped to GeneID"
            )
        subqueries = [
            SubQuery(
                source_name=query.anchor_source,
                purpose="anchor",
                local_conditions=[
                    self._translate(query.anchor_source, condition)
                    for condition in query.conditions
                ],
            )
        ]
        for link in query.links:
            if link.source_name not in self.mapping_module.sources():
                raise IntegrationError(
                    f"linked source {link.source_name!r} is not registered"
                )
            if link.reverse_join:
                # The linked source must carry both its key attribute
                # and the GeneID back-reference.
                self.mapping_module.to_local_label(
                    link.source_name, link.via
                )
                self.mapping_module.to_local_label(
                    link.source_name, "GeneID"
                )
                via_anchor_label = None
            else:
                # The anchor must actually carry the linking attribute.
                via_anchor_label = self.mapping_module.to_local_label(
                    query.anchor_source, link.via
                )
            subqueries.append(
                SubQuery(
                    source_name=link.source_name,
                    purpose="link",
                    local_conditions=[
                        self._translate(link.source_name, condition)
                        for condition in link.conditions
                    ],
                    link=link,
                    via_anchor_label=via_anchor_label,
                )
            )
        return subqueries

    def _translate(self, source_name, condition):
        local_label = self.mapping_module.to_local_label(
            source_name, condition.attribute
        )
        return (local_label, condition.op, condition.value)
