"""Reconciliation of semantic conflicts and contradictions.

Requirement 5 of section 3.1: *"the system should resolve the semantic
conflicts and contradictions caused due to the unstructured of
annotation data."*  Table 1 claims this as ANNODA's differentiator
over K2/Kleisli and DiscoveryLink (*"reconciliation of results"*).

Concretely, integrating LocusLink/GO/OMIM surfaces four conflict
classes (all injectable by the corpus builder):

- **case-variant symbols** — OMIM lists ``fosb`` for official ``FOSB``;
- **alias symbols** — OMIM lists an alternate symbol;
- **stale annotations** — a locus annotated with an obsolete GO term;
- **dangling references** — a locus pointing at a nonexistent MIM.

The :class:`Reconciler` applies a :class:`ReconciliationPolicy` while
the executor joins sources, and files everything it found or fixed in
a :class:`ReconciliationReport`.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ReconciliationPolicy:
    """Which reconciliation behaviours are active.

    All on reproduces ANNODA; all off reproduces the naive middleware
    join the comparative benchmark measures against.
    """

    case_insensitive_symbols: bool = True
    use_alias_symbols: bool = True
    drop_obsolete_annotations: bool = True
    drop_dangling_references: bool = True

    @classmethod
    def naive(cls):
        """No reconciliation at all (the K2/Kleisli row of Table 1)."""
        return cls(
            case_insensitive_symbols=False,
            use_alias_symbols=False,
            drop_obsolete_annotations=False,
            drop_dangling_references=False,
        )


@dataclass(frozen=True)
class Issue:
    """One conflict the reconciler observed (and possibly repaired)."""

    kind: str
    anchor_id: object
    detail: str
    repaired: bool


@dataclass
class ReconciliationReport:
    """Everything reconciliation found during one query execution."""

    issues: list = field(default_factory=list)

    def record(self, kind, anchor_id, detail, repaired):
        self.issues.append(
            Issue(kind=kind, anchor_id=anchor_id, detail=detail,
                  repaired=repaired)
        )

    def count(self, kind=None):
        if kind is None:
            return len(self.issues)
        return sum(1 for issue in self.issues if issue.kind == kind)

    def repaired_count(self):
        return sum(1 for issue in self.issues if issue.repaired)

    def kinds(self):
        return sorted({issue.kind for issue in self.issues})

    def render(self):
        if not self.issues:
            return "reconciliation: no conflicts observed"
        lines = [f"reconciliation: {len(self.issues)} conflicts observed"]
        for kind in self.kinds():
            lines.append(f"  {kind}: {self.count(kind)}")
        return "\n".join(lines)


class SymbolIndex:
    """Per-query index of a symbol-joined source's symbol vocabulary.

    Maps exact and case-folded symbols to the entry ids listing them,
    so the reconciler's per-anchor work is O(aliases), not a scan of
    the whole vocabulary.
    """

    def __init__(self):
        self._exact = {}
        self._lowered = {}

    @classmethod
    def from_wrapper(cls, wrapper, key_label="MimNumber",
                     symbol_label="GeneSymbol", budget=None):
        """Build from any wrapper exposing a key and a symbol label.

        Defaults fit OMIM; the executor passes the mapped labels for
        other symbol-joined sources (e.g. the protein source's
        ``Accession``/``GeneSymbol``).  A single-valued symbol field
        counts as a one-symbol listing.  ``budget`` is the owning
        request's :class:`~repro.util.cancel.RequestBudget`: the index
        build is a full-vocabulary fetch, exactly the kind of work a
        deadline-expired request must not start.
        """
        if budget is not None and budget.expired:
            raise TimeoutError(
                f"symbol index build abandoned: {budget.describe()}"
            )
        index = cls()
        symbol_field = wrapper.source_field(symbol_label)
        key_field = wrapper.source_field(key_label)
        from repro.mediator.fetch import FetchRequest

        request = FetchRequest(purpose="symbol-index", budget=budget)
        for record in wrapper.fetch(request):
            entry_id = record[key_field]
            value = record.get(symbol_field)
            symbols = value if isinstance(value, (list, tuple)) else [value]
            for symbol in symbols:
                if symbol:
                    index.add(symbol, entry_id)
        return index

    def add(self, symbol, entry_id):
        self._exact.setdefault(symbol, set()).add(entry_id)
        self._lowered.setdefault(symbol.lower(), {}).setdefault(
            symbol, set()
        ).add(entry_id)

    def exact(self, symbol):
        """Entry ids listing exactly ``symbol``."""
        return set(self._exact.get(symbol, ()))

    def folded(self, symbol):
        """(listed_symbol, entry ids) pairs matching case-insensitively."""
        return [
            (listed, set(ids))
            for listed, ids in self._lowered.get(symbol.lower(), {}).items()
        ]


class Reconciler:
    """Conflict-resolving joins between the anchor and linked sources."""

    def __init__(self, policy=None):
        self.policy = policy or ReconciliationPolicy()

    # -- annotation (GO) links ---------------------------------------------------

    def valid_annotation_ids(self, anchor_id, go_ids, go_wrapper, report):
        """Filter a record's GO ids against the live ontology.

        Dangling ids are dropped (if the policy says so) and reported;
        obsolete terms likewise.  With a naive policy everything passes
        and nothing is reported repaired.
        """
        valid = []
        for go_id in go_ids:
            if not go_wrapper.exists(go_id):
                repaired = self.policy.drop_dangling_references
                report.record(
                    "dangling_annotation",
                    anchor_id,
                    f"unknown GO accession {go_id}",
                    repaired,
                )
                if repaired:
                    continue
            elif go_wrapper.is_obsolete(go_id):
                repaired = self.policy.drop_obsolete_annotations
                report.record(
                    "obsolete_annotation",
                    anchor_id,
                    f"annotation to obsolete term {go_id}",
                    repaired,
                )
                if repaired:
                    continue
            valid.append(go_id)
        return valid

    # -- disease (OMIM) links ---------------------------------------------------------

    def valid_disease_ids(self, anchor_id, mim_ids, omim_wrapper, report):
        """Filter a record's MIM references against the live source."""
        valid = []
        for mim in mim_ids:
            if not omim_wrapper.exists(mim):
                repaired = self.policy.drop_dangling_references
                report.record(
                    "dangling_disease",
                    anchor_id,
                    f"unknown MIM number {mim}",
                    repaired,
                )
                if repaired:
                    continue
            valid.append(mim)
        return valid

    def disease_ids_via_symbols(self, anchor_id, official_symbol, aliases,
                                omim_wrapper, report, index=None):
        """MIM numbers OMIM associates with this gene through symbols.

        Exact matches come straight from the source index; reconciled
        matches (case/alias variants) are reported as repaired
        conflicts.  ``index`` is an optional precomputed
        :class:`SymbolIndex` (the executor builds one per query); when
        omitted one is built on the fly.
        """
        if index is None:
            index = SymbolIndex.from_wrapper(omim_wrapper)
        found = index.exact(official_symbol)

        def adopt(listed, ids, via):
            new_ids = ids - found
            for entry_id in sorted(new_ids):
                report.record(
                    f"symbol_{via}",
                    anchor_id,
                    (
                        f"OMIM {entry_id} lists {listed!r} for "
                        f"official symbol {official_symbol!r}"
                    ),
                    True,
                )
            found.update(new_ids)

        if self.policy.case_insensitive_symbols:
            for listed, ids in index.folded(official_symbol):
                if listed != official_symbol:
                    adopt(listed, ids, "case")
        if self.policy.use_alias_symbols:
            for alias in aliases:
                exact_ids = index.exact(alias)
                if exact_ids:
                    adopt(alias, exact_ids, "alias")
                if self.policy.case_insensitive_symbols:
                    for listed, ids in index.folded(alias):
                        if listed != alias:
                            adopt(listed, ids, "alias")
        return found
