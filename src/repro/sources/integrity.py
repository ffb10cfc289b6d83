"""Cross-source integrity auditing.

The paper's introduction lists as a benefit of integration that it
*"will facilitate the cross-validation of data obtained by different
data sources"*.  This module is that facility: given the loaded
stores, it audits every cross-reference between them and reports each
finding — dangling GO annotations, annotations to obsolete terms,
dangling MIM references, OMIM symbols that match no locus (exactly or
under case/alias reconciliation), protein back-references to missing
loci, citations of missing loci.

Exposed on the CLI as ``python -m repro validate``.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Finding:
    """One cross-validation finding."""

    kind: str
    source: str
    record_id: object
    detail: str

    def render(self):
        return f"[{self.kind}] {self.source} {self.record_id}: {self.detail}"


@dataclass
class IntegrityReport:
    """All findings of one audit, with counters."""

    findings: list = field(default_factory=list)
    checked_references: int = 0

    def add(self, kind, source, record_id, detail):
        self.findings.append(
            Finding(kind=kind, source=source, record_id=record_id,
                    detail=detail)
        )

    def count(self, kind=None):
        if kind is None:
            return len(self.findings)
        return sum(1 for finding in self.findings if finding.kind == kind)

    def kinds(self):
        return sorted({finding.kind for finding in self.findings})

    def render(self, limit=20):
        lines = [
            f"cross-source integrity audit: {self.checked_references} "
            f"references checked, {len(self.findings)} findings"
        ]
        for kind in self.kinds():
            lines.append(f"  {kind}: {self.count(kind)}")
        shown = self.findings[:limit]
        if shown:
            lines.append("")
            lines.extend(f"  {finding.render()}" for finding in shown)
            if len(self.findings) > limit:
                lines.append(
                    f"  ... and {len(self.findings) - limit} more"
                )
        return "\n".join(lines)


class IntegrityAuditor:
    """Audit the cross-references of a set of loaded stores.

    ``stores`` is a mapping ``{source name: store}`` as produced by
    :func:`repro.sources.persistence.load_stores`; any subset of the
    five known sources works, and only the references whose target
    source is present are audited.
    """

    def __init__(self, stores):
        self.stores = dict(stores)

    def audit(self):
        report = IntegrityReport()
        locuslink = self.stores.get("LocusLink")
        go = self.stores.get("GO")
        omim = self.stores.get("OMIM")
        pubmed = self.stores.get("PubMed")
        swissprot = self.stores.get("SwissProt")

        if locuslink is not None and go is not None:
            self._audit_go_annotations(locuslink, go, report)
        if locuslink is not None and omim is not None:
            self._audit_omim_references(locuslink, omim, report)
            self._audit_omim_symbols(locuslink, omim, report)
        if locuslink is not None and pubmed is not None:
            self._audit_citations(locuslink, pubmed, report)
        if locuslink is not None and swissprot is not None:
            self._audit_proteins(locuslink, swissprot, report)
        return report

    # -- per-pair audits ----------------------------------------------------

    @staticmethod
    def _audit_go_annotations(locuslink, go, report):
        for record in locuslink.all_records():
            for go_id in record.go_ids:
                report.checked_references += 1
                term = go.get(go_id)
                if term is None:
                    report.add(
                        "dangling_go_annotation",
                        "LocusLink",
                        record.locus_id,
                        f"annotates missing term {go_id}",
                    )
                elif term.obsolete:
                    report.add(
                        "obsolete_go_annotation",
                        "LocusLink",
                        record.locus_id,
                        f"annotates obsolete term {go_id} ({term.name})",
                    )

    @staticmethod
    def _audit_omim_references(locuslink, omim, report):
        for record in locuslink.all_records():
            for mim in record.omim_ids:
                report.checked_references += 1
                if omim.get(mim) is None:
                    report.add(
                        "dangling_omim_reference",
                        "LocusLink",
                        record.locus_id,
                        f"references missing MIM {mim}",
                    )

    @staticmethod
    def _audit_omim_symbols(locuslink, omim, report):
        official = {}
        lowered = {}
        aliases = {}
        for record in locuslink.all_records():
            official.setdefault(record.symbol, record.locus_id)
            lowered.setdefault(record.symbol.lower(), record.locus_id)
            for alias in record.aliases:
                aliases.setdefault(alias, record.locus_id)
                aliases.setdefault(alias.lower(), record.locus_id)
        for entry in omim.all_records():
            for symbol in entry.gene_symbols:
                report.checked_references += 1
                if symbol in official:
                    continue
                if symbol.lower() in lowered:
                    report.add(
                        "case_variant_symbol",
                        "OMIM",
                        entry.mim_number,
                        (
                            f"lists {symbol!r}; official spelling "
                            "differs only in case"
                        ),
                    )
                elif symbol in aliases or symbol.lower() in aliases:
                    report.add(
                        "alias_symbol",
                        "OMIM",
                        entry.mim_number,
                        f"lists alias {symbol!r} instead of the "
                        "official symbol",
                    )
                else:
                    report.add(
                        "unknown_symbol",
                        "OMIM",
                        entry.mim_number,
                        f"lists {symbol!r}, matching no locus",
                    )

    @staticmethod
    def _audit_citations(locuslink, pubmed, report):
        for citation in pubmed.all_records():
            for locus_id in citation.locus_ids:
                report.checked_references += 1
                if locuslink.get(locus_id) is None:
                    report.add(
                        "dangling_citation_link",
                        "PubMed",
                        citation.pmid,
                        f"cites missing locus {locus_id}",
                    )

    @staticmethod
    def _audit_proteins(locuslink, swissprot, report):
        for protein in swissprot.all_records():
            if not protein.locus_id:
                continue
            report.checked_references += 1
            locus = locuslink.get(protein.locus_id)
            if locus is None:
                report.add(
                    "dangling_protein_link",
                    "SwissProt",
                    protein.accession,
                    f"cross-references missing locus {protein.locus_id}",
                )
            elif locus.symbol != protein.gene_symbol:
                report.add(
                    "symbol_disagreement",
                    "SwissProt",
                    protein.accession,
                    (
                        f"GN {protein.gene_symbol!r} disagrees with "
                        f"locus {protein.locus_id} symbol "
                        f"{locus.symbol!r}"
                    ),
                )
