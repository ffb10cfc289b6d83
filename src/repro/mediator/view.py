"""The integrated answer's gene rows and OEM view, built when first read.

Section 4.2's answer is *"one integrated, navigable result with
web-links"*: gene rows in the global vocabulary and an OEM graph of
``Gene`` objects, each carrying its attributes, one detail object per
matched link (Annotation / Disease / Citation / Protein) and a
``Links`` object of ``Url`` children.

Most consumers read neither — the service answers with gene ids and a
count, the benchmarks check gene ids — so the executor builds neither.
It keeps the plain data each is a pure function of: an
:class:`AnswerRows` (the surviving anchor records, their ids and
matched link ids as columns, the query's ``select`` and the anchor
source's translation steps) and an :class:`AnswerView`.
:meth:`AnswerRows.gene_ids` reads the gene ids off the anchor-id
column without building a row.
:class:`~repro.mediator.executor.IntegratedResult` calls
:meth:`AnswerRows.build` once, on the first read that needs rows, and
:meth:`AnswerView.build` once, on the first read of ``result.graph``
or ``result.root``.
"""

from dataclasses import dataclass

from repro.mediator.mapping import translate
from repro.oem.graph import OEMGraph
from repro.oem.types import OEMType
from repro.sources.urls import url_for

#: Link source -> label of its detail objects under a ``Gene``.
LINK_CHILD_LABELS = {
    "GO": "Annotation",
    "OMIM": "Disease",
    "PubMed": "Citation",
    "SwissProt": "Protein",
}

#: Global-schema labels a link detail object shows, in view order.
DETAIL_LABELS = (
    "Title", "Aspect", "Inheritance", "Journal", "Year", "SequenceLength",
)


def link_detail(translated):
    """The ``(label, value)`` pairs of one translated link record that
    its detail object shows — the only part of an enrichment record
    the view reads."""
    return tuple(
        (label, translated[label])
        for label in DETAIL_LABELS
        if translated.get(label) not in (None, "", [])
    )


@dataclass(frozen=True, eq=False)
class AnswerRows:
    """Everything the answer's gene rows are a pure function of.

    ``anchors`` are the surviving anchor records in answer order: the
    source's read-only extent records (the record contract of
    :mod:`repro.sources.base`), held, not copied.  ``anchor_ids`` is
    the column of their raw GeneID field values.  ``links`` holds
    their matched link ids as columns: ``(source, column)`` pairs in
    the order of each row's ``_links`` keys, each column one tuple of
    ids per anchor (a pruned step's tuples are its link table's own).
    ``select`` is the query's projection.  ``steps`` are the anchor
    source's translation steps
    (:meth:`~repro.mediator.mapping.MappingModule.translation_steps`),
    their transform functions resolved when the question ran, so a
    rule added or a function re-registered later does not reach
    these rows.
    """

    anchors: list
    anchor_ids: tuple
    links: tuple
    select: tuple
    steps: tuple

    def gene_ids(self):
        """The rows' ``GeneID`` values, in answer order, without
        building a row: the anchor-id column passed through the GeneID
        step's transform, if it has one."""
        [transform] = [
            transform for _field, key, transform in self.steps
            if key == "GeneID"
        ]
        if transform is None:
            return list(self.anchor_ids)
        return [transform(value) for value in self.anchor_ids]

    def build(self):
        """The gene rows: each anchor record translated, carrying its
        matched link ids under ``_links`` (source -> list of ids), and
        cut to ``select`` (plus ``GeneID`` and ``_links``) when the
        query selects."""
        sources = [source for source, _column in self.links]
        columns = [column for _source, column in self.links]
        genes = []
        for record, *ids in zip(self.anchors, *columns):
            gene = translate(record, self.steps)
            gene["_links"] = dict(zip(sources, map(list, ids)))
            if self.select:
                gene = {
                    key: value
                    for key, value in gene.items()
                    if key in self.select or key in ("GeneID", "_links")
                }
            genes.append(gene)
        return genes


@dataclass(frozen=True, eq=False)
class AnswerView:
    """Everything the integrated OEM view needs besides the gene rows.

    ``anchor_ids`` are the surviving anchor records' raw identifiers,
    one per gene row, in answer order (the ``Self`` web-link input).
    ``link_steps`` are ``(source, via, child label)``, one per link
    source of the plan, in step order.  ``details`` maps each link
    source to ``{link id: detail pairs}`` (see :func:`link_detail`)
    for the ids the answer matched; it is a copy, so later updates to
    the executor's shared enrichment cache cannot change a view.

    Instances are plain, picklable data shared by reference between
    results; treat them as immutable.
    """

    anchor_source: str
    anchor_ids: tuple
    link_steps: tuple
    details: dict

    def build(self, genes):
        """The integrated OEM view ``(graph, root)`` of ``genes`` — the
        answer's translated rows, each carrying its matched link ids
        under ``_links``."""
        graph = OEMGraph("integrated-view")
        root = graph.new_complex()
        graph.set_root("IntegratedView", root)
        for gene_dict, anchor_id in zip(genes, self.anchor_ids):
            self._build_gene(graph, root, gene_dict, anchor_id)
        return graph, root

    def _build_gene(self, graph, root, gene_dict, anchor_id):
        gene = graph.attach_complex(root, "Gene")
        for key, value in gene_dict.items():
            if key == "_links" or value in (None, "", []):
                continue
            values = value if isinstance(value, list) else [value]
            for item in values:
                graph.attach_atomic(gene, key, item)
        links_for_record = gene_dict["_links"]
        # Linked detail objects (Annotation / Disease / Citation).
        for source, via, child_label in self.link_steps:
            source_details = self.details.get(source, {})
            for link_id in links_for_record.get(source, ()):
                child = graph.attach_complex(gene, child_label)
                graph.attach_atomic(child, via, link_id)
                for key, value in source_details.get(link_id, ()):
                    graph.attach_atomic(child, key, value)
        # Web links for interactive navigation.  Built from the
        # *reconciled* answer (self + matched link ids), never from the
        # raw record — raw links may dangle, and the integrated view
        # must only offer links that resolve.
        links_object = graph.attach_complex(gene, "Links")
        graph.attach_atomic(
            links_object,
            "Self",
            url_for(self.anchor_source, anchor_id),
            OEMType.URL,
        )
        for source, _via, _label in self.link_steps:
            for link_id in links_for_record.get(source, ()):
                graph.attach_atomic(
                    links_object, source, url_for(source, link_id),
                    OEMType.URL,
                )
