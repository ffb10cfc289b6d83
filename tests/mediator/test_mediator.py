"""Tests for the Mediator facade: registration lifecycle and plug-in."""

import pytest

from repro.mediator import (
    GlobalQuery,
    LinkConstraint,
    Mediator,
    OptimizerOptions,
)
from repro.mediator.decompose import Condition
from repro.util.errors import IntegrationError
from repro.wrappers import PubmedLikeWrapper, default_wrappers


class TestRegistration:
    def test_sources_in_registration_order(self, mediator):
        assert mediator.sources() == ["LocusLink", "GO", "OMIM"]

    def test_double_registration_rejected(self, mediator, corpus):
        from repro.wrappers import LocusLinkWrapper

        with pytest.raises(IntegrationError):
            mediator.register_wrapper(LocusLinkWrapper(corpus.locuslink))

    def test_unregister(self, mediator):
        mediator.unregister_source("OMIM")
        assert mediator.sources() == ["LocusLink", "GO"]
        with pytest.raises(IntegrationError):
            mediator.wrapper("OMIM")

    def test_unregister_unknown_rejected(self, mediator):
        with pytest.raises(IntegrationError):
            mediator.unregister_source("Ensembl")

    def test_unregistered_source_leaves_gml(self, mediator):
        mediator.unregister_source("OMIM")
        graph, root = mediator.gml()
        assert len(root.refs_with_label("Source")) == 2


class TestPlugInNewSource:
    """Requirement 2: a new source plugged in as it comes into existence."""

    def test_pubmed_plugs_in_live(self, mediator, corpus):
        citations = corpus.make_citation_store(count=60)
        correspondence_set = mediator.register_wrapper(
            PubmedLikeWrapper(citations)
        )
        # MDSM mapped it automatically.
        assert correspondence_set.to_global("Pmid") == "CitationID"
        # It appears in the GML immediately.
        graph, root = mediator.gml()
        names = [
            graph.child_value(source, "Name")
            for source in graph.children(root, "Source")
        ]
        assert names == ["LocusLink", "GO", "OMIM", "PubMed"]

    def test_queries_route_to_new_source(self, mediator, corpus):
        citations = corpus.make_citation_store(count=60)
        mediator.register_wrapper(PubmedLikeWrapper(citations))
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint("PubMed", "include", via="CitationID"),
            ),
        )
        result = mediator.query(query)
        expected = {
            locus_id
            for citation in citations.all_records()
            for locus_id in citation.locus_ids
        }
        assert expected  # the corpus wires citations bidirectionally
        assert set(result.gene_ids()) == expected


class TestExplain:
    def test_explain_produces_plan_text(self, mediator):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(LinkConstraint("GO", "include", via="AnnotationID"),),
        )
        text = mediator.explain(query)
        assert "execution plan" in text
        assert "LocusLink" in text


class TestLinksIntoOneSource:
    """Two links into GO: the answer's GO ids are the union of both
    links' ids, whatever the optimizer options, and the view shows
    each of them once."""

    QUERY = GlobalQuery(
        anchor_source="LocusLink",
        links=(
            LinkConstraint(
                "GO", "include", via="AnnotationID",
                conditions=(Condition("Aspect", "=", "molecular_function"),),
            ),
            LinkConstraint("GO", "include", via="AnnotationID"),
        ),
    )

    @staticmethod
    def answer(corpus, options):
        mediator = Mediator(optimizer_options=options)
        for wrapper in default_wrappers(corpus):
            mediator.register_wrapper(wrapper)
        return mediator.query(TestLinksIntoOneSource.QUERY)

    def test_link_ids_do_not_depend_on_options(self, corpus):
        answers = [
            {
                gene["GeneID"]: gene["_links"]["GO"]
                for gene in self.answer(corpus, options).genes
            }
            for options in (
                OptimizerOptions(),
                OptimizerOptions(enable_pruning=False),
                OptimizerOptions(enable_ordering=False),
                OptimizerOptions(enable_semijoin=True),
            )
        ]
        assert len(answers[0]) == 74
        assert all(other == answers[0] for other in answers[1:])
        # The unconditioned link matches every valid GO id of a gene.
        assert sum(len(ids) for ids in answers[0].values()) == 209
        for ids in answers[0].values():
            assert len(ids) == len(set(ids))

    def test_view_shows_each_link_once(self, corpus):
        result = self.answer(corpus, OptimizerOptions())
        sources = [source for source, _via, _label in result.view.link_steps]
        assert sources == ["GO"]
        graph, root = result.graph, result.root
        genes = graph.children(root, "Gene")
        assert len(genes) == len(result.genes)
        for gene, row in zip(genes, result.genes):
            ids = row["_links"]["GO"]
            annotations = graph.children(gene, "Annotation")
            assert sorted(
                graph.child_value(child, "AnnotationID")
                for child in annotations
            ) == sorted(ids)
            [links] = graph.children(gene, "Links")
            assert len(graph.children(links, "GO")) == len(ids)

    def test_conflicts_counted_once_per_source(self, conflicted_corpus):
        """The same link given twice raises each conflict once: the
        report and the ``conflicts`` counter match the single link's."""
        link = LinkConstraint("GO", "include", via="AnnotationID")
        once, twice = Mediator(), Mediator()
        for mediator in (once, twice):
            for wrapper in default_wrappers(conflicted_corpus):
                mediator.register_wrapper(wrapper)
        single = once.query(
            GlobalQuery(anchor_source="LocusLink", links=(link,))
        )
        double = twice.query(
            GlobalQuery(anchor_source="LocusLink", links=(link, link))
        )
        assert double.gene_ids() == single.gene_ids()
        assert len(single.genes) == 166
        assert single.reconciliation.count() == 9
        assert double.reconciliation.issues == single.reconciliation.issues
        assert double.report.counters["conflicts"] == 9
