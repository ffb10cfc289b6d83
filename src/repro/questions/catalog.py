"""Canned biological questions, including the paper's flagship query."""

from repro.questions.builder import QuestionBuilder


class QuestionCatalog:
    """Ready-made questions covering the paper's demonstrated uses."""

    @staticmethod
    def figure5b():
        """The paper's Figure-5(b) query: *"Find a set of LocusLink
        genes, which are annotated with some GO functions, but not
        associated with some OMIM disease"*."""
        return (
            QuestionBuilder(
                "Find a set of LocusLink genes, which are annotated with "
                "some GO functions, but not associated with some OMIM "
                "disease"
            )
            .include("GO")
            .exclude("OMIM")
            .build()
        )

    @staticmethod
    def disease_genes(organism=None):
        """Genes associated with at least one OMIM disease entry."""
        builder = QuestionBuilder(
            "Find genes associated with some OMIM disease"
        ).include("OMIM")
        if organism is not None:
            builder.where("Species", "=", organism)
        return builder.build()

    @staticmethod
    def unannotated_genes():
        """Genes with neither GO annotation nor OMIM association —
        annotation backlog candidates."""
        return (
            QuestionBuilder(
                "Find genes not annotated with any GO function and not "
                "associated with any OMIM disease"
            )
            .exclude("GO")
            .exclude("OMIM")
            .build()
        )

    @staticmethod
    def genes_by_annotation_keyword(keyword, aspect=None):
        """Genes annotated with a GO term whose name contains a keyword."""
        builder = QuestionBuilder(
            f"Find genes annotated with GO functions containing "
            f"'{keyword}'"
        ).include("GO").where_linked("Title", "contains", keyword)
        if aspect is not None:
            builder.where_linked("Aspect", "=", aspect)
        return builder.build()

    @staticmethod
    def genes_under_term(go_id):
        """Genes annotated with a GO term *or any of its descendants* —
        the ontology-aware closure query GO analyses rely on."""
        return (
            QuestionBuilder(
                f"Find genes annotated with {go_id} or any term below it"
            )
            .include("GO")
            .where_linked("AnnotationID", "under", go_id)
            .build()
        )

    @staticmethod
    def cited_disease_genes():
        """Disease genes with literature support (needs the PubMed-like
        source plugged in)."""
        return (
            QuestionBuilder(
                "Find genes associated with some OMIM disease and cited "
                "in some PubMed article"
            )
            .include("OMIM")
            .include("PubMed")
            .build()
        )

    @classmethod
    def all_names(cls):
        return [
            "figure5b",
            "disease_genes",
            "unannotated_genes",
            "genes_by_annotation_keyword",
            "genes_under_term",
            "cited_disease_genes",
        ]
