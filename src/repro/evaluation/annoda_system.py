"""ANNODA adapted to the baseline
:class:`~repro.baselines.interfaces.IntegrationSystem` contract, so the
Table-1 and architecture benchmarks compare all four columns through
one interface."""

from repro.baselines.interfaces import IntegrationSystem, SystemTraits
from repro.mediator.decompose import GlobalQuery, LinkConstraint

_TRAITS = SystemTraits(
    shields_source_details=True,
    global_schema_model="semistructured",
    single_access_point=True,
    requires_query_language_knowledge=False,
    comprehensive_query_capability=True,
    operations_on="integrated view",
    reorganizes_results=True,
    reconciles_results=True,
    handles_uncertainty=False,
    integrates_via_global_schema=True,
    supports_annotations=True,
    self_describing_model=True,
    integrates_self_generated_data=True,
    new_evaluation_functions=True,
    archival_functionality=False,
)


class AnnodaSystem(IntegrationSystem):
    """The federated column of Table 1, backed by a live
    :class:`~repro.core.Annoda` instance."""

    name = "ANNODA"
    approach = "federated databases"

    def __init__(self, annoda):
        self.annoda = annoda

    def traits(self):
        return _TRAITS

    def integrated_gene_disease_query(self):
        # Live execution: architecture comparisons measure federated
        # work, not the answer cache.
        result = self.annoda.ask(
            self.annoda.catalog.figure5b(),
            enrich_links=False,
            use_cache=False,
        )
        return set(result.gene_ids()), {
            "rows_shipped": result.report.counters["rows"],
            "reconciled": True,
            "conflicts_observed": result.reconciliation.count(),
            "wall_seconds": result.report.wall_seconds,
        }

    def disease_association_query(self):
        query = GlobalQuery(
            anchor_source="LocusLink",
            links=(
                LinkConstraint(
                    "OMIM", "include", via="DiseaseID", symbol_join=True
                ),
            ),
        )
        result = self.annoda.ask(
            query, enrich_links=False, use_cache=False
        )
        return set(result.gene_ids()), {
            "rows_shipped": result.report.counters["rows"],
            "reconciled": True,
            "conflicts_observed": result.reconciliation.count(),
            "wall_seconds": result.report.wall_seconds,
        }
