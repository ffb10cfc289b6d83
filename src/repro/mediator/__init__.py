"""The ANNODA mediator: global model, decomposition, optimization,
execution and reconciliation.

Figure 1 of the paper puts the *Mediator* between the application
interface and the wrappers.  Section 3.1: *"Queries posed against the
ANNODA global schema will be translated into individual queries
against the relevant annotation databases, and their results combined
before being returned to the user."*

Pipeline::

    GlobalQuery --decompose--> SubQueries
        --optimize (one stage per subquery, four rules)--> PhysicalPlan
        --execute (via wrappers + reconciler)--> IntegratedResult (OEM)
"""

from repro.mediator.artifacts import ArtifactStore, stage_key
from repro.mediator.decompose import (
    GlobalQuery,
    LinkConstraint,
    QueryDecomposer,
    SubQuery,
)
from repro.mediator.executor import (
    ExecutionReport,
    Executor,
    IntegratedResult,
    SourceReport,
)
from repro.mediator.fetch import (
    FederatedFetcher,
    FederationPolicy,
    FetchReply,
    FetchRequest,
    FlakyWrapper,
)
from repro.mediator.global_schema import GlobalSchema
from repro.mediator.gml import GmlBuilder
from repro.mediator.mapping import MappingModule, TransformRegistry
from repro.mediator.mediator import Mediator
from repro.mediator.plan import (
    FetchStage,
    Optimizer,
    OptimizerOptions,
    PhysicalPlan,
    RuleReport,
)
from repro.mediator.reconcile import (
    ReconciliationPolicy,
    ReconciliationReport,
    Reconciler,
)
from repro.mediator.replicas import ReplicaSet

__all__ = [
    "ArtifactStore",
    "ExecutionReport",
    "Executor",
    "FederatedFetcher",
    "FederationPolicy",
    "FetchReply",
    "FetchRequest",
    "FetchStage",
    "FlakyWrapper",
    "GlobalQuery",
    "GlobalSchema",
    "GmlBuilder",
    "IntegratedResult",
    "LinkConstraint",
    "MappingModule",
    "Mediator",
    "Optimizer",
    "OptimizerOptions",
    "PhysicalPlan",
    "QueryDecomposer",
    "ReconciliationPolicy",
    "ReconciliationReport",
    "Reconciler",
    "ReplicaSet",
    "RuleReport",
    "SourceReport",
    "SubQuery",
    "TransformRegistry",
    "stage_key",
]

