"""The ANNODA mediator: global model, decomposition, optimization,
execution and reconciliation.

Figure 1 of the paper puts the *Mediator* between the application
interface and the wrappers.  Section 3.1: *"Queries posed against the
ANNODA global schema will be translated into individual queries
against the relevant annotation databases, and their results combined
before being returned to the user."*

Pipeline::

    GlobalQuery --decompose--> SubQueries --build--> LogicalPlan
        --rule optimizer + lowering--> PhysicalPlan
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
    ExecutionStats,
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
from repro.mediator.optimizer import Optimizer, OptimizerOptions
from repro.mediator.plan import (
    FetchStage,
    LogicalPlan,
    PhysicalPlan,
    RuleOptimizer,
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
    "ExecutionPlan",
    "ExecutionReport",
    "ExecutionStats",
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
    "LogicalPlan",
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
    "RuleOptimizer",
    "RuleReport",
    "SourceReport",
    "SubQuery",
    "TransformRegistry",
    "stage_key",
]


def __getattr__(name):
    # Deprecated alias, kept one release: Mediator.plan() now returns
    # a PhysicalPlan.  Resolved lazily so importing the package never
    # warns — only actually touching the old name does.
    if name == "ExecutionPlan":
        import warnings

        warnings.warn(
            "repro.mediator.ExecutionPlan is deprecated; "
            "Mediator.plan() returns a repro.mediator.PhysicalPlan",
            DeprecationWarning,
            stacklevel=2,
        )
        return PhysicalPlan
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
