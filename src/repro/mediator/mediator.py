"""The Mediator facade: registration, GML, planning and execution.

Wires the mapping module (MDSM correspondences), the GML builder, the
decomposer, the optimizer and the executor into the single component
Figure 1 draws between the user interface and the wrappers.
"""

from repro.lorel.engine import LorelEngine
from repro.matching.mdsm import MdsmMatcher
from repro.mediator.artifacts import ArtifactStore
from repro.mediator.decompose import QueryDecomposer
from repro.mediator.executor import Executor
from repro.mediator.fetch import FederatedFetcher, FederationPolicy
from repro.mediator.global_schema import GlobalSchema
from repro.mediator.gml import ROOT_NAME, GmlBuilder
from repro.mediator.mapping import MappingModule
from repro.mediator.plan import Optimizer, OptimizerOptions
from repro.mediator.reconcile import Reconciler
from repro.trace.recorder import NULL_RECORDER
from repro.util.errors import IntegrationError


class Mediator:
    """Federated query answering over registered wrappers."""

    def __init__(self, global_schema=None, matcher=None,
                 optimizer_options=None, reconciler=None, federation=None,
                 artifacts=None):
        self.global_schema = global_schema or GlobalSchema()
        self.mapping_module = MappingModule(
            global_schema=self.global_schema,
            matcher=matcher or MdsmMatcher(),
        )
        self.optimizer_options = optimizer_options or OptimizerOptions()
        self.reconciler = reconciler or Reconciler()
        #: Concurrency and fault-tolerance knobs of the wrapper
        #: boundary; one fetcher (and its thread pool) is shared by
        #: every executor this mediator builds.
        self.federation = federation or FederationPolicy()
        self._fetcher = FederatedFetcher(self.federation)
        #: The one version-keyed cache
        #: (:class:`~repro.mediator.artifacts.ArtifactStore`): whole
        #: answers, enrichment indexes and symbol indexes, shared by
        #: every execution and thread querying this mediator.
        self.artifacts = ArtifactStore() if artifacts is None else artifacts
        self._wrappers = {}
        self._registration_order = []
        self._gml_cache = None

    # -- source registration (paper section 3.1, two-step plug-in) -------------

    def register_wrapper(self, wrapper):
        """Plug a new annotation source into the federation.

        Step 1: map its schema onto the global schema (MDSM); step 2:
        expose its mediator interface (wrapper registry + GML entry).
        Returns the correspondence set MDSM produced.
        """
        if wrapper.name in self._wrappers:
            raise IntegrationError(
                f"source {wrapper.name!r} is already registered"
            )
        correspondence_set = self.mapping_module.register_wrapper(wrapper)
        self._wrappers[wrapper.name] = wrapper
        self._registration_order.append(wrapper.name)
        self._gml_cache = None
        return correspondence_set

    def register_replicas(self, wrappers):
        """Plug N interchangeable wrappers of one source in as a
        :class:`~repro.mediator.replicas.ReplicaSet` — one registry
        entry whose fetches fail over between the replicas before the
        federation policy ever sees a failure."""
        from repro.mediator.replicas import ReplicaSet

        return self.register_wrapper(ReplicaSet(wrappers))

    def unregister_source(self, source_name):
        """Remove a source from the federation."""
        if source_name not in self._wrappers:
            raise IntegrationError(
                f"source {source_name!r} is not registered"
            )
        del self._wrappers[source_name]
        self._registration_order.remove(source_name)
        self.mapping_module.unregister(source_name)
        self._gml_cache = None
        # A later re-registration under the same name may reuse version
        # numbers, so no entry built from this source may survive it.
        self.artifacts.invalidate_source(source_name)

    def sources(self):
        """Registered source names in registration order."""
        return list(self._registration_order)

    def wrapper(self, source_name):
        try:
            return self._wrappers[source_name]
        except KeyError:
            raise IntegrationError(
                f"source {source_name!r} is not registered"
            ) from None

    def correspondences(self, source_name):
        return self.mapping_module.correspondences(source_name)

    # -- ANNODA-GML ----------------------------------------------------------------

    def gml(self):
        """The current global model as ``(graph, root)``.

        Rebuilt whenever registration or any source version changes —
        the federated view always reflects live sources.
        """
        versions = tuple(
            self._wrappers[name].version for name in self._registration_order
        )
        if self._gml_cache is None or self._gml_cache[0] != versions:
            builder = GmlBuilder(self.mapping_module)
            graph, root = builder.build(
                [self._wrappers[name] for name in self._registration_order]
            )
            self._gml_cache = (versions, graph, root)
        return self._gml_cache[1], self._gml_cache[2]

    def lorel_engine(self):
        """A Lorel engine with the current GML registered, for raw
        section-4.1-style queries."""
        graph, root = self.gml()
        engine = LorelEngine()
        engine.register(ROOT_NAME, graph, root)
        return engine

    # -- global query answering -------------------------------------------------------

    def plan(self, query, recorder=NULL_RECORDER):
        """Decompose and optimize ``query`` into its
        :class:`~repro.mediator.plan.PhysicalPlan`.

        The decompose span covers subquery translation; the optimize
        span covers the stages and the rule passes, and its attributes
        enumerate which rules fired and which were skipped.
        """
        decomposer = QueryDecomposer(self.mapping_module)
        optimizer = Optimizer(self._wrappers, self.optimizer_options)
        with recorder.span("decompose") as span:
            subqueries = decomposer.decompose(query)
            span.set("subqueries", len(subqueries))
        with recorder.span("optimize") as span:
            plan = optimizer.plan(subqueries)
            span.set("anchor", plan.anchor.source_name)
            span.set("link_steps", len(plan.link_steps))
            span.set("rules_fired", list(plan.rules.fired()))
            span.set("rules_skipped", list(plan.rules.skipped()))
            if plan.anchor.semijoin is not None:
                span.set("semijoin", plan.anchor.semijoin[0])
        return plan

    def query(self, query, enrich_links=True, use_cache=True,
              recorder=NULL_RECORDER, budget=None):
        """Answer a :class:`~repro.mediator.decompose.GlobalQuery`.

        Answers are cached in the mediator's one version-keyed store,
        keyed on the query, ``enrich_links``, the mediator's policies,
        the mapping module's transform rules *and every source's
        version counter*, so a cache hit is always
        as fresh as a recomputation — a repeat question costs nothing,
        while any source update invalidates automatically (the
        federated freshness guarantee is never traded away).  One rule
        governs answers, here and nowhere else:

        - the answer is looked up before planning, and a hit is shared
          by reference (callers treat it as read-only);
        - ``use_cache=False`` neither reads nor writes answers;
        - a traced run writes its answer but never reads one (a hit
          would replay nothing and the trace would be empty);
        - an answer degraded because its own budget expired is never
          stored — a repeat with a fresh budget must get a full
          answer — while one degraded by a source fault is stored
          like any other;
        - only complete answers are written to the disk tier.

        Pass a :class:`~repro.trace.recorder.TraceRecorder` to record
        the query flight: the result's :attr:`IntegratedResult.trace`
        becomes the closed span tree.

        Pass a :class:`~repro.util.cancel.RequestBudget` as ``budget``
        to bound the whole query: once it expires (or is cancelled)
        every outstanding fetch returns a ``timeout`` reply
        immediately and the federation policy decides between a
        degraded partial answer and an abort.
        """
        identity = versions = None
        if use_cache:
            identity, versions = self._answer_key(query, enrich_links)
            if not recorder.enabled:
                cached = self.artifacts.get("answer", identity, versions)
                if cached is not None:
                    # Mark the (shared) result as replayed at least
                    # once (see IntegratedResult.from_result_cache).
                    cached.from_result_cache = True
                    return cached
        with recorder.span(
            "query", attributes={"anchor": query.anchor_source}
        ) as query_span:
            plan = self.plan(query, recorder=recorder)
            executor = Executor(
                self._wrappers, self.mapping_module, self.reconciler,
                artifacts=self.artifacts, fetcher=self._fetcher,
                policy=self.federation, budget=budget,
            )
            result = executor.execute(
                plan, query, enrich_links=enrich_links, recorder=recorder
            )
            query_span.set("genes", len(result))
        if recorder.enabled:
            result.trace = recorder.root
        budget_cut = (
            budget is not None and budget.expired and result.report.degraded
        )
        if identity is not None and not budget_cut:
            self.artifacts.put(
                "answer", identity, versions, result,
                persist=result.report.ok,
            )
        return result

    def _answer_key(self, query, enrich_links):
        """``(identity, versions)`` of the answer to ``query``."""
        identity = (
            query,
            enrich_links,
            self.optimizer_options,
            self.reconciler.policy,
            self.federation,
            # Answer rows are translated records.
            self.mapping_module.transform_rules(),
        )
        versions = tuple(
            (name, self._wrappers[name].version)
            for name in self._registration_order
        )
        return identity, versions

    def explain(self, query):
        """The plan story as human-readable text: the per-rule
        fired/skipped report, then the numbered execution steps."""
        return self.plan(query).describe()
