"""The Annoda facade and its configuration."""

from dataclasses import dataclass, field
from typing import Optional

from repro.mediator.artifacts import ArtifactStore
from repro.mediator.fetch import FederationPolicy
from repro.mediator.mediator import Mediator
from repro.mediator.plan import OptimizerOptions
from repro.mediator.reconcile import ReconciliationPolicy, Reconciler
from repro.navigation.navigator import NavigationSession, Navigator
from repro.navigation.render import (
    render_integrated_view,
    render_integrated_view_html,
    render_object_view,
    render_query_form,
)
from repro.questions.catalog import QuestionCatalog
from repro.questions.model import BiologicalQuestion
from repro.questions.parser import QuestionParser
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.wrappers import default_wrappers


@dataclass(frozen=True)
class AnnodaConfig:
    """Behaviour knobs of an :class:`Annoda` instance."""

    optimizer: OptimizerOptions = field(default_factory=OptimizerOptions)
    reconciliation: ReconciliationPolicy = field(
        default_factory=ReconciliationPolicy
    )
    #: Wrapper-boundary concurrency and fault tolerance: worker count,
    #: per-attempt timeout, retry budget/backoff, and whether a failed
    #: source degrades the answer (partial result) or aborts the query.
    federation: FederationPolicy = field(default_factory=FederationPolicy)
    #: Directory where the mediator's cache also keeps complete
    #: answers, so they survive a restart; ``None`` keeps the cache in
    #: memory only.
    artifact_dir: Optional[str] = None


class Annoda:
    """The tool for integrating molecular-biological annotation data.

    Typical use::

        annoda = Annoda.with_default_sources(seed=7)
        result = annoda.ask(
            "Find LocusLink genes annotated with some GO function "
            "but not associated with some OMIM disease"
        )
        print(annoda.render_integrated_view(result, limit=10))
    """

    def __init__(self, config=None):
        self.config = config or AnnodaConfig()
        self.mediator = Mediator(
            optimizer_options=self.config.optimizer,
            reconciler=Reconciler(self.config.reconciliation),
            federation=self.config.federation,
            artifacts=ArtifactStore(directory=self.config.artifact_dir),
        )
        self.navigator = Navigator(self.mediator)
        self.parser = QuestionParser()
        self.catalog = QuestionCatalog()
        #: Set when built via :meth:`with_default_sources`.
        self.corpus = None

    # -- construction --------------------------------------------------------------

    @classmethod
    def with_default_sources(cls, seed=0, parameters=None, config=None):
        """An instance federating the paper's three sources, populated
        from a seeded synthetic corpus."""
        annoda = cls(config=config)
        annoda.corpus = AnnotationCorpus.generate(
            seed=seed, parameters=parameters or CorpusParameters()
        )
        for wrapper in default_wrappers(annoda.corpus):
            annoda.add_source(wrapper)
        return annoda

    @classmethod
    def from_directory(cls, directory, config=None, adopt_indexes=True):
        """An instance federating the flat-file sources persisted in
        ``directory`` (see :mod:`repro.sources.persistence`).

        ``adopt_indexes`` (default on) installs any valid persisted
        equality-index snapshots, making the cold start cheap; an
        invalid snapshot warns and rebuilds lazily instead.
        """
        from repro.sources.persistence import load_stores, wrappers_for

        annoda = cls(config=config)
        stores = load_stores(directory, adopt_indexes=adopt_indexes)
        for wrapper in wrappers_for(stores):
            annoda.add_source(wrapper)
        return annoda

    def save(self, directory, indexes=True):
        """Persist every registered source's data to ``directory`` as
        flat files in its native format, plus (by default) each
        store's equality-index snapshot for cheap cold starts."""
        from repro.sources.persistence import save_stores

        stores = [
            self.mediator.wrapper(name).source for name in self.sources()
        ]
        return save_stores(stores, directory, indexes=indexes)

    # -- source management -----------------------------------------------------------

    def add_source(self, wrapper):
        """Plug a new annotation source in (requirement 2); returns the
        MDSM correspondence set."""
        return self.mediator.register_wrapper(wrapper)

    def add_replicas(self, wrappers):
        """Plug N interchangeable wrappers of one source in as a
        replica set (fetches fail over between them before the source
        degrades); returns the MDSM correspondence set."""
        return self.mediator.register_replicas(wrappers)

    def remove_source(self, source_name):
        self.mediator.unregister_source(source_name)

    def sources(self):
        return self.mediator.sources()

    def describe_sources(self):
        """One line per registered source, from the annotation-database
        description registry."""
        return "\n".join(
            self.mediator.wrapper(name).describe()
            for name in self.mediator.sources()
        )

    # -- asking questions ----------------------------------------------------------------

    def ask(self, question, enrich_links=True, use_cache=True,
            recorder=None, budget=None):
        """Answer a biological question.

        ``question`` may be constrained-English text, a
        :class:`BiologicalQuestion`, or a
        :class:`~repro.mediator.decompose.GlobalQuery`.
        Returns an :class:`~repro.mediator.executor.IntegratedResult`.
        Cached answers are version-keyed (always as fresh as a
        recomputation); pass ``use_cache=False`` to force live
        execution, e.g. when measuring latency.

        Pass a fresh :class:`~repro.trace.recorder.TraceRecorder` as
        ``recorder`` to flight-record the query: the result's
        :attr:`~repro.mediator.executor.IntegratedResult.trace` becomes
        the closed span tree (see :meth:`trace`).

        Pass a :class:`~repro.util.cancel.RequestBudget` as ``budget``
        to bound the whole question with a deadline and a cooperative
        cancellation point; with a degrading federation policy an
        expired budget yields a partial answer instead of blocking.
        """
        if recorder is None:
            from repro.trace.recorder import NULL_RECORDER

            recorder = NULL_RECORDER
        global_query = self._to_global_query(question)
        return self.mediator.query(
            global_query, enrich_links=enrich_links, use_cache=use_cache,
            recorder=recorder, budget=budget,
        )

    def trace(self, question, enrich_links=True):
        """Answer a question with the flight recorder on.

        Convenience over :meth:`ask`: builds a fresh
        :class:`~repro.trace.recorder.TraceRecorder`, runs the query
        live (traces never replay from the answer cache) and returns
        the :class:`~repro.mediator.executor.IntegratedResult` whose
        ``trace`` attribute is the recorded span tree — feed it to
        :func:`repro.trace.render_trace` or
        :func:`repro.trace.trace_to_json`.
        """
        from repro.trace.recorder import TraceRecorder

        return self.ask(
            question, enrich_links=enrich_links, recorder=TraceRecorder()
        )

    def explain(self, question):
        """The plan story for a question: the per-rule fired/skipped
        report, then the numbered execution steps."""
        return self.mediator.explain(self._to_global_query(question))

    def plan(self, question):
        """The typed :class:`~repro.mediator.plan.PhysicalPlan` for a
        question (what :meth:`explain` renders)."""
        return self.mediator.plan(self._to_global_query(question))

    def _to_global_query(self, question):
        if isinstance(question, str):
            question = self.parser.parse(question)
        if isinstance(question, BiologicalQuestion):
            return question.to_global_query()
        return question

    # -- raw Lorel ---------------------------------------------------------------------------

    def lorel(self, text):
        """Evaluate raw Lorel text against the current ANNODA-GML (the
        section-4.1 power-user path)."""
        return self.mediator.lorel_engine().query(text)

    def gml(self):
        """The current global model ``(graph, root)``."""
        return self.mediator.gml()

    # -- navigation -------------------------------------------------------------------------------

    def navigate(self, url):
        """Follow a web-link URL to its individual object view."""
        return self.navigator.follow_url(url)

    def navigation_session(self):
        """A stateful browsing session with back/forward history."""
        return NavigationSession(self.navigator)

    # -- downstream analysis ------------------------------------------------------------------

    def enrichment_analyzer(self):
        """A :class:`~repro.analysis.EnrichmentAnalyzer` over this
        federation (GO term enrichment for any answered gene set)."""
        from repro.analysis import EnrichmentAnalyzer

        return EnrichmentAnalyzer(self)

    # -- result re-organization ---------------------------------------------------------------

    def reorganize(self, result):
        """A :class:`~repro.reorganize.Reorganizer` over a result —
        pivot views, incidence matrices and exports for further
        analysis (the paper's future-work item 4)."""
        from repro.reorganize import Reorganizer

        return Reorganizer(result)

    # -- rendering (the Figure-5 views) ----------------------------------------------------------

    def render_query_form(self, question):
        if isinstance(question, str):
            question = self.parser.parse(question)
        return render_query_form(question, self.sources())

    def render_integrated_view(self, result, limit=None):
        return render_integrated_view(result, limit=limit)

    def render_integrated_view_html(self, result, limit=None):
        return render_integrated_view_html(result, limit=limit)

    def render_object_view(self, view):
        return render_object_view(view)
