"""The wrapper contract and shared OML-building machinery.

A concrete wrapper declares, per OML label, how it maps onto its
source's record fields; everything else — condition translation,
native fetching, OEM construction, schema export, model caching — is
shared here.
"""

import abc

from repro.oem.graph import OEMGraph
from repro.oem.types import OEMType
from repro.sources.base import NativeCondition
from repro.util.errors import QueryError
from repro.wrappers.schema import elements_from_mapping


class Wrapper(abc.ABC):
    """Translate one :class:`~repro.sources.base.DataSource` into
    ANNODA-OML.

    Subclasses define:

    - ``entry_label`` — the OML label of one record (``Locus``,
      ``Term``, ``Disease``, ``Citation``);
    - ``field_specs()`` — ordered mapping ``OML label -> (source field,
      OEMType, multivalued, description)``;
    - ``web_links(record)`` — the record's ``Links`` entries as
      ``(label, url)`` pairs, powering interactive navigation.
    """

    #: OML label under which one record appears.
    entry_label = "Entry"

    #: OML label of the record's primary key (the label the navigator
    #: joins on and trace spans report); ``None`` for keyless sources.
    key_label = None

    def __init__(self, source):
        self.source = source
        self._model_cache = None
        # Label-resolution memos.  field_specs() is a per-class constant
        # mapping, but the mediator resolves labels per record per
        # condition in its hot loop — these memos make every resolution
        # after the first a plain dict hit.
        self._specs_memo = None
        self._source_field_memo = {}
        self._supports_memo = {}

    @property
    def name(self):
        return self.source.name

    @property
    def version(self):
        return self.source.version

    def trace_attributes(self):
        """Descriptive attributes a fetch span carries for this source.

        Kept tiny and JSON-stable: the entry label, the key label (when
        declared) and the source version — enough for ``explain`` output
        to identify the source without touching record data.
        """
        attributes = {"entry": self.entry_label, "version": self.version}
        if self.key_label is not None:
            attributes["key"] = self.key_label
        return attributes

    # -- subclass contract -----------------------------------------------------

    @abc.abstractmethod
    def field_specs(self):
        """Ordered dict: OML label -> (source field, OEMType,
        multivalued, description)."""

    @abc.abstractmethod
    def web_links(self, record):
        """(label, url) pairs for the record's ``Links`` object."""

    # -- capability translation ---------------------------------------------------

    def _specs(self):
        """Memoized :meth:`field_specs` — the mapping is a per-wrapper
        constant, so one call resolves it for the wrapper's lifetime."""
        if self._specs_memo is None:
            self._specs_memo = self.field_specs()
        return self._specs_memo

    def source_field(self, label):
        """The source record field behind an OML label (memoized)."""
        field = self._source_field_memo.get(label)
        if field is None:
            specs = self._specs()
            if label not in specs:
                raise QueryError(
                    f"wrapper {self.name!r} has no OML label {label!r}"
                )
            field = specs[label][0]
            self._source_field_memo[label] = field
        return field

    def supports(self, label, op):
        """True when a ``label op value`` predicate can be pushed down.

        ``in`` is the batched form of ``=``: a source that evaluates
        the equality natively evaluates the batch natively too.
        """
        memo_key = (label, op)
        cached = self._supports_memo.get(memo_key)
        if cached is None:
            specs = self._specs()
            if label not in specs:
                cached = False
            else:
                capabilities = self.source.capabilities()
                source_field = specs[label][0]
                if op == "in":
                    cached = (source_field, "=") in capabilities or (
                        source_field,
                        "in",
                    ) in capabilities
                else:
                    cached = (source_field, op) in capabilities
            self._supports_memo[memo_key] = cached
        return cached

    def translate_conditions(self, conditions):
        """OML-label conditions -> source-native conditions.

        Raises
        ------
        QueryError
            If any condition cannot run natively (the optimizer must
            keep it as a residual predicate instead).
        """
        translated = []
        for label, op, value in conditions:
            if not self.supports(label, op):
                raise QueryError(
                    f"{self.name} cannot push down {label} {op} {value!r}"
                )
            translated.append(
                NativeCondition(self.source_field(label), op, value)
            )
        return translated

    # -- fetching -------------------------------------------------------------------

    def fetch(self, request):
        """Records satisfying a :class:`~repro.mediator.fetch.FetchRequest`.

        The argument must be a ``FetchRequest`` (anything exposing a
        ``conditions`` attribute of ``(label, op, value)`` triples —
        duck-typed so this module never imports the mediator layer).
        Raw condition sequences raise ``TypeError``: the pre-request
        shim is gone.
        """
        conditions = getattr(request, "conditions", None)
        if conditions is None:
            raise TypeError(
                "Wrapper.fetch() requires a repro.mediator.fetch."
                "FetchRequest (raw condition sequences are no longer "
                "accepted)"
            )
        return self._fetch_native(conditions)

    def _fetch_native(self, conditions):
        """The pushdown fetch behind :meth:`fetch` (no shim, no
        deprecation — internal callers pass condition triples)."""
        return self.source.native_query(self.translate_conditions(conditions))

    def count(self):
        return self.source.count()

    # -- OML construction -------------------------------------------------------------

    def build_entry(self, graph, record):
        """Build the OML entry object for one record dict in ``graph``.

        This is the Figure-2/Figure-3 fragment: one complex object with
        an edge per populated field, plus a ``Links`` complex object of
        ``Url``-typed children.
        """
        entry = graph.new_complex()
        for label, (source_field, oem_type, multivalued, _desc) in (
            self._specs().items()
        ):
            value = record.get(source_field)
            if value in (None, "", (), []):
                continue
            values = value if isinstance(value, (list, tuple)) else [value]
            if not multivalued and len(values) > 1:
                values = values[:1]
            for item in values:
                child = graph.new_atomic(item, oem_type)
                graph.add_edge(entry, label, child)
        links = self.web_links(record)
        if links:
            links_object = graph.new_complex()
            graph.add_edge(entry, "Links", links_object)
            for label, url in links:
                child = graph.new_atomic(url, OEMType.URL)
                graph.add_edge(links_object, label, child)
        return entry

    def build_local_model(self, graph=None, conditions=(), limit=None):
        """The full ANNODA-OML model: a root with one entry per record.

        Returns ``(graph, root)``.  When ``graph`` is omitted a fresh
        graph named after the source is used (so a fresh model's root
        takes oid 1, as in Figure 3).
        """
        graph = graph if graph is not None else OEMGraph(self.name.lower())
        root = graph.new_complex()
        records = self._fetch_native(
            getattr(conditions, "conditions", conditions)
        )
        if limit is not None:
            records = records[:limit]
        for record in records:
            entry = self.build_entry(graph, record)
            graph.add_edge(root, self.entry_label, entry)
        if not graph.has_root(self.name):
            graph.set_root(self.name, root)
        return graph, root

    def local_model(self):
        """Cached ``(graph, root)`` of the current source state.

        Rebuilt whenever the source's version counter moves — the
        federated architecture always reflects live data, which the
        freshness experiment contrasts with the warehouse baseline.
        """
        if self._model_cache is None or self._model_cache[0] != self.version:
            graph, root = self.build_local_model()
            self._model_cache = (self.version, graph, root)
        return self._model_cache[1], self._model_cache[2]

    # -- schema export ----------------------------------------------------------------

    def schema_elements(self):
        """Schema elements (with live samples) for the mapping module,
        read lazily from the record objects: no store is copied."""
        records = (record.as_dict() for record in self.source.all_records())
        return elements_from_mapping(self.field_specs(), records)

    def describe(self):
        """One-line description for the annotation-database registry."""
        return self.source.describe()
