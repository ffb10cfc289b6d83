"""The GO ontology store: a rooted DAG per namespace.

Stores terms indexed by accession, maintains the child index, computes
transitive ancestor/descendant closures (memoized), checks acyclicity,
and exposes the :class:`~repro.sources.base.DataSource` contract with
graph-flavoured native capabilities (ancestor-of is *not* native — the
real GO flat files could only be grepped, so closure queries must run
at the wrapper/mediator, which the optimizer bench exercises).
"""

from repro.sources.base import DataSource
from repro.sources.go.obo import parse_obo, write_obo
from repro.util.errors import DataFormatError


class GoOntology(DataSource):
    """In-memory OBO-backed ontology of :class:`GoTerm`."""

    name = "GO"

    _FIELDS = (
        "GoID",
        "Name",
        "Namespace",
        "Definition",
        "IsA",
        "Synonyms",
        "Obsolete",
    )

    _CAPABILITIES = frozenset(
        {
            ("GoID", "="),
            ("Name", "="),
            ("Name", "like"),
            ("Name", "contains"),
            ("Namespace", "="),
            ("IsA", "="),
            ("Obsolete", "="),
        }
    )

    #: Hash-indexed fields: accession (the mediator's batched link
    #: fetches probe it), names, namespaces, and is_a back-references.
    #: ``Obsolete`` is deliberately unindexed — a boolean splits the
    #: extent in half, so the scan is as good as the index.
    _INDEXED_FIELDS = ("GoID", "Name", "Namespace", "IsA")

    def indexed_fields(self):
        return self._INDEXED_FIELDS

    def __init__(self, terms=(), index_state=None):
        self._terms = {}
        self._children = {}
        self._version = 0
        self._ancestor_cache = {}
        for term in terms:
            self.add(term)
        self._adopt_or_warn(index_state)

    # -- DataSource contract ---------------------------------------------------

    def fields(self):
        return self._FIELDS

    def capabilities(self):
        return self._CAPABILITIES

    def records(self):
        return [term.as_dict() for _, term in sorted(self._terms.items())]

    def count(self):
        return len(self._terms)

    @property
    def version(self):
        return self._version

    # -- store operations ---------------------------------------------------------

    def add(self, term):
        """Insert a term; duplicate accessions are rejected.

        Parents may be added after children (OBO files are unordered);
        referential integrity is checked by :meth:`validate`.
        """
        if term.go_id in self._terms:
            raise DataFormatError(
                f"duplicate GO accession {term.go_id}", source_name=self.name
            )
        self._terms[term.go_id] = term
        for parent in term.is_a:
            self._children.setdefault(parent, []).append(term.go_id)
        self._version += 1
        self._ancestor_cache.clear()

    def get(self, go_id):
        """The term with accession ``go_id``, or ``None``."""
        return self._terms.get(go_id)

    def all_terms(self):
        return [self._terms[key] for key in sorted(self._terms)]

    def term_ids(self):
        return sorted(self._terms)

    def roots(self, namespace=None):
        """Terms without parents, optionally within one namespace."""
        return [
            term
            for term in self.all_terms()
            if term.is_root
            and (namespace is None or term.namespace == namespace)
        ]

    # -- graph queries ----------------------------------------------------------

    def parents(self, go_id):
        term = self._require(go_id)
        return [self._require(parent) for parent in term.is_a]

    def children(self, go_id):
        self._require(go_id)
        return [
            self._terms[child] for child in self._children.get(go_id, ())
        ]

    def ancestors(self, go_id):
        """All transitive ancestors' accessions (excluding the term).

        Memoized bottom-up; the memo is shared state read by federated
        worker threads, so it is maintained under the same per-source
        fetch mutex as the equality indexes.
        """
        with self._fetch_mutex():
            return set(self._ancestors_locked(go_id))

    def _ancestors_locked(self, go_id):
        cached = self._ancestor_cache.get(go_id)
        if cached is not None:
            return cached
        self._require(go_id)
        # Iterative post-order over the is_a DAG: a term's closure is
        # computed only after all its parents' closures are memoized,
        # so deep ontologies never hit the recursion limit.
        stack = [(go_id, False)]
        in_progress = set()
        while stack:
            node, expanded = stack.pop()
            if node in self._ancestor_cache:
                continue
            term = self._require(node)
            if expanded:
                in_progress.discard(node)
                closure = set()
                for parent in term.is_a:
                    closure.add(parent)
                    closure.update(self._ancestor_cache[parent])
                self._ancestor_cache[node] = frozenset(closure)
            else:
                if node in in_progress:
                    raise DataFormatError(
                        f"is_a cycle through {node}", source_name=self.name
                    )
                in_progress.add(node)
                stack.append((node, True))
                for parent in term.is_a:
                    if parent not in self._ancestor_cache:
                        stack.append((parent, False))
        return self._ancestor_cache[go_id]

    def descendants(self, go_id):
        """All transitive descendants' accessions (excluding the term)."""
        self._require(go_id)
        closure = set()
        stack = list(self._children.get(go_id, ()))
        while stack:
            child = stack.pop()
            if child in closure:
                continue
            closure.add(child)
            stack.extend(self._children.get(child, ()))
        return closure

    def is_ancestor(self, ancestor_id, descendant_id):
        """True when ``ancestor_id`` is a transitive parent of
        ``descendant_id``."""
        return ancestor_id in self.ancestors(descendant_id)

    def depth(self, go_id):
        """Shortest is_a distance to a namespace root (root depth 0)."""
        term = self._require(go_id)
        if term.is_root:
            return 0
        return 1 + min(self.depth(parent) for parent in term.is_a)

    def search_by_name(self, needle):
        """Terms whose name or synonym contains ``needle`` (case-folded)."""
        lowered = needle.lower()
        found = []
        for term in self.all_terms():
            names = [term.name] + list(term.synonyms)
            if any(lowered in name.lower() for name in names):
                found.append(term)
        return found

    # -- integrity ----------------------------------------------------------------

    def validate(self):
        """Referential and acyclicity problems as a list of strings."""
        problems = []
        for term in self.all_terms():
            for parent in term.is_a:
                if parent not in self._terms:
                    problems.append(
                        f"{term.go_id} is_a missing term {parent}"
                    )
                elif self._terms[parent].namespace != term.namespace:
                    problems.append(
                        f"{term.go_id} crosses namespaces via is_a {parent}"
                    )
        problems.extend(self._find_cycles())
        return problems

    def _find_cycles(self):
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {go_id: WHITE for go_id in self._terms}
        problems = []

        def visit(go_id, trail):
            color[go_id] = GRAY
            for parent in self._terms[go_id].is_a:
                if parent not in self._terms:
                    continue
                if color[parent] == GRAY:
                    problems.append(
                        "is_a cycle: " + " -> ".join(trail + [parent])
                    )
                elif color[parent] == WHITE:
                    visit(parent, trail + [parent])
            color[go_id] = BLACK

        for go_id in self._terms:
            if color[go_id] == WHITE:
                visit(go_id, [go_id])
        return problems

    def _require(self, go_id):
        term = self._terms.get(go_id)
        if term is None:
            raise DataFormatError(
                f"unknown GO accession {go_id}", source_name=self.name
            )
        return term

    # -- flat-file round trip ---------------------------------------------------

    def dump(self):
        """The ontology as OBO text."""
        return write_obo(self.all_terms())

    @classmethod
    def from_text(cls, text, index_state=None):
        ontology = cls(parse_obo(text), index_state=index_state)
        problems = ontology.validate()
        if problems:
            raise DataFormatError(
                "OBO document is inconsistent: " + "; ".join(problems[:5]),
                source_name=cls.name,
            )
        return ontology
