"""The GO ontology store: a rooted DAG per namespace.

Stores terms keyed by accession, derives the child index and memoizes
transitive ancestor closures once per version, checks acyclicity, and
exposes the :class:`~repro.sources.base.DataSource` contract with
graph-flavoured native capabilities (ancestor-of is *not* native — the
real GO flat files could only be grepped, so closure queries must run
at the wrapper/mediator, which the optimizer bench exercises).
"""

from repro.sources.base import DataSource
from repro.sources.go.obo import parse_obo, write_obo
from repro.util.errors import DataFormatError


class GoOntology(DataSource):
    """In-memory OBO-backed ontology of :class:`GoTerm`.

    Parents may be added after children (OBO files are unordered);
    referential integrity is checked by :meth:`validate`.
    """

    name = "GO"

    KEY = "go_id"

    FIELDS = (
        "GoID",
        "Name",
        "Namespace",
        "Definition",
        "IsA",
        "Synonyms",
        "Obsolete",
    )

    CAPABILITIES = frozenset(
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
    INDEXED_FIELDS = ("GoID", "Name", "Namespace", "IsA")

    parse = staticmethod(parse_obo)
    write = staticmethod(write_obo)

    def roots(self, namespace=None):
        """Terms without parents, optionally within one namespace."""
        return [
            term
            for term in self.all_records()
            if term.is_root
            and (namespace is None or term.namespace == namespace)
        ]

    # -- graph queries ----------------------------------------------------------

    def parents(self, go_id):
        term = self._require(go_id)
        return [self._require(parent) for parent in term.is_a]

    def children(self, go_id):
        self._require(go_id)
        with self._fetch_mutex():
            children = self._graph_locked()["children"]
        return list(children.get(go_id, ()))

    def ancestors(self, go_id):
        """All transitive ancestors' accessions (excluding the term).

        Memoized bottom-up; the memo is shared state read by federated
        worker threads, so it is maintained under the same per-source
        fetch mutex as the equality indexes.
        """
        with self._fetch_mutex():
            return set(self._ancestors_locked(go_id))

    def _ancestors_locked(self, go_id):
        memo = self._graph_locked()["ancestors"]
        cached = memo.get(go_id)
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
            if node in memo:
                continue
            term = self._require(node)
            if expanded:
                in_progress.discard(node)
                closure = set()
                for parent in term.is_a:
                    closure.add(parent)
                    closure.update(memo[parent])
                memo[node] = frozenset(closure)
            else:
                if node in in_progress:
                    raise DataFormatError(
                        f"is_a cycle through {node}", source_name=self.name
                    )
                in_progress.add(node)
                stack.append((node, True))
                for parent in term.is_a:
                    if parent not in memo:
                        stack.append((parent, False))
        return memo[go_id]

    def _graph_locked(self):
        """This version's is_a graph: ``children`` (parent accession ->
        child terms, in insertion order) and the ``ancestors`` memo.

        Derived on first use after each mutation, the way the equality
        indexes are, so ``add``/``remove`` need not maintain it; caller
        holds the fetch mutex, which ``add``/``remove`` take too.
        """
        graph = self.__dict__.get("_graph")
        if graph is None or graph["version"] != self.version:
            children = {}
            for term in self._records.values():
                for parent in term.is_a:
                    children.setdefault(parent, []).append(term)
            graph = {
                "version": self.version,
                "children": children,
                "ancestors": {},
            }
            self._graph = graph
        return graph

    def descendants(self, go_id):
        """All transitive descendants' accessions (excluding the term)."""
        self._require(go_id)
        with self._fetch_mutex():
            children = self._graph_locked()["children"]
        closure = set()
        stack = [child.go_id for child in children.get(go_id, ())]
        while stack:
            child = stack.pop()
            if child in closure:
                continue
            closure.add(child)
            stack.extend(term.go_id for term in children.get(child, ()))
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
        for term in self.all_records():
            names = [term.name] + list(term.synonyms)
            if any(lowered in name.lower() for name in names):
                found.append(term)
        return found

    # -- integrity ----------------------------------------------------------------

    def validate(self):
        """Referential and acyclicity problems as a list of strings."""
        problems = []
        for term in self.all_records():
            for parent in term.is_a:
                if parent not in self._records:
                    problems.append(
                        f"{term.go_id} is_a missing term {parent}"
                    )
                elif self._records[parent].namespace != term.namespace:
                    problems.append(
                        f"{term.go_id} crosses namespaces via is_a {parent}"
                    )
        problems.extend(self._find_cycles())
        return problems

    def _find_cycles(self):
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {go_id: WHITE for go_id in self._records}
        problems = []

        def visit(go_id, trail):
            color[go_id] = GRAY
            for parent in self._records[go_id].is_a:
                if parent not in self._records:
                    continue
                if color[parent] == GRAY:
                    problems.append(
                        "is_a cycle: " + " -> ".join(trail + [parent])
                    )
                elif color[parent] == WHITE:
                    visit(parent, trail + [parent])
            color[go_id] = BLACK

        for go_id in self._records:
            if color[go_id] == WHITE:
                visit(go_id, [go_id])
        return problems

    def _require(self, go_id):
        term = self._records.get(go_id)
        if term is None:
            raise DataFormatError(
                f"unknown GO accession {go_id}", source_name=self.name
            )
        return term

    # -- flat-file round trip ---------------------------------------------------

    @classmethod
    def from_text(cls, text, index_state=None):
        """Parse OBO text, rejecting an inconsistent ontology."""
        ontology = super().from_text(text, index_state=index_state)
        problems = ontology.validate()
        if problems:
            raise DataFormatError(
                "OBO document is inconsistent: " + "; ".join(problems[:5]),
                source_name=cls.name,
            )
        return ontology
