"""The OEM graph store.

Data represented in OEM *"can be thought of as a graph, with objects as
the vertices and labels or attributes as the edges"* (paper section
3.2.1).  :class:`OEMGraph` owns a set of :class:`~repro.oem.model.OEMObject`
vertices indexed by oid, plus *named roots* — the entry points a model
exposes (``LocusLink`` in Figure 3, ``ANNODA-GML`` in Figure 4, the
``answer`` object of section 4.1).

The graph supports construction from Python structures, traversal,
reachability, subgraph extraction, and merging another graph in with
oid remapping (the operation the mediator uses to combine wrapper
results into one answer graph).
"""

from repro.oem.model import OEMObject, ObjectRef
from repro.oem.types import OEMType, infer_type
from repro.util.errors import DataFormatError
from repro.util.oids import OidAllocator


class OEMGraph:
    """A mutable OEM database: objects, edges and named roots."""

    def __init__(self, name="oem"):
        self.name = name
        self._objects = {}
        self._roots = {}
        self._allocator = OidAllocator()

    # -- basic accessors ----------------------------------------------------

    def __len__(self):
        return len(self._objects)

    def __contains__(self, oid):
        return oid in self._objects

    def get(self, oid):
        """Return the object with ``oid``; raise if absent."""
        try:
            return self._objects[oid]
        except KeyError:
            raise DataFormatError(
                f"graph {self.name!r} has no object &{oid}"
            ) from None

    def objects(self):
        """All objects, in ascending oid order."""
        return [self._objects[oid] for oid in sorted(self._objects)]

    def atomic_objects(self):
        return [obj for obj in self.objects() if obj.is_atomic]

    def complex_objects(self):
        return [obj for obj in self.objects() if obj.is_complex]

    # -- roots ----------------------------------------------------------------

    def set_root(self, name, obj):
        """Register ``obj`` as the named entry point ``name``.

        Per section 4.1, answer names may need renaming *"so that answer
        is not overwritten"* — re-binding an existing name is therefore
        an explicit error; callers rename instead.
        """
        if name in self._roots:
            raise DataFormatError(
                f"root {name!r} already bound in graph {self.name!r}; "
                "rename the new answer instead of overwriting"
            )
        self._bind_root(name, obj)

    def rebind_root(self, name, obj):
        """Bind ``name`` to ``obj``, replacing any previous binding."""
        self._bind_root(name, obj)

    def _bind_root(self, name, obj):
        if obj.oid not in self._objects:
            raise DataFormatError(
                f"object &{obj.oid} does not belong to graph {self.name!r}"
            )
        self._roots[name] = obj.oid

    def root(self, name):
        """Return the root object bound to ``name``."""
        try:
            return self._objects[self._roots[name]]
        except KeyError:
            raise DataFormatError(
                f"graph {self.name!r} has no root named {name!r}"
            ) from None

    def has_root(self, name):
        return name in self._roots

    def root_names(self):
        """Root names in binding order."""
        return list(self._roots)

    def unique_root_name(self, base):
        """Derive an unused root name from ``base`` (``answer``,
        ``answer2``, ``answer3``, ...), implementing the renaming rule
        of section 4.1."""
        if base not in self._roots:
            return base
        counter = 2
        while f"{base}{counter}" in self._roots:
            counter += 1
        return f"{base}{counter}"

    # -- construction ---------------------------------------------------------

    def new_atomic(self, value, oem_type=None):
        """Create an atomic object; the type tag is inferred if omitted.

        An explicit tag is validated against ``value``; an inferred one
        fits it by construction and is not checked twice.
        """
        if oem_type is None:
            oem_type = infer_type(value)
            obj = OEMObject.inferred(
                self._allocator.allocate(), oem_type, value
            )
        else:
            obj = OEMObject(self._allocator.allocate(), oem_type, value)
        self._objects[obj.oid] = obj
        return obj

    def new_complex(self):
        """Create an empty complex object."""
        obj = OEMObject(self._allocator.allocate(), OEMType.COMPLEX)
        self._objects[obj.oid] = obj
        return obj

    def add_edge(self, parent, label, child):
        """Add the reference (label, child.oid, child.type) to ``parent``."""
        if (
            self._objects.get(parent.oid) is not parent
            or self._objects.get(child.oid) is not child
        ):
            raise DataFormatError(
                "both endpoints of an edge must belong to this graph"
            )
        return parent.add_reference(label, child)

    def attach_atomic(self, parent, label, value, oem_type=None):
        """Allocate an atomic for ``value`` and reference it from
        ``parent`` in one step.

        The child's oid is fresh, so the reference cannot duplicate an
        existing one and the duplicate check (and the ownership
        re-validation of objects this graph just created) is skipped —
        the answer-construction hot path allocates tens of thousands
        of these per query.  Returns the new child.
        """
        child = self.new_atomic(value, oem_type)
        parent.append_reference_unchecked(label, child)
        return child

    def attach_complex(self, parent, label):
        """Allocate an empty complex object and reference it from
        ``parent``; the fresh-oid twin of :meth:`attach_atomic`."""
        child = self.new_complex()
        parent.append_reference_unchecked(label, child)
        return child

    def build(self, value, label_order=None):
        """Build a subtree from a plain Python structure and return its root.

        Mappings become complex objects (keys are labels), lists fan a
        label out to several children when nested as ``{"label": [...]}``,
        and scalars become atomic objects.  ``label_order`` optionally
        fixes the emission order of a mapping's labels.
        """
        if isinstance(value, dict):
            node = self.new_complex()
            keys = list(value)
            if label_order:
                keys.sort(
                    key=lambda key: (
                        label_order.index(key)
                        if key in label_order
                        else len(label_order)
                    )
                )
            for key in keys:
                child_value = value[key]
                for item in _fan_out(child_value):
                    child = self.build(item, label_order=label_order)
                    if isinstance(item, OEMObject):
                        # A pre-existing object may already be
                        # referenced under this label: dedup applies.
                        self.add_edge(node, key, child)
                    else:
                        node.append_reference_unchecked(key, child)
            return node
        if isinstance(value, OEMObject):
            if value.oid not in self._objects:
                raise DataFormatError(
                    f"object &{value.oid} belongs to a different graph"
                )
            return value
        return self.new_atomic(value)

    def reserve_oid(self, oid):
        """Keep the allocator clear of an externally assigned oid."""
        self._allocator.reserve(oid)

    def adopt(self, obj):
        """Insert an externally constructed object (used by the reader)."""
        if obj.oid in self._objects:
            raise DataFormatError(f"oid &{obj.oid} already present")
        self._objects[obj.oid] = obj
        self._allocator.reserve(obj.oid)
        return obj

    # -- traversal --------------------------------------------------------------

    def children(self, obj, label=None):
        """Child objects of ``obj``, optionally restricted to one label."""
        refs = obj.references if label is None else obj.refs_with_label(label)
        return [self.get(ref.oid) for ref in refs]

    def child_value(self, obj, label, default=None):
        """The atomic value of the first ``label`` child, or ``default``."""
        for ref in obj.refs_with_label(label):
            child = self.get(ref.oid)
            if child.is_atomic:
                return child.value
        return default

    def parents(self, oid):
        """All (parent, label) pairs that reference ``oid``."""
        found = []
        for obj in self.objects():
            if obj.is_complex:
                for ref in obj.references:
                    if ref.oid == oid:
                        found.append((obj, ref.label))
        return found

    def reachable(self, start):
        """Set of oids reachable from ``start`` (inclusive), cycle-safe."""
        seen = set()
        stack = [start.oid]
        while stack:
            oid = stack.pop()
            if oid in seen:
                continue
            seen.add(oid)
            obj = self.get(oid)
            if obj.is_complex:
                stack.extend(
                    ref.oid for ref in obj.references if ref.oid not in seen
                )
        return seen

    def walk(self, start):
        """Depth-first pre-order traversal yielding (path, object).

        ``path`` is the tuple of labels from ``start``; each object is
        visited once (first encounter wins), so cycles terminate.
        """
        seen = set()

        def _walk(obj, path):
            if obj.oid in seen:
                return
            seen.add(obj.oid)
            yield path, obj
            if obj.is_complex:
                for ref in obj.references:
                    yield from _walk(self.get(ref.oid), path + (ref.label,))

        yield from _walk(start, ())

    # -- whole-graph operations ---------------------------------------------

    def validate(self):
        """Check referential integrity; return the list of problems.

        An empty list means the graph is well-formed: every reference
        resolves, every reference's type tag matches its target, and
        every root is a live object.
        """
        problems = []
        for obj in self.objects():
            if obj.is_complex:
                for ref in obj.references:
                    if ref.oid not in self._objects:
                        problems.append(
                            f"&{obj.oid} references missing object &{ref.oid}"
                        )
                    elif self._objects[ref.oid].type is not ref.type:
                        problems.append(
                            f"&{obj.oid} reference {ref.label} tags &{ref.oid} "
                            f"as {ref.type} but the object is "
                            f"{self._objects[ref.oid].type}"
                        )
        for name, oid in self._roots.items():
            if oid not in self._objects:
                problems.append(f"root {name!r} points at missing &{oid}")
        return problems

    def import_subgraph(self, other, start, label_map=None):
        """Copy the subgraph of ``other`` rooted at ``start`` into this graph.

        Oids are remapped to fresh local oids; shared substructure in the
        source stays shared in the copy.  ``label_map`` optionally renames
        edge labels during the copy (the mediator uses this to apply
        mapping rules while combining wrapper answers).  Returns the local
        copy of ``start``.
        """
        label_map = label_map or {}
        mapping = {}

        def _copy(src):
            if src.oid in mapping:
                return mapping[src.oid]
            if src.is_atomic:
                local = self.new_atomic(src.value, src.type)
                mapping[src.oid] = local
                return local
            local = self.new_complex()
            mapping[src.oid] = local
            for ref in src.references:
                child = _copy(other.get(ref.oid))
                self.add_edge(local, label_map.get(ref.label, ref.label), child)
            return local

        return _copy(start)

    def equal_structure(self, start_a, other, start_b):
        """True when two subtrees are isomorphic ignoring oids.

        Compares labels (as multisets per object), atomic types and
        values; used heavily by tests and by duplicate elimination.
        """
        return _signature(self, start_a, set()) == _signature(
            other, start_b, set()
        )

    def __repr__(self):
        return (
            f"OEMGraph({self.name!r}, {len(self._objects)} objects, "
            f"roots={list(self._roots)})"
        )


def _fan_out(value):
    """Lists fan a label out to several children; scalars stay single."""
    if isinstance(value, list):
        return value
    return [value]


def _signature(graph, obj, active):
    """Canonical signature of a subtree, with cycle cutoff."""
    if obj.oid in active:
        return ("cycle",)
    if obj.is_atomic:
        return ("atom", obj.type.value, obj.value)
    active = active | {obj.oid}
    parts = sorted(
        (ref.label,) + _signature(graph, graph.get(ref.oid), active)
        for ref in obj.references
    )
    return ("complex", tuple(parts))


def graph_signature(graph, obj):
    """Public wrapper over the subtree signature (used for oid-independent
    duplicate elimination and test assertions)."""
    return _signature(graph, obj, set())
