"""Direct tests of less-traveled OEM model APIs."""

import copy
import pickle

import pytest

from repro.oem import OEMGraph, OEMType
from repro.oem.model import OEMObject, atomic_from_python
from repro.util.errors import DataFormatError


class TestAtomicFromPython:
    def test_inferred_type(self):
        obj = atomic_from_python(1, 42)
        assert obj.type is OEMType.INTEGER
        assert obj.value == 42

    def test_explicit_type(self):
        obj = atomic_from_python(1, "http://x", OEMType.URL)
        assert obj.type is OEMType.URL

    def test_inferred_values_keep_the_validation_normalizations(self):
        class Ratio(float):
            pass

        graph = OEMGraph()
        for build in (
            lambda value: atomic_from_python(1, value),
            graph.new_atomic,
        ):
            gif = build(bytearray(b"ab"))
            assert gif.type is OEMType.GIF
            assert gif.value == b"ab" and type(gif.value) is bytes
            real = build(Ratio(0.5))
            assert real.type is OEMType.REAL
            assert real.value == 0.5 and type(real.value) is float

    def test_explicit_types_are_still_validated(self):
        graph = OEMGraph()
        with pytest.raises(DataFormatError):
            graph.new_atomic(7, OEMType.URL)
        with pytest.raises(DataFormatError):
            atomic_from_python(1, True, OEMType.INTEGER)
        with pytest.raises(DataFormatError):
            graph.new_atomic(object())


class TestObjectRef:
    def test_slotted_frozen_and_picklable(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        ref = graph.add_edge(parent, "Symbol", graph.new_atomic("FOSB"))
        assert not hasattr(ref, "__dict__")
        with pytest.raises(AttributeError):
            ref.label = "Other"
        for copied in (
            pickle.loads(pickle.dumps(ref)),
            copy.copy(ref),
            copy.deepcopy(ref),
        ):
            assert copied == ref
            assert hash(copied) == hash(ref)


class TestReferenceMutation:
    def test_remove_reference(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        child = graph.new_atomic("x")
        graph.add_edge(parent, "label", child)
        parent.remove_reference("label", child.oid)
        assert parent.references == ()

    def test_remove_missing_reference_raises(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        with pytest.raises(DataFormatError):
            parent.remove_reference("label", 99)

    def test_atomic_objects_reject_reference_ops(self):
        graph = OEMGraph()
        atom = graph.new_atomic(1)
        with pytest.raises(DataFormatError):
            atom.add_reference("x", atom)
        with pytest.raises(DataFormatError):
            atom.remove_reference("x", 1)
        with pytest.raises(DataFormatError):
            atom.references
        with pytest.raises(DataFormatError):
            atom.sort_references(lambda ref: 0)
        with pytest.raises(DataFormatError):
            atom.reverse_references()

    def test_complex_with_value_rejected(self):
        with pytest.raises(DataFormatError):
            OEMObject(1, OEMType.COMPLEX, "value")

    def test_reverse_references(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        for value in (1, 2, 3):
            graph.add_edge(parent, "n", graph.new_atomic(value))
        parent.reverse_references()
        assert [
            graph.get(ref.oid).value for ref in parent.references
        ] == [3, 2, 1]

    def test_ref_render(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        child = graph.new_atomic("FOSB")
        ref = graph.add_edge(parent, "Symbol", child)
        assert ref.render() == f"(Symbol, &{child.oid}, String)"


class TestFreshAttachment:
    """The unchecked fast path used by answer construction: fresh
    children skip the duplicate check but stay coherent with it."""

    def test_attach_atomic_builds_the_same_edge_as_add_edge(self):
        fast, slow = OEMGraph(), OEMGraph()
        fast_parent = fast.new_complex()
        slow_parent = slow.new_complex()
        fast_child = fast.attach_atomic(fast_parent, "Symbol", "TP53")
        slow_child = slow.new_atomic("TP53")
        slow.add_edge(slow_parent, "Symbol", slow_child)
        assert fast_parent.references == slow_parent.references
        assert fast_child.type is slow_child.type

    def test_attach_atomic_with_explicit_type(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        child = graph.attach_atomic(
            parent, "Self", "http://x", OEMType.URL
        )
        assert child.type is OEMType.URL

    def test_attach_complex_returns_a_referenced_empty_child(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        child = graph.attach_complex(parent, "Annotation")
        assert child.is_complex and child.references == ()
        assert parent.references[0].oid == child.oid

    def test_later_checked_adds_see_fresh_references(self):
        """The lazily built dedup set must include references that
        were appended through the unchecked path before it existed."""
        graph = OEMGraph()
        parent = graph.new_complex()
        child = graph.attach_atomic(parent, "Symbol", "TP53")
        duplicate = graph.get(child.oid)
        graph.add_edge(parent, "Symbol", duplicate)  # exact duplicate
        assert len(parent.references) == 1

    def test_unchecked_append_on_atomic_rejected(self):
        graph = OEMGraph()
        atom = graph.new_atomic(1)
        with pytest.raises(DataFormatError):
            atom.append_reference_unchecked("x", atom)

    def test_remove_then_checked_readd(self):
        graph = OEMGraph()
        parent = graph.new_complex()
        child = graph.attach_atomic(parent, "Symbol", "TP53")
        graph.add_edge(parent, "Alias", child)  # builds the dedup set
        parent.remove_reference("Symbol", child.oid)
        graph.add_edge(parent, "Symbol", child)  # must not be deduped
        assert [ref.label for ref in parent.references] == [
            "Alias",
            "Symbol",
        ]


class TestGraphEdges:
    def test_adopt_rejects_duplicate_oid(self):
        graph = OEMGraph()
        first = graph.new_atomic(1)
        with pytest.raises(DataFormatError):
            graph.adopt(OEMObject(first.oid, OEMType.INTEGER, 2))

    def test_reserve_oid_prevents_collision(self):
        graph = OEMGraph()
        graph.reserve_oid(50)
        assert graph.new_atomic(1).oid == 51

    def test_root_names_and_has_root(self):
        graph = OEMGraph()
        obj = graph.new_complex()
        graph.set_root("A", obj)
        graph.set_root("B", obj)
        assert graph.root_names() == ["A", "B"]
        assert graph.has_root("A") and not graph.has_root("C")

    def test_atomic_and_complex_partitions(self):
        graph = OEMGraph()
        graph.new_atomic(1)
        graph.new_complex()
        graph.new_atomic("x")
        assert len(graph.atomic_objects()) == 2
        assert len(graph.complex_objects()) == 1
        assert len(graph) == 3

    def test_repr_forms(self):
        graph = OEMGraph("g")
        atom = graph.new_atomic(5)
        box = graph.new_complex()
        assert "value=5" in repr(atom)
        assert "Complex" in repr(box)
        assert "g" in repr(graph)
