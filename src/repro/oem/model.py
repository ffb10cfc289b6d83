"""Objects and object references of the Object Exchange Model.

In OEM *all entities are objects* (paper section 3.2.1).  Each object
has a unique object identifier (oid).  Atomic objects carry a value
from one of the disjoint atomic types; complex objects carry a set of
*object references*, denoted as (label, oid, type) pairs.

:class:`OEMObject` instances are owned by an :class:`~repro.oem.graph.OEMGraph`
and are never constructed directly by user code — the graph's
``new_atomic`` / ``new_complex`` factories allocate oids and keep the
oid index consistent.
"""

from dataclasses import dataclass

from repro.oem.types import OEMType, infer_type, validate_value
from repro.util.errors import DataFormatError
from repro.util.oids import OidAllocator


@dataclass(frozen=True)
class ObjectRef:
    """One (label, oid, type) pair of a complex object's value.

    ``type`` is the type tag of the *referenced* object, carried on the
    edge exactly as the paper describes so that a reader of a complex
    value knows each child's type without dereferencing it.
    """

    # Declared by hand: ``dataclass(slots=True)`` needs Python 3.10.
    __slots__ = ("label", "oid", "type")

    label: str
    oid: int
    type: OEMType

    def __reduce__(self):
        # The default reduction of a slotted class restores state by
        # setattr, which a frozen dataclass refuses.
        return ObjectRef, (self.label, self.oid, self.type)

    def render(self):
        """Render as e.g. ``(Symbol, &4, String)``."""
        return f"({self.label}, {OidAllocator.render(self.oid)}, {self.type})"


class OEMObject:
    """A single OEM object: oid plus either an atomic value or references.

    Attributes
    ----------
    oid:
        Unique integer identifier within the owning graph.
    type:
        The object's :class:`OEMType`; ``COMPLEX`` for non-atomic objects.
    value:
        The atomic payload (``None`` for complex objects).
    """

    __slots__ = ("oid", "type", "value", "_references", "_reference_set")

    def __init__(self, oid, oem_type, value=None):
        self.oid = oid
        self.type = oem_type
        if oem_type is OEMType.COMPLEX:
            if value is not None:
                raise DataFormatError(
                    "complex objects carry references, not a value"
                )
            self.value = None
            self._references = []
            # Mirrors _references for O(1) duplicate checks; built
            # lazily on the first checked add (fresh-reference appends
            # never need it) and the list alone stays authoritative
            # for order.
            self._reference_set = None
        else:
            self.value = validate_value(value, oem_type)
            self._references = None
            self._reference_set = None

    @classmethod
    def inferred(cls, oid, oem_type, value):
        """An atomic object whose ``oem_type`` is ``infer_type(value)``.

        Inference accepts exactly the values :func:`validate_value`
        passes for the inferred type, so the second check is skipped;
        only its normalizations remain (``bytearray`` is frozen to
        ``bytes``, a ``float`` subclass becomes ``float``).
        """
        obj = cls.__new__(cls)
        obj.oid = oid
        obj.type = oem_type
        if oem_type is OEMType.REAL:
            value = float(value)
        elif isinstance(value, bytearray):
            value = bytes(value)
        obj.value = value
        obj._references = None
        obj._reference_set = None
        return obj

    # -- classification -----------------------------------------------------

    @property
    def is_atomic(self):
        return self.type is not OEMType.COMPLEX

    @property
    def is_complex(self):
        return self.type is OEMType.COMPLEX

    # -- complex-object value -----------------------------------------------

    @property
    def references(self):
        """The (label, oid, type) pairs of a complex object's value."""
        if self._references is None:
            raise DataFormatError(
                f"atomic object &{self.oid} has no object references"
            )
        return tuple(self._references)

    def add_reference(self, label, child):
        """Append a reference to ``child`` under ``label``.

        The reference set of an OEM object is *a set*: adding an exact
        duplicate (same label, same child) is a no-op, matching the
        paper's set-of-pairs definition.
        """
        if self._references is None:
            raise DataFormatError(
                f"cannot add references to atomic object &{self.oid}"
            )
        ref = ObjectRef(label, child.oid, child.type)
        if self._reference_set is None:
            self._reference_set = set(self._references)
        if ref not in self._reference_set:
            self._reference_set.add(ref)
            self._references.append(ref)
        return ref

    def append_reference_unchecked(self, label, child):
        """Append a reference *without* the duplicate check.

        Only for callers that can prove the reference is new — e.g.
        ``child`` was allocated moments ago and has never been
        referenced, so no existing (label, oid) pair can collide.
        Misuse would violate the set-of-pairs contract; prefer
        :meth:`add_reference` when in doubt.
        """
        if self._references is None:
            raise DataFormatError(
                f"cannot add references to atomic object &{self.oid}"
            )
        ref = ObjectRef(label, child.oid, child.type)
        self._references.append(ref)
        if self._reference_set is not None:
            self._reference_set.add(ref)
        return ref

    def remove_reference(self, label, child_oid):
        """Remove the reference (label → child_oid); error if absent."""
        if self._references is None:
            raise DataFormatError(
                f"atomic object &{self.oid} has no references to remove"
            )
        for index, ref in enumerate(self._references):
            if ref.label == label and ref.oid == child_oid:
                del self._references[index]
                if self._reference_set is not None:
                    self._reference_set.discard(ref)
                return
        raise DataFormatError(
            f"object &{self.oid} has no reference {label} -> &{child_oid}"
        )

    def sort_references(self, key):
        """Stably sort the reference list by ``key(ref)``.

        Used by Lorel's ``order by``: an answer object's edge order is
        its result order.
        """
        if self._references is None:
            raise DataFormatError(
                f"atomic object &{self.oid} has no references to sort"
            )
        self._references.sort(key=key)

    def reverse_references(self):
        """Reverse the reference list (descending ``order by``)."""
        if self._references is None:
            raise DataFormatError(
                f"atomic object &{self.oid} has no references to reverse"
            )
        self._references.reverse()

    def labels(self):
        """The distinct outgoing labels, in first-appearance order."""
        seen = []
        for ref in self.references:
            if ref.label not in seen:
                seen.append(ref.label)
        return seen

    def refs_with_label(self, label):
        """All references whose label equals ``label``."""
        return [ref for ref in self.references if ref.label == label]

    # -- display ------------------------------------------------------------

    def __repr__(self):
        if self.is_atomic:
            return (
                f"OEMObject(&{self.oid}, {self.type}, value={self.value!r})"
            )
        return (
            f"OEMObject(&{self.oid}, Complex, "
            f"{len(self._references)} references)"
        )


def atomic_from_python(oid, value, oem_type=None):
    """Build an atomic object, inferring the type tag when not given."""
    if oem_type is None:
        return OEMObject.inferred(oid, infer_type(value), value)
    return OEMObject(oid, oem_type, value)
