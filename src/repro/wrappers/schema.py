"""Schema elements exported by wrappers for the mapping module.

MDSM matches *schema elements* of a local model against the global
model.  A :class:`SchemaElement` carries everything the similarity
metrics use: the OML label, the OEM value type, whether the label fans
out to multiple children, a prose description, and sample values drawn
from live data (instance-level evidence).
"""

from dataclasses import dataclass, field

from repro.oem.types import OEMType


@dataclass(frozen=True)
class SchemaElement:
    """One attribute of a local or global model."""

    name: str
    oem_type: OEMType
    multivalued: bool = False
    description: str = ""
    samples: tuple = ()

    def render(self):
        arity = "*" if self.multivalued else "1"
        return f"{self.name}[{arity}]: {self.oem_type}"


def elements_from_mapping(field_specs, records, sample_limit=5):
    """Build schema elements from a wrapper's field specification.

    ``field_specs`` is the wrapper's ordered mapping: OML label ->
    (source field, OEMType, multivalued, description).  Samples come
    from the first records that populate each field, in one pass over
    the ``records`` iterable that stops once every field has enough.
    """
    samples = {label: [] for label in field_specs}
    hungry = dict(samples)
    for record in records:
        if not hungry:
            break
        for label, taken in list(hungry.items()):
            value = record.get(field_specs[label][0])
            if value in (None, "", (), []):
                continue
            values = value if isinstance(value, (list, tuple)) else [value]
            taken.extend(values[: sample_limit - len(taken)])
            if len(taken) >= sample_limit:
                del hungry[label]
    return [
        SchemaElement(label, oem_type, multivalued, description, tuple(samples[label]))
        for label, (_field, oem_type, multivalued, description) in field_specs.items()
    ]
