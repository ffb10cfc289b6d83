"""SwissProt-style DAT format and store.

The classic two-letter line-code layout::

    ID   FOSB_HUMAN              Reviewed;         338 AA.
    AC   P53539
    DE   Protein fosB
    GN   FOSB
    OS   Homo sapiens
    DR   LocusLink; 2354
    KW   Transcription; Nuclear protein
    //

``//`` terminates each entry.
"""

from repro.sources.base import DataSource
from repro.sources.swissprotlike.record import ProteinRecord
from repro.util.errors import DataFormatError

_SOURCE = "SwissProt DAT"


def write_dat(records):
    """Serialize protein records to DAT text."""
    chunks = []
    for record in records:
        entry_name = (
            f"{record.gene_symbol or record.accession}_"
            f"{_species_code(record.organism)}"
        )
        lines = [
            f"ID   {entry_name:<24}Reviewed;{record.sequence_length:>10} AA."
        ]
        lines.append(f"AC   {record.accession}")
        lines.append(f"DE   {record.protein_name}")
        if record.gene_symbol:
            lines.append(f"GN   {record.gene_symbol}")
        lines.append(f"OS   {record.organism}")
        if record.locus_id:
            lines.append(f"DR   LocusLink; {record.locus_id}")
        if record.keywords:
            lines.append("KW   " + "; ".join(record.keywords))
        lines.append("//")
        chunks.append("\n".join(lines))
    return "\n".join(chunks) + ("\n" if chunks else "")


def parse_dat(text):
    """Parse DAT text into a list of :class:`ProteinRecord`."""
    records = []
    current = None
    current_line = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line == "//":
            if current is None:
                raise DataFormatError(
                    "entry terminator without an entry",
                    line_number=line_number,
                    source_name=_SOURCE,
                )
            records.append(_finish(current, current_line))
            current = None
            continue
        if len(line) < 5 or line[2:5] != "   ":
            raise DataFormatError(
                f"expected 'XX   value', got {line!r}",
                line_number=line_number,
                source_name=_SOURCE,
            )
        code = line[:2]
        value = line[5:].strip()
        if code == "ID":
            if current is not None:
                raise DataFormatError(
                    "new ID line before '//' terminator",
                    line_number=line_number,
                    source_name=_SOURCE,
                )
            current = {"sequence_length": _parse_length(value, line_number)}
            current_line = line_number
            continue
        if current is None:
            raise DataFormatError(
                "field line before the first ID",
                line_number=line_number,
                source_name=_SOURCE,
            )
        if code == "AC":
            current["accession"] = value
        elif code == "DE":
            current["protein_name"] = value
        elif code == "GN":
            current["gene_symbol"] = value
        elif code == "OS":
            current["organism"] = value
        elif code == "DR":
            database, _, reference = value.partition(";")
            if database.strip() == "LocusLink":
                reference = reference.strip().rstrip(".")
                if not reference.isdigit():
                    raise DataFormatError(
                        f"bad LocusLink cross-reference {value!r}",
                        line_number=line_number,
                        source_name=_SOURCE,
                    )
                current["locus_id"] = int(reference)
        elif code == "KW":
            current.setdefault("keywords", []).extend(
                keyword.strip().rstrip(".")
                for keyword in value.split(";")
                if keyword.strip()
            )
        # Unknown line codes (SQ, FT, ...) are tolerated.
    if current is not None:
        raise DataFormatError(
            "last entry is missing its '//' terminator",
            line_number=current_line,
            source_name=_SOURCE,
        )
    return records


def _parse_length(id_value, line_number):
    parts = id_value.split()
    for index, part in enumerate(parts):
        if part == "AA." and index > 0 and parts[index - 1].isdigit():
            return int(parts[index - 1])
    raise DataFormatError(
        f"ID line carries no 'N AA.' length: {id_value!r}",
        line_number=line_number,
        source_name=_SOURCE,
    )


def _finish(fields, line_number):
    try:
        return ProteinRecord(**fields)
    except (TypeError, DataFormatError) as exc:
        raise DataFormatError(
            f"invalid entry: {exc}",
            line_number=line_number,
            source_name=_SOURCE,
        ) from exc


def _species_code(organism):
    upper = organism.upper().split()
    if len(upper) >= 2:
        return (upper[0][:3] + upper[1][:2])[:5]
    return (upper[0][:5] if upper else "UNKNW")


class ProteinStore(DataSource):
    """In-memory DAT-backed store of :class:`ProteinRecord`."""

    name = "SwissProt"

    KEY = "accession"

    FIELDS = (
        "Accession",
        "ProteinName",
        "Organism",
        "GeneSymbol",
        "LocusID",
        "SequenceLength",
        "Keywords",
    )

    CAPABILITIES = frozenset(
        {
            ("Accession", "="),
            ("ProteinName", "contains"),
            ("Organism", "="),
            ("GeneSymbol", "="),
            ("LocusID", "="),
            ("SequenceLength", "<"),
            ("SequenceLength", "<="),
            ("SequenceLength", ">"),
            ("SequenceLength", ">="),
            ("SequenceLength", "="),
            ("Keywords", "="),
            ("Keywords", "contains"),
        }
    )

    #: Hash-indexed fields: the accession key, the locus back-reference
    #: the reverse join probes, symbols, organisms, and keywords.
    #: ``SequenceLength`` stays scan-only: it is queried by range, and
    #: an equality index cannot serve range predicates.
    INDEXED_FIELDS = (
        "Accession",
        "Organism",
        "GeneSymbol",
        "LocusID",
        "Keywords",
    )

    parse = staticmethod(parse_dat)
    write = staticmethod(write_dat)
