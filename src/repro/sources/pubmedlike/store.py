"""MEDLINE-tagged format and store for the PubMed-like source.

The format is the classic MEDLINE tagged layout::

    PMID- 8889548
    TI  - Induction of osteosarcoma transformation by FosB.
    TA  - Nature
    DP  - 1996
    LID - 2354
    LID - 2360

Blank lines separate citations.
"""

from repro.sources.base import DataSource
from repro.sources.pubmedlike.citation import Citation
from repro.util.errors import DataFormatError

_SOURCE = "MEDLINE"


def write_medline(citations):
    """Serialize citations to MEDLINE-tagged text."""
    chunks = []
    for citation in citations:
        lines = [f"PMID- {citation.pmid}"]
        lines.append(f"TI  - {citation.title}")
        lines.append(f"TA  - {citation.journal}")
        lines.append(f"DP  - {citation.year}")
        for locus_id in citation.locus_ids:
            lines.append(f"LID - {locus_id}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def parse_medline(text):
    """Parse MEDLINE-tagged text into a list of :class:`Citation`."""
    citations = []
    current = None
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            if current is not None:
                citations.append(_finish(current, line_number))
                current = None
            continue
        if len(line) < 6 or line[4] != "-":
            raise DataFormatError(
                f"expected 'TAG - value', got {line!r}",
                line_number=line_number,
                source_name=_SOURCE,
            )
        tag = line[:4].strip()
        value = line[5:].strip()
        if tag == "PMID":
            if current is not None:
                citations.append(_finish(current, line_number))
            if not value.isdigit():
                raise DataFormatError(
                    f"PMID must be numeric, got {value!r}",
                    line_number=line_number,
                    source_name=_SOURCE,
                )
            current = {"pmid": int(value)}
            continue
        if current is None:
            raise DataFormatError(
                "field line before the first PMID",
                line_number=line_number,
                source_name=_SOURCE,
            )
        if tag == "TI":
            current["title"] = value
        elif tag == "TA":
            current["journal"] = value
        elif tag == "DP":
            if not value.isdigit():
                raise DataFormatError(
                    f"DP must be a year, got {value!r}",
                    line_number=line_number,
                    source_name=_SOURCE,
                )
            current["year"] = int(value)
        elif tag == "LID":
            current.setdefault("locus_ids", []).append(int(value))
        # Unknown MEDLINE tags are tolerated.
    if current is not None:
        citations.append(_finish(current, line_number))
    return citations


def _finish(fields, line_number):
    try:
        return Citation(**fields)
    except (TypeError, DataFormatError) as exc:
        raise DataFormatError(
            f"invalid citation: {exc}",
            line_number=line_number,
            source_name=_SOURCE,
        ) from exc


class CitationStore(DataSource):
    """In-memory MEDLINE-backed store of :class:`Citation`."""

    name = "PubMed"

    KEY = "pmid"

    FIELDS = ("Pmid", "Title", "Journal", "Year", "LocusIDs")

    CAPABILITIES = frozenset(
        {
            ("Pmid", "="),
            ("Title", "contains"),
            ("Journal", "="),
            ("Year", "="),
            ("Year", "<"),
            ("Year", ">"),
            ("Year", "<="),
            ("Year", ">="),
            ("LocusIDs", "="),
        }
    )

    #: Hash-indexed fields: the PMID key, the locus back-references the
    #: reverse join probes, plus the low-cardinality journal/year pair.
    INDEXED_FIELDS = ("Pmid", "Journal", "Year", "LocusIDs")

    parse = staticmethod(parse_medline)
    write = staticmethod(write_medline)
