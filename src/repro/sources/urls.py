"""Each source's web-link URL scheme, written once.

Wrappers build every entry's ``Links`` from :func:`url_for`, and so
does the integrated answer view; :mod:`repro.navigation.links` parses
the same URLs back into ``(source, identifier)`` pairs.  The schemes
are the 2005-era NCBI, GO and ExPASy ones.
"""

from repro.util.errors import QueryError

#: Source name -> URL template of one of its records.
URL_TEMPLATES = {
    "LocusLink": "http://www.ncbi.nlm.nih.gov/LocusLink/LocRpt.cgi?l={0}",
    "GO": "http://godatabase.org/cgi-bin/go.cgi?query={0}",
    "OMIM": "http://www.ncbi.nlm.nih.gov/entrez/dispomim.cgi?id={0}",
    "PubMed": (
        "http://www.ncbi.nlm.nih.gov/entrez/query.fcgi"
        "?cmd=Retrieve&db=PubMed&list_uids={0}"
    ),
    "SwissProt": "http://www.expasy.org/cgi-bin/niceprot.pl?{0}",
}


def url_for(source_name, target_id):
    """The canonical web-link URL of one record in one source.

    Raises
    ------
    QueryError
        When the source has no registered URL scheme.
    """
    template = URL_TEMPLATES.get(source_name)
    if template is None:
        raise QueryError(f"no URL scheme for source {source_name!r}")
    return template.format(target_id)
