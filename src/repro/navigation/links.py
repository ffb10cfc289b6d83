"""Web-link objects and URL resolution.

The 2005-era NCBI/GO URL schemes the wrappers emit
(:mod:`repro.sources.urls`) are parsed back into (source, identifier)
pairs so the navigator can follow a link to the live record inside the
federation instead of the (long gone) public website.
"""

import re
from dataclasses import dataclass

from repro.oem.types import OEMType
from repro.util.errors import QueryError

#: URL pattern -> (source name, identifier converter): the parser of
#: :data:`repro.sources.urls.URL_TEMPLATES`.
_URL_PATTERNS = (
    (re.compile(r"LocRpt\.cgi\?l=(\d+)"), "LocusLink", int),
    (re.compile(r"go\.cgi\?query=(GO:\d{7})"), "GO", str),
    (re.compile(r"dispomim\.cgi\?id=(\d+)"), "OMIM", int),
    (re.compile(r"db=PubMed&list_uids=(\d+)"), "PubMed", int),
    (
        re.compile(r"niceprot\.pl\?([OPQ]\d[A-Z0-9]{3}\d)"),
        "SwissProt",
        str,
    ),
)


@dataclass(frozen=True)
class WebLink:
    """One navigable link: display label, URL and resolved target."""

    label: str
    url: str
    target_source: str
    target_id: object

    def render(self):
        return f"[{self.label}] {self.target_source}:{self.target_id} -> {self.url}"


def resolve_url(url):
    """Parse a wrapper-emitted URL into ``(source_name, identifier)``.

    Raises
    ------
    QueryError
        When the URL matches no registered pattern.
    """
    for pattern, source_name, converter in _URL_PATTERNS:
        match = pattern.search(url)
        if match:
            return source_name, converter(match.group(1))
    raise QueryError(f"unnavigable URL: {url!r}")


def make_web_link(label, url):
    """Build a :class:`WebLink`, resolving its target eagerly."""
    source_name, target_id = resolve_url(url)
    return WebLink(
        label=label, url=url, target_source=source_name, target_id=target_id
    )


def extract_links(graph, obj):
    """All web links reachable from an OEM object's ``Links`` children.

    Unresolvable URLs (e.g. source homepages) are skipped — they lead
    outside the federation.
    """
    links = []
    for links_object in graph.children(obj, "Links"):
        if not links_object.is_complex:
            continue
        for ref in links_object.references:
            child = graph.get(ref.oid)
            if child.is_atomic and child.type is OEMType.URL:
                try:
                    links.append(make_web_link(ref.label, child.value))
                except QueryError:
                    continue
    return links
