"""Fuzzing the untrusted text inputs: each ends in a result or a typed
error, never a traceback, and never late.

Untrusted inputs here: the LL_tmpl, OBO, OMIM and MEDLINE flat-file
parsers, Lorel query text (including how deep it nests), the
constrained-English question text, and the snapshot directory that
``load_stores`` (``--snapshot-dir``, ``Annoda.from_directory``) reads.
Every generated input must parse or load, or raise an
:class:`~repro.util.errors.AnnodaError` subclass, within
:data:`TIME_BOUND` seconds.  ``POST /query`` bodies are fuzzed in
``test_service_properties.py``.

Generators mix each input's own grammar (tag lines, Lorel tokens,
question phrases, manifest fields) with arbitrary text, so both the
near-valid and the plainly broken reach the parser.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Annoda
from repro.lorel import parse as parse_lorel
from repro.lorel.parser import MAX_NESTING
from repro.questions.parser import QuestionParser
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.go import parse_obo
from repro.sources.locuslink import parse_ll_tmpl
from repro.sources.omim import parse_omim_txt
from repro.sources.persistence import MANIFEST_NAME, load_stores, save_corpus
from repro.sources.pubmedlike import parse_medline
from repro.util.errors import AnnodaError

#: Seconds any one input may take to reach its result or typed error.
TIME_BOUND = 5.0

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ends_typed(call, *args):
    """Run ``call(*args)``: it must return, or raise an
    ``AnnodaError``, within the time bound.  Returns the result (or
    ``None`` after a typed error)."""
    started = time.perf_counter()
    try:
        result = call(*args)
    except AnnodaError:
        result = None
    elapsed = time.perf_counter() - started
    assert elapsed < TIME_BOUND, f"took {elapsed:.1f}s"
    return result


#: Arbitrary single-line text, control characters and all.
any_text = st.text(max_size=40)
digits = st.integers(min_value=-5, max_value=10**7).map(str)
values = st.one_of(any_text, digits, st.just(""))


def line_grammar(tags, marks):
    """Text of ``TAG<sep>value`` lines, record/stanza marks and
    arbitrary lines."""
    tag_line = st.builds(
        lambda tag, sep, value: f"{tag}{sep}{value}",
        st.sampled_from(tags),
        st.sampled_from([": ", ":", " ", ""]),
        values,
    )
    line = st.one_of(tag_line, st.sampled_from(marks), any_text)
    return st.lists(line, max_size=30).map("\n".join)


LL_TMPL = line_grammar(
    ["LOCUSID", "ORGANISM", "OFFICIAL_SYMBOL", "SUMMARY", "MAP",
     "ALIAS_SYMBOL", "GO", "OMIM", "PMID", "XYZ"],
    [">>1", ">>42", ">>", ">>x", ""],
)
OBO = line_grammar(
    ["id", "name", "namespace", "def", "synonym", "is_a", "is_obsolete",
     "xref"],
    ["[Term]", "[Typedef]", "format-version: 1.2", '"quoted"', "GO:0000001",
     "molecular_function", ""],
)
OMIM = line_grammar(
    ["*FIELD* NO", "*FIELD* TI", "*FIELD* TX", "*FIELD* GS", "*FIELD*",
     "*FIELD* CS"],
    ["*RECORD*", "*FIELD* NO", "*FIELD* TI", "100100", ""],
)
MEDLINE = line_grammar(
    ["PMID", "TI", "AB", "AU", "DP", "LID", "XX"],
    ["PMID- 1", "TI  - x", "", "      continued"],
)


class TestFlatFileParsers:
    @FUZZ
    @given(LL_TMPL)
    def test_ll_tmpl(self, text):
        ends_typed(parse_ll_tmpl, text)

    @FUZZ
    @given(OBO)
    def test_obo(self, text):
        ends_typed(parse_obo, text)

    @FUZZ
    @given(OMIM)
    def test_omim(self, text):
        ends_typed(parse_omim_txt, text)

    @FUZZ
    @given(MEDLINE)
    def test_medline(self, text):
        ends_typed(parse_medline, text)


# -- Lorel ---------------------------------------------------------------------

LOREL_TOKENS = [
    "select", "distinct", "from", "where", "and", "or", "not", "in",
    "like", "exists", "as", "union", "except", "intersect", "order",
    "by", "asc", "desc", "count", "true", "false", "(", ")", ",", ".",
    "=", "!=", "<>", "<", "<=", ">", ">=", "X", "Y", "Name",
    "ANNODA-GML", "Source", "Locus", "LocusID", '"LocusLink"', '"GO"',
    "1", "2.5", "&12", '"unterminated', "#",
]
lorel_token_text = st.lists(
    st.sampled_from(LOREL_TOKENS), max_size=25
).map(" ".join)

WHERE = "select X from ANNODA-GML.Source X where "
CONDITIONS = st.sampled_from([
    'X.Name = "LocusLink"',
    "X.Name like \"%o%\"",
    "exists X.Name",
    'X.Name in ("GO", "OMIM")',
    "X.Missing > 3",
])


@st.composite
def nested_lorel(draw):
    """Valid Lorel nested or chained to a drawn depth, up to well past
    what the parser accepts."""
    depth = draw(st.one_of(
        st.sampled_from([
            1, MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 1000, 5000,
        ]),
        st.integers(min_value=0, max_value=3 * MAX_NESTING),
    ))
    condition = draw(CONDITIONS)
    shape = draw(st.sampled_from(["parens", "nots", "and", "or", "union"]))
    if shape == "parens":
        return WHERE + "(" * depth + condition + ")" * depth
    if shape == "nots":
        return WHERE + "not " * depth + condition
    if shape == "union":
        return " union ".join(
            ["select X from ANNODA-GML.Source X"] * (depth + 1)
        )
    return WHERE + f" {shape} ".join([condition] * (depth + 1))


@pytest.fixture(scope="module")
def annoda():
    return Annoda.with_default_sources(
        seed=3,
        parameters=CorpusParameters(loci=40, go_terms=30, omim_entries=15),
    )


class TestLorelText:
    @FUZZ
    @given(st.one_of(lorel_token_text, any_text))
    def test_token_and_free_text_parse_or_reject(self, text):
        ends_typed(parse_lorel, text)

    @settings(max_examples=60, deadline=None)
    @given(nested_lorel())
    def test_any_depth_evaluates_or_rejects(self, annoda, text):
        ends_typed(annoda.lorel, text)

    @settings(max_examples=60, deadline=None)
    @given(lorel_token_text.map(lambda tokens: WHERE + tokens))
    def test_generated_where_clauses_evaluate_or_reject(self, annoda,
                                                        text):
        ends_typed(annoda.lorel, text)


# -- constrained-English questions ---------------------------------------------

QUESTION_PHRASES = [
    "find", "a set of", "LocusLink", "human", "mouse", "rat", "genes",
    "loci", "which are", "annotated with", "associated with",
    "linked to", "cited in", "some", "no", "not", "but", "and",
    "GO function", "gene ontology term", "OMIM disease", "disorder",
    "PubMed article", "citation", "with symbol", "TP53", "containing",
    '"kinase"', '"', "under", "GO:0000002", ",",
]
question_text = st.one_of(
    st.lists(st.sampled_from(QUESTION_PHRASES), max_size=14).map(" ".join),
    any_text,
)


class TestQuestionText:
    @FUZZ
    @given(question_text)
    def test_parse_answers_or_rejects(self, text):
        question = ends_typed(QuestionParser().parse, text)
        if question is not None:
            ends_typed(question.to_global_query)


# -- snapshot manifest ---------------------------------------------------------

json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)
#: A manifest ``file`` may name any path; these stay inside the
#: snapshot, so no draw reads a device or another tree.
file_names = st.one_of(
    st.sampled_from([
        "locuslink.ll_tmpl", "gene_ontology.obo", "omim.txt", ".", "",
        "missing.txt", MANIFEST_NAME,
    ]),
    json_values.filter(
        lambda value: not (isinstance(value, str) and "/" in value)
    ),
)


SOURCES = ("LocusLink", "GO", "OMIM")
FLAT_FILES = ("locuslink.ll_tmpl", "gene_ontology.obo", "omim.txt")

#: One edit to a good snapshot: ``(where, source or file, value)``.
damages = st.one_of(
    st.tuples(st.just("manifest"), st.none(), json_values),
    st.tuples(st.just("sources"), st.none(), json_values),
    st.tuples(st.just("entry"), st.sampled_from(SOURCES), json_values),
    st.tuples(st.just("file"), st.sampled_from(SOURCES), file_names),
    st.tuples(
        st.sampled_from(["records", "index"]),
        st.sampled_from(SOURCES),
        json_values,
    ),
    st.tuples(st.just("raw-manifest"), st.none(), st.binary(max_size=64)),
    st.tuples(
        st.just("flat-file"), st.sampled_from(FLAT_FILES),
        st.binary(max_size=64),
    ),
)


def damage_snapshot(directory, where, target, value):
    """Apply one drawn edit to the snapshot in ``directory``."""
    manifest_path = directory / MANIFEST_NAME
    if where == "raw-manifest":
        manifest_path.write_bytes(value)
        return
    if where == "flat-file":
        (directory / target).write_bytes(value)
        return
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if where == "manifest":
        manifest = value
    elif where == "sources":
        manifest["sources"] = value
    elif where == "entry":
        manifest["sources"][target] = value
    else:
        manifest["sources"][target][where] = value
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    directory = tmp_path_factory.mktemp("snapshot")
    corpus = AnnotationCorpus.generate(
        seed=3,
        parameters=CorpusParameters(loci=60, go_terms=30, omim_entries=15),
    )
    save_corpus(corpus, directory)
    return directory


class TestSnapshotManifest:
    # A damaged index entry is not an error: the store warns and
    # rebuilds its indexes lazily.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=80, deadline=None)
    @given(damages)
    def test_load_stores_loads_or_rejects(self, snapshot, damage):
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch) / "snapshot"
            shutil.copytree(snapshot, directory)
            damage_snapshot(directory, *damage)
            ends_typed(load_stores, directory)
