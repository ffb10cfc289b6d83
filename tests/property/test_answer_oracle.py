"""Property test: mediator answers equal an independent naive oracle.

Every other equivalence suite compares the executor with itself under
different settings, so a bug in the shared core passes all of them.
The oracle below shares nothing with it: no planner, no index, no
cache, no link table, not even the schema matcher — the global
attribute of every field is written out by hand.  For a
:class:`~repro.mediator.decompose.GlobalQuery` it loops over each
store's ``records()`` and applies the reconciler's rules (dangling
and obsolete references, case and alias symbol variants) and the link
semantics (include/exclude, linked conditions, ``under`` closure,
forward, reverse and symbol joins) directly.

Compared per answer: the gene-id set, each gene's per-source link-id
sets, and the multiset of reconciliation conflicts raised for the
surviving genes, each source's counted once per gene however many
links name it.  (Which conflicts a dropped anchor raises depends on
the plan's step order and the include/exclude early break, so those
are pinned by ``tests/mediator/test_link_table.py`` instead.)
"""

import dataclasses
import operator
import threading
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.mediator import GlobalQuery, LinkConstraint, Mediator, OptimizerOptions
from repro.mediator.decompose import Condition
from repro.mediator.reconcile import Issue
from repro.sources import AnnotationCorpus, CorpusParameters
from repro.sources.go.term import GoTerm
from repro.sources.omim.record import OmimRecord
from repro.wrappers import PubmedLikeWrapper, SwissProtLikeWrapper, default_wrappers

#: Global attribute -> record field, per source.
FIELDS = {
    "LocusLink": {
        "GeneID": "LocusID",
        "Species": "Organism",
        "GeneSymbol": "Symbol",
        "AliasSymbol": "Aliases",
        "Definition": "Description",
        "AnnotationID": "GoIDs",
        "DiseaseID": "OmimIDs",
        "CitationID": "PubmedIDs",
    },
    "GO": {
        "AnnotationID": "GoID",
        "Title": "Name",
        "Aspect": "Namespace",
        "Obsolete": "Obsolete",
    },
    "OMIM": {
        "DiseaseID": "MimNumber",
        "Title": "Title",
        "GeneSymbol": "GeneSymbols",
        "Inheritance": "Inheritance",
    },
    "SwissProt": {
        "ProteinID": "Accession",
        "GeneID": "LocusID",
        "GeneSymbol": "GeneSymbol",
        "Keyword": "Keywords",
        "SequenceLength": "SequenceLength",
    },
    "PubMed": {"CitationID": "Pmid", "Year": "Year", "GeneID": "LocusIDs"},
}

COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def holds(record, source, condition):
    value = record.get(FIELDS[source][condition.attribute])
    values = value if isinstance(value, (list, tuple)) else [value]
    if condition.op == "contains":
        needle = str(condition.value).lower()
        return any(needle in str(item).lower() for item in values)
    test = COMPARE[condition.op]
    return any(
        item is not None and test(item, condition.value) for item in values
    )


class Oracle:
    """Answers a query from the federation's raw records."""

    def __init__(self, mediator):
        self.records = {
            name: mediator.wrapper(name).source.records()
            for name in mediator.sources()
        }
        self.policy = mediator.reconciler.policy

    def key(self, source):
        return next(iter(FIELDS[source].values()))

    def answer(self, query):
        """``(gene ids, {gene id: {source: link ids}}, Counter of the
        conflicts raised for surviving genes)``."""
        anchor = query.anchor_source
        genes, links, conflicts = set(), {}, Counter()
        for record in self.records[anchor]:
            if not all(holds(record, anchor, c) for c in query.conditions):
                continue
            gene_id = record[FIELDS[anchor]["GeneID"]]
            raised = {}
            per_link = [
                self.linked(
                    record, gene_id, link,
                    raised.setdefault(link.source_name, []),
                )
                for link in query.links
            ]
            if all(
                bool(ids) == (link.mode == "include")
                for link, ids in zip(query.links, per_link)
            ):
                # A source several links name keeps the union of their
                # ids.
                found = {}
                for link, ids in zip(query.links, per_link):
                    found[link.source_name] = (
                        found.get(link.source_name, set()) | ids
                    )
                genes.add(gene_id)
                links[gene_id] = found
                # ... and each conflict its links raise once.
                for issues in raised.values():
                    conflicts.update(set(issues))
        return genes, links, conflicts

    def linked(self, record, gene_id, link, raised):
        """The link ids of one anchor record satisfying one link."""
        source = link.source_name
        targets = self.records[source]
        key = self.key(source)
        allowed = {
            target[key]
            for target in targets
            if all(
                holds(target, source, c)
                for c in link.conditions
                if c.op != "under"
            )
        }
        for condition in link.conditions:
            if condition.op == "under":
                allowed &= {condition.value} | self.below(condition.value)
        ids = set()
        if link.reverse_join:
            back = FIELDS[source]["GeneID"]
            ids |= {
                target[key] for target in targets
                if target.get(back) == gene_id
            }
        else:
            raw = record.get(FIELDS["LocusLink"][link.via]) or []
            raw = raw if isinstance(raw, (list, tuple)) else [raw]
            ids |= self.validated(gene_id, raw, source, raised)
        if link.symbol_join:
            ids |= self.via_symbols(record, gene_id, source, raised)
        return ids & allowed

    def below(self, go_id):
        """Every GO term with ``go_id`` among its transitive parents."""
        closure, grew = set(), True
        while grew:
            grew = False
            for term in self.records["GO"]:
                if term["GoID"] not in closure and (
                    go_id in term["IsA"] or closure & set(term["IsA"])
                ):
                    closure.add(term["GoID"])
                    grew = True
        return closure

    def validated(self, gene_id, ids, source, raised):
        policy = self.policy
        if source == "GO":
            terms = {term["GoID"]: term for term in self.records["GO"]}
        elif source == "OMIM":
            terms = {entry["MimNumber"]: entry for entry in self.records["OMIM"]}
        else:
            return set(ids)
        valid = set()
        for link_id in ids:
            if link_id not in terms:
                kind = "annotation" if source == "GO" else "disease"
                detail = (
                    f"unknown GO accession {link_id}"
                    if source == "GO"
                    else f"unknown MIM number {link_id}"
                )
                repaired = policy.drop_dangling_references
                raised.append(
                    Issue(f"dangling_{kind}", gene_id, detail, repaired)
                )
                if repaired:
                    continue
            elif source == "GO" and terms[link_id]["Obsolete"]:
                repaired = policy.drop_obsolete_annotations
                raised.append(
                    Issue(
                        "obsolete_annotation", gene_id,
                        f"annotation to obsolete term {link_id}", repaired,
                    )
                )
                if repaired:
                    continue
            valid.add(link_id)
        return valid

    def via_symbols(self, record, gene_id, source, raised):
        """Entries listing the gene's symbol — exactly, or (reported as
        repaired conflicts) as a case or alias variant."""
        policy = self.policy
        key = self.key(source)
        listings = []
        for target in self.records[source]:
            symbols = target.get(FIELDS[source]["GeneSymbol"])
            for symbol in symbols if isinstance(symbols, (list, tuple)) else [symbols]:
                if symbol:
                    listings.append((symbol, target[key]))

        def exact(symbol):
            return {entry for listed, entry in listings if listed == symbol}

        def variants(symbol):
            groups = {}
            for listed, entry in listings:
                if listed.lower() == symbol.lower() and listed != symbol:
                    groups.setdefault(listed, set()).add(entry)
            return groups.items()

        official = record.get("Symbol", "")
        found = exact(official)

        def adopt(listed, entries, via):
            for entry in entries - found:
                raised.append(
                    Issue(
                        f"symbol_{via}", gene_id,
                        f"OMIM {entry} lists {listed!r} for official "
                        f"symbol {official!r}",
                        True,
                    )
                )
            found.update(entries)

        if policy.case_insensitive_symbols:
            for listed, entries in variants(official):
                adopt(listed, entries, "case")
        if policy.use_alias_symbols:
            for alias in record.get("Aliases") or []:
                if exact(alias):
                    adopt(alias, exact(alias), "alias")
                if policy.case_insensitive_symbols:
                    for listed, entries in variants(alias):
                        adopt(listed, entries, "alias")
        return found


def mediator_answer(result):
    genes = set(result.gene_ids())
    links = {
        gene["GeneID"]: {
            source: set(ids) for source, ids in gene["_links"].items()
        }
        for gene in result.genes
    }
    conflicts = Counter(
        issue for issue in result.reconciliation.issues
        if issue.anchor_id in genes
    )
    return genes, links, conflicts


# -- strategies -------------------------------------------------------------------

CONFIGS = {
    "default": OptimizerOptions(),
    "no-pushdown": OptimizerOptions(enable_pushdown=False),
    "no-pruning": OptimizerOptions(enable_pruning=False),
    "bare": OptimizerOptions(
        enable_pushdown=False, enable_pruning=False, enable_ordering=False
    ),
    "semijoin": OptimizerOptions(enable_semijoin=True),
}

LINK_CONDITIONS = {
    "GO": [
        Condition("Aspect", "=", "molecular_function"),
        Condition("Title", "contains", "binding"),
        Condition("Title", "contains", "kinase"),
        Condition("Obsolete", "=", False),
        Condition("AnnotationID", "under", "GO:0000002"),
        Condition("AnnotationID", "under", "GO:0000003"),
    ],
    "OMIM": [
        Condition("Inheritance", "=", "autosomal dominant"),
        Condition("Title", "contains", "a"),
    ],
    "SwissProt": [
        Condition("Keyword", "=", "Kinase"),
        Condition("SequenceLength", ">=", 500),
    ],
    "PubMed": [Condition("Year", ">=", 1995)],
}

VIA = {
    "GO": "AnnotationID",
    "OMIM": "DiseaseID",
    "SwissProt": "ProteinID",
    "PubMed": "CitationID",
}

anchor_conditions = st.lists(
    st.sampled_from(
        [
            Condition("Species", "=", "Homo sapiens"),
            Condition("GeneID", ">", 1020),
            Condition("GeneID", "<=", 1040),
            Condition("Definition", "contains", "protein"),
        ]
    ),
    max_size=2,
    unique=True,
)


@st.composite
def links(draw, source):
    return LinkConstraint(
        source,
        draw(st.sampled_from(["include", "exclude"])),
        via=VIA[source],
        conditions=tuple(
            draw(
                st.lists(
                    st.sampled_from(LINK_CONDITIONS[source]),
                    max_size=2,
                    unique=True,
                )
            )
        ),
        symbol_join=source in ("OMIM", "SwissProt") and draw(st.booleans()),
        reverse_join=source == "SwissProt",
    )


@st.composite
def queries(draw):
    sources = draw(
        st.lists(
            st.sampled_from(["GO", "OMIM", "SwissProt", "PubMed"]),
            min_size=1,
            max_size=3,
        )
    )
    return GlobalQuery(
        anchor_source="LocusLink",
        conditions=tuple(draw(anchor_conditions)),
        links=tuple(draw(links(source)) for source in sources),
    )


corpora = st.builds(
    lambda seed, loci, conflict_rate: (seed, loci, conflict_rate),
    st.integers(0, 10_000),
    st.integers(20, 50),
    st.sampled_from([0.2, 0.35, 0.5]),
)


def build(corpus_spec, options):
    """A fresh five-source mediator over a generated corpus."""
    seed, loci, conflict_rate = corpus_spec
    corpus = AnnotationCorpus.generate(
        seed=seed,
        parameters=CorpusParameters(
            loci=loci,
            go_terms=loci // 2 + 10,
            omim_entries=loci // 4 + 5,
            conflict_rate=conflict_rate,
        ),
    )
    citations = corpus.make_citation_store(count=loci // 2)
    proteins = corpus.make_protein_store(coverage=0.5)
    mediator = Mediator(optimizer_options=options)
    for wrapper in default_wrappers(corpus):
        mediator.register_wrapper(wrapper)
    mediator.register_wrapper(SwissProtLikeWrapper(proteins))
    mediator.register_wrapper(PubmedLikeWrapper(citations))
    return mediator, corpus


def check(mediator, query, **ask):
    expected = Oracle(mediator).answer(query)
    got = mediator_answer(mediator.query(query, **ask))
    assert got == expected, f"mediator and oracle disagree on\n{query.render()}"


class TestAnswersMatchTheOracle:
    @given(
        corpora,
        st.sampled_from(sorted(CONFIGS)),
        st.lists(queries(), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_cold_and_warm(self, corpus_spec, config, asked):
        mediator, _corpus = build(corpus_spec, CONFIGS[config])
        for query in asked:
            check(mediator, query)  # cold answer, stored
        for query in asked:
            check(mediator, query, use_cache=False)  # warm link tables
            check(mediator, query)  # the stored answer

    @given(
        corpora,
        st.sampled_from(sorted(CONFIGS)),
        st.lists(queries(), min_size=1, max_size=3),
        st.sampled_from(["LocusLink", "GO", "OMIM"]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_after_a_source_mutation(self, corpus_spec, config, asked,
                                     mutated, pick):
        mediator, corpus = build(corpus_spec, CONFIGS[config])
        for query in asked:
            check(mediator, query)
        mutate(corpus, mutated, pick)
        for query in asked:
            check(mediator, query)
            check(mediator, query, use_cache=False)

    @given(corpora, st.lists(queries(), min_size=4, max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_concurrent_asks(self, corpus_spec, asked):
        mediator, _corpus = build(corpus_spec, CONFIGS["default"])
        oracle = Oracle(mediator)
        expected = [oracle.answer(query) for query in asked]
        answers = [None] * len(asked)
        errors = []

        def run(position):
            try:
                for _ in range(2):
                    answers[position] = mediator_answer(
                        mediator.query(asked[position], use_cache=False)
                    )
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(position,))
            for position in range(len(asked))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert answers == expected


def mutate(corpus, source, pick):
    """One version-bumping curation edit of ``source``."""
    loci = corpus.locuslink
    locus_id = loci.locus_ids()[pick % len(loci.locus_ids())]
    record = loci.get(locus_id)
    if source == "LocusLink":
        go_ids = corpus.go.keys()
        loci.remove(locus_id)
        loci.add(
            dataclasses.replace(
                record,
                go_ids=[go_ids[pick % len(go_ids)], "GO:9999999"],
                omim_ids=list(record.omim_ids[:1]) + [999999],
            )
        )
    elif source == "GO":
        # A new (obsolete, on odd picks) term under GO:0000002 that one
        # locus already references.
        loci.remove(locus_id)
        loci.add(
            dataclasses.replace(
                record, go_ids=list(record.go_ids) + ["GO:8888888"]
            )
        )
        corpus.go.add(
            GoTerm(
                "GO:8888888", "late binding", "molecular_function",
                is_a=["GO:0000002"], obsolete=bool(pick % 2),
            )
        )
    else:
        # An entry listing a case variant of one locus's symbol.
        corpus.omim.add(
            OmimRecord(999990, "late disease", [record.symbol.lower()])
        )
