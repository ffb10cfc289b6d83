"""Untimed input preparation for one profile-benchmark run.

Generates the seeded corpus (plus its PubMed-like citation store),
saves it as a flat-file snapshot with persisted indexes, and writes the
answers ``GroundTruth`` predicts.  It runs in its own process so the
measuring process holds only the federation it loads from the
snapshot, never the generator's objects::

    python benchmarks/profile/prepare.py --scale 10k --seed 7 --dir DIR
"""

import argparse
import json
import pathlib

from spec import SCALES, answer_digest

from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.sources.persistence import save_corpus


def expected_answers(corpus):
    """Gene-id sets the ground-truth questions must return."""
    truth = corpus.ground_truth
    every_locus = set(corpus.locuslink.locus_ids())
    with_go = truth.loci_with_go()
    with_omim = truth.loci_with_omim()
    return {
        "figure5b": truth.figure5b_expected(),
        "disease_genes": with_omim,
        "unannotated_genes": every_locus - with_go - with_omim,
    }


def prepare(scale_name, seed, directory):
    scale = SCALES[scale_name]
    corpus = AnnotationCorpus.generate(
        seed=seed, parameters=CorpusParameters(**scale.parameters())
    )
    # Built before saving: it adds PMIDs to the locus records.
    citations = corpus.make_citation_store(count=scale.citations)
    directory = pathlib.Path(directory)
    save_corpus(corpus, directory / "snapshot", citations=citations)
    expected = {
        name: {"sha256": answer_digest(ids), "genes": len(ids)}
        for name, ids in expected_answers(corpus).items()
    }
    (directory / "expected.json").write_text(
        json.dumps({"scale": scale_name, "seed": seed, "answers": expected},
                   indent=2, sort_keys=True),
        encoding="utf-8",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    prepare(args.scale, args.seed, args.dir)


if __name__ == "__main__":
    main()
