"""The ANNODA command-line interface.

Exposes the tool's surface without writing Python::

    python -m repro describe
    python -m repro ask "find genes associated with some OMIM disease"
    python -m repro ask "human genes annotated with some GO function" \\
        --format csv --limit 20
    python -m repro lorel 'select X from ANNODA-GML.Source X'
    python -m repro figures figure5b
    python -m repro table1

Corpus knobs (``--seed``, ``--loci``, ``--go-terms``,
``--omim-entries``, ``--conflict-rate``) apply to every command.
"""

import argparse
import sys

from repro.core.annoda import Annoda, AnnodaConfig
from repro.sources.corpus import CorpusParameters

FIGURE_NAMES = (
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5a",
    "figure5b",
    "figure5c",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "ANNODA: tool for integrating molecular-biological "
            "annotation data (ICDE 2005 reproduction)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7,
                        help="corpus seed (default 7)")
    parser.add_argument("--loci", type=int, default=500)
    parser.add_argument("--go-terms", type=int, default=300)
    parser.add_argument("--omim-entries", type=int, default=150)
    parser.add_argument("--conflict-rate", type=float, default=0.0)
    parser.add_argument(
        "--data-dir",
        help=(
            "load the federation from a directory of flat-file dumps "
            "(see 'snapshot') instead of generating a corpus"
        ),
    )
    parser.add_argument(
        "--snapshot-dir",
        help=(
            "like --data-dir, but also adopt the snapshot's persisted "
            "equality indexes for a cheap cold start (invalid index "
            "files fall back to lazy rebuild with a warning)"
        ),
    )
    parser.add_argument(
        "--artifact-dir",
        help=(
            "also keep complete answers under this directory, so a "
            "repeated question is answered from it across runs (any "
            "source change misses)"
        ),
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help=(
            "key-range partitions per default source; fetches fan "
            "out across the shard grid with byte-identical answers"
        ),
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help=(
            "interchangeable wrappers per default source; a dead "
            "replica fails over to a sibling before the source "
            "degrades"
        ),
    )

    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser(
        "describe", help="list the federated sources and their schemas"
    )

    ask = commands.add_parser(
        "ask", help="answer a biological question in plain English"
    )
    ask.add_argument("question")
    ask.add_argument("--limit", type=int, default=15,
                     help="max rows shown in table format")
    ask.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
    )
    ask.add_argument("--explain", action="store_true",
                     help="also print the optimizer's plan")
    ask.add_argument("--audit", action="store_true",
                     help="also print the reconciliation report")

    explain = commands.add_parser(
        "explain",
        help=(
            "answer a question with the query flight recorder on and "
            "render the span tree (stages, wall-times, counters)"
        ),
    )
    explain.add_argument("question")
    explain.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the plan (logical tree, rule report, stage DAG) and "
            "the full trace (with timings) as JSON"
        ),
    )

    lorel = commands.add_parser(
        "lorel", help="evaluate raw Lorel against ANNODA-GML"
    )
    lorel.add_argument("query")

    figures = commands.add_parser(
        "figures", help="regenerate the paper's figures"
    )
    figures.add_argument(
        "name",
        nargs="?",
        default="all",
        choices=FIGURE_NAMES + ("all",),
    )

    commands.add_parser(
        "table1", help="regenerate the paper's Table 1 with probes"
    )

    snapshot = commands.add_parser(
        "snapshot",
        help=(
            "write the federation's data to flat files on disk, plus "
            "persisted equality indexes for cheap cold starts"
        ),
    )
    snapshot.add_argument("directory")
    snapshot.add_argument(
        "--no-indexes",
        action="store_true",
        help="skip the per-source index snapshots (data files only)",
    )

    validate = commands.add_parser(
        "validate",
        help="cross-validate every reference between the sources",
    )
    validate.add_argument(
        "--limit", type=int, default=20,
        help="max individual findings printed",
    )

    serve = commands.add_parser(
        "serve",
        help=(
            "run the federation as an HTTP query service "
            "(POST /query, GET /questions /metrics /requests /healthz)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 binds an ephemeral port")
    serve.add_argument(
        "--service-workers", type=int, default=4,
        help="query worker threads (default 4)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=64,
        help="admission queue seats; a full queue sheds with 429",
    )
    serve.add_argument(
        "--deadline", type=float, default=None,
        help=(
            "default per-request deadline in seconds (expired requests "
            "return degraded partial answers)"
        ),
    )
    serve.add_argument(
        "--max-requests", type=int, default=None,
        help=argparse.SUPPRESS,  # stop after N requests (tests)
    )

    return parser


def _build_annoda(args, federation=None):
    config = None
    config_kwargs = {}
    if getattr(args, "artifact_dir", None):
        config_kwargs["artifact_dir"] = args.artifact_dir
    if getattr(args, "shards", 1) > 1:
        config_kwargs["shards"] = args.shards
    if getattr(args, "replicas", 1) > 1:
        config_kwargs["replicas"] = args.replicas
    if federation is not None:
        config_kwargs["federation"] = federation
    if config_kwargs:
        config = AnnodaConfig(**config_kwargs)
    if args.snapshot_dir:
        return Annoda.from_directory(
            args.snapshot_dir, config=config, adopt_indexes=True
        )
    if args.data_dir:
        return Annoda.from_directory(
            args.data_dir, config=config, adopt_indexes=False
        )
    parameters = CorpusParameters(
        loci=args.loci,
        go_terms=args.go_terms,
        omim_entries=args.omim_entries,
        conflict_rate=args.conflict_rate,
    )
    return Annoda.with_default_sources(
        seed=args.seed, parameters=parameters, config=config
    )


def _command_describe(annoda, _args, out):
    print(annoda.describe_sources(), file=out)
    print(file=out)
    for source_name in annoda.sources():
        print(
            annoda.mediator.correspondences(source_name).render(), file=out
        )


def _command_ask(annoda, args, out):
    result = annoda.ask(args.question)
    if args.explain:
        print(annoda.explain(args.question), file=out)
        print(file=out)
    if args.format == "csv":
        from repro.reorganize import to_csv

        print(to_csv(result), end="", file=out)
    elif args.format == "json":
        from repro.reorganize import to_json_records

        print(to_json_records(result), file=out)
    else:
        print(
            annoda.render_integrated_view(result, limit=args.limit),
            file=out,
        )
    if args.audit:
        print(file=out)
        print(result.reconciliation.render(), file=out)


def _command_explain(annoda, args, out):
    import json

    from repro.trace import render_trace, trace_to_dict

    result = annoda.trace(args.question)
    plan = annoda.plan(args.question)
    if args.json:
        payload = {
            "plan": plan.to_dict(),
            "trace": trace_to_dict(result.trace, timings=True),
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return
    print(annoda.explain(args.question), file=out)
    print(file=out)
    print(render_trace(result.trace), file=out)
    print(file=out)
    print(result.report.describe(), file=out)


def _command_lorel(annoda, args, out):
    engine = annoda.mediator.lorel_engine()
    result = engine.query(args.query)
    print(engine.render_answer(result), end="", file=out)


def _command_figures(annoda, args, out):
    from repro.evaluation.figures import FigureGenerator

    generator = FigureGenerator(annoda)
    names = FIGURE_NAMES if args.name == "all" else (args.name,)
    for name in names:
        print(f"=== {name} ===", file=out)
        print(getattr(generator, name)(), file=out)
        print(file=out)


def _command_serve(args, out):
    from repro.mediator.fetch import FederationPolicy
    from repro.service import ServiceConfig
    from repro.service import serve as serve_http

    # A service answers partial results instead of 500s: degraded
    # sources are reported in the response body, not fatal.
    annoda = _build_annoda(
        args, federation=FederationPolicy(on_failure="degrade")
    )
    config = ServiceConfig(
        queue_capacity=args.queue_capacity,
        workers=args.service_workers,
        default_deadline=args.deadline,
    )
    server = serve_http(
        annoda, host=args.host, port=args.port, config=config
    )
    host, port = server.server_address[:2]
    print(f"annoda service listening on http://{host}:{port}", file=out)
    print(
        "endpoints: POST /query | GET /questions /metrics /requests "
        "/healthz",
        file=out,
    )
    try:
        if args.max_requests is not None:
            for _ in range(args.max_requests):
                server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    finally:
        server.server_close()
        server.service.shutdown(drain=True)
    print("annoda service stopped", file=out)


def _command_table1(args, out):
    from repro.evaluation import build_table1
    from repro.sources.corpus import AnnotationCorpus

    corpus = AnnotationCorpus.generate(
        seed=args.seed,
        parameters=CorpusParameters(
            loci=args.loci,
            go_terms=args.go_terms,
            omim_entries=args.omim_entries,
        ),
    )
    conflicted = AnnotationCorpus.generate(
        seed=args.seed,
        parameters=CorpusParameters(
            loci=args.loci,
            go_terms=args.go_terms,
            omim_entries=args.omim_entries,
            conflict_rate=max(args.conflict_rate, 0.4),
        ),
    )
    print(build_table1(corpus, conflicted).render(), file=out)


def main(argv=None, out=None):
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if args.command == "table1":
            _command_table1(args, out)
            return 0
        if args.command == "serve":
            _command_serve(args, out)
            return 0
        annoda = _build_annoda(args)
        if args.command == "describe":
            _command_describe(annoda, args, out)
        elif args.command == "ask":
            _command_ask(annoda, args, out)
        elif args.command == "explain":
            _command_explain(annoda, args, out)
        elif args.command == "lorel":
            _command_lorel(annoda, args, out)
        elif args.command == "figures":
            _command_figures(annoda, args, out)
        elif args.command == "snapshot":
            manifest = annoda.save(
                args.directory, indexes=not args.no_indexes
            )
            for name, entry in sorted(manifest["sources"].items()):
                suffix = (
                    f" + index snapshot {entry['index']['file']}"
                    if "index" in entry
                    else ""
                )
                print(
                    f"wrote {entry['file']} ({entry['records']} "
                    f"{name} records){suffix}",
                    file=out,
                )
        elif args.command == "validate":
            from repro.sources.integrity import IntegrityAuditor

            stores = {
                name: annoda.mediator.wrapper(name).source
                for name in annoda.sources()
            }
            report = IntegrityAuditor(stores).audit()
            print(report.render(limit=args.limit), file=out)
        return 0
    except Exception as exc:  # the CLI boundary reports, not crashes
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
