"""Command line front end: ``python -m repro.tools.flow [paths...]``.

Exit codes match the per-file lint: 0 clean, 1 findings reported,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.tools.flow.runner import (
    analyze_paths,
    interprocedural_codes,
)
from repro.tools.lint.engine import (
    REGISTRY,
    collect_files,
    resolve_codes,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.flow",
        description=(
            "Whole-program flow analysis for the federation's "
            "interprocedural invariants (ANN007..ANN010; DESIGN §15)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule codes to run (default: all "
             "interprocedural rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the interprocedural rules and exit",
    )
    parser.add_argument(
        "--include-fixtures",
        action="store_true",
        help=(
            "also analyze 'fixtures' directories (deliberate-violation "
            "corpora, excluded by default)"
        ),
    )
    return parser


def _list_rules() -> str:
    lines = []
    for code in sorted(interprocedural_codes()):
        rule = REGISTRY[code]
        lines.append(f"{code}  {rule.title}")
        if rule.rationale:
            lines.append(f"       {rule.rationale}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        print(_list_rules())
        return 0

    flow_codes = interprocedural_codes()
    select = None
    if options.select:
        try:
            select = resolve_codes(options.select.split(","))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        per_file = sorted(select - flow_codes)
        if per_file:
            print(
                f"error: {', '.join(per_file)} are per-file rules; "
                f"run python -m repro.tools.lint for them",
                file=sys.stderr,
            )
            return 2

    files = collect_files(
        options.paths, include_fixtures=options.include_fixtures
    )
    if not files:
        print(
            f"error: no Python files under {' '.join(options.paths)}",
            file=sys.stderr,
        )
        return 2

    diagnostics = analyze_paths(
        options.paths,
        select=select,
        include_fixtures=options.include_fixtures,
    )

    for diagnostic in diagnostics:
        print(diagnostic.render())
    if diagnostics:
        plural = "s" if len(diagnostics) != 1 else ""
        print(
            f"{len(diagnostics)} finding{plural} in "
            f"{len(files)} files analyzed",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
