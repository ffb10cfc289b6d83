"""ANN006 corpus: frozen plan stages built and rewritten correctly."""

from dataclasses import replace

from repro.mediator.plan import FetchStage


def build():
    return FetchStage(source_name="LocusLink", purpose="anchor")


def annotate(stage):
    # Rewrites go through dataclasses.replace, never in-place writes.
    return replace(stage, estimated_rows=42)
