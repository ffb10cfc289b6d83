"""ANN006 corpus: post-hoc mutation of frozen plan stages (all fire)."""

from repro.mediator.plan import FetchStage


def mutate_attribute():
    stage = FetchStage(source_name="LocusLink", purpose="anchor")
    stage.pruned = True
    stage.estimated_rows += 10


def mutate_via_setattr():
    stage = FetchStage(source_name="GO", purpose="link")
    setattr(stage, "pruned", True)
    object.__setattr__(stage, "estimated_rows", 5)


def mutate_fresh_construction():
    FetchStage(source_name="OMIM", purpose="link").pruned = True
