"""Shared fixtures for the service concurrency/fault test suite.

Federations here are deliberately small (the suite runs under the
``--racecheck`` sanitizer, which slows every lock), built fresh per
test, and always configured with the degrading federation policy —
the service's production stance: a failing or slow source makes an
answer partial, never a 500.
"""

import threading
from concurrent.futures import Future

import pytest

from repro.core.annoda import Annoda, AnnodaConfig
from repro.mediator.fetch import FederationPolicy, FlakyWrapper
from repro.service import AnnodaService, ServiceConfig
from repro.sources.corpus import AnnotationCorpus, CorpusParameters
from repro.wrappers import default_wrappers

#: The suite's corpus: small, deterministic, non-trivial answers.
SEED = 5
PARAMETERS = dict(loci=60, go_terms=40, omim_entries=25)


class GateWrapper:
    """A wrapper proxy whose every fetch parks until a gate opens.

    Lets tests hold requests in their seats deterministically (fill
    the seats and the wait line, then open the gate) without sleeping.
    """

    def __init__(self, wrapper, gate):
        self._wrapped = wrapper
        self._gate = gate

    def __getattr__(self, name):
        return getattr(self._wrapped, name)

    def fetch(self, request=()):
        self._gate.wait()
        return self._wrapped.fetch(request)


def build_annoda(seed=SEED, policy=None, config=None, flaky=None,
                 gate=None, parameters=None):
    """A fresh degrade-policy federation over the suite's corpus.

    ``flaky`` maps source name -> :class:`FlakyWrapper` kwargs;
    ``gate`` (a ``threading.Event``) wraps *every* source in a
    :class:`GateWrapper`.
    """
    corpus = AnnotationCorpus.generate(
        seed=seed,
        parameters=CorpusParameters(**(parameters or PARAMETERS)),
    )
    if config is None:
        config = AnnodaConfig(
            federation=policy or FederationPolicy(on_failure="degrade")
        )
    annoda = Annoda(config=config)
    annoda.corpus = corpus
    for wrapper in default_wrappers(corpus):
        kwargs = (flaky or {}).get(wrapper.name)
        if kwargs is not None:
            wrapper = FlakyWrapper(wrapper, **kwargs)
        if gate is not None:
            wrapper = GateWrapper(wrapper, gate)
        annoda.add_source(wrapper)
    return annoda


def make_service(annoda=None, queue_capacity=8, workers=2,
                 default_deadline=None, **annoda_kwargs):
    """A service over a fresh (or given) federation."""
    if annoda is None:
        annoda = build_annoda(**annoda_kwargs)
    return AnnodaService(
        annoda,
        ServiceConfig(
            queue_capacity=queue_capacity,
            workers=workers,
            default_deadline=default_deadline,
        ),
    )


def send(service, request):
    """``service.ask(request)`` from a client thread of its own; returns
    a :class:`~concurrent.futures.Future` of the response."""
    future = Future()

    def client():
        try:
            future.set_result(service.ask(request))
        except Exception as exc:  # surface it in future.result()
            future.set_exception(exc)

    threading.Thread(target=client, daemon=True).start()
    return future


def wait_for_health(service, **counts):
    """Wait until ``service.health()`` reports at least ``counts``
    (say ``inflight=1, queue_depth=2``); returns that health.  The
    bound is generous: under the racecheck plugin every lock is
    instrumented, and client threads take far longer to arrive."""
    pause = threading.Event()
    for _ in range(3000):
        health = service.health()
        if all(health[name] >= count for name, count in counts.items()):
            return health
        pause.wait(0.01)
    pytest.fail(f"service never reached {counts}: {health}")


@pytest.fixture
def gate():
    """An initially closed gate; tests must open it before exiting so
    parked requests always run to completion."""
    event = threading.Event()
    yield event
    event.set()
