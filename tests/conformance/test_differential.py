"""The delivery differential bites: an injected divergence fails its engine.

Every corpus case of ``mediation``, ``mesh`` and ``durability`` passes, so
nothing else shows that :func:`repro.conformance.differential.same_deliveries`
can fail.  Each row below takes one engine's corpus case, makes one path
diverge — a payload mutated on the WSE path, a topic rewritten on the
mesh's WSN path, publishes dropped by the recovered broker: one for each way
``same_deliveries`` can fail — and expects ``check`` to name the path that
diverged, and to pass without the injection.
"""

from pathlib import Path

import pytest

from repro.conformance import ENGINES, load_corpus
from repro.conformance import durability_engine
from repro.wse import EventSink
from repro.wsn import NotificationConsumer
from repro.xmlkit.names import QName

CORPUS = {entry.name: entry for entry in load_corpus(Path(__file__).parent / "corpus")}


def mutate_wse_payloads(monkeypatch):
    handle = EventSink._handle_notification

    def mutated(self, envelope, headers):
        handle(self, envelope, headers)
        self.received[-1].payload.set(QName("", "tampered"), "1")

    monkeypatch.setattr(EventSink, "_handle_notification", mutated)


def rewrite_mesh_topics(monkeypatch):
    handle = NotificationConsumer._handle_notify

    def rewritten(self, envelope, headers):
        handle(self, envelope, headers)
        if "-mesh-" in self.address:
            self.received[-1].topic = self.received[-1].topic.upper()

    monkeypatch.setattr(NotificationConsumer, "_handle_notify", rewritten)


def drop_after_recovery(monkeypatch):
    recover = durability_engine.recover_broker

    def forgetful(*args, **kwargs):
        broker = recover(*args, **kwargs)
        broker.publish = lambda payload, topic=None: None
        return broker

    monkeypatch.setattr(durability_engine, "recover_broker", forgetful)


@pytest.mark.parametrize(
    "corpus_case, inject, path",
    [
        ("mediation-differential", mutate_wse_payloads, "WSE"),
        ("mesh-differential", rewrite_mesh_topics, "WSN"),
        ("durability-crash-midstream", drop_after_recovery, "WSE"),
    ],
)
def test_an_injected_divergence_fails_the_engine(monkeypatch, corpus_case, inject, path):
    entry = CORPUS[corpus_case]
    engine = ENGINES[entry.engine]
    assert engine.check(entry.case) is None
    inject(monkeypatch)
    message = engine.check(entry.case)
    assert message is not None and message.split()[0] == path, message
