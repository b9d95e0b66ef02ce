"""Digests of every control exchange's bytes, pinned.

The lifecycle of ``test_control_differential.py`` — every row an operation
table serves, for WS-Eventing 01/2004 and 08/2004, WS-BaseNotification 1.0 /
1.2 / 1.3, the broker's 1.3 service and the converged source, with ordinary,
hostile and sentinel subscription ids — runs once, framed, on a fresh
network.  Each exchange's address, request bytes and response bytes are
digested on their own, so a change that moves where a row is answered (the
frame or a family) may change how a reply is built, never what it puts on
the wire.

The golden file was recorded before the lease rows moved into the frame.  To
record it again after a deliberate wire change, run this file as a script:
``PYTHONPATH=src python tests/integration/test_control_transcript_golden.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro import render
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsa.headers import reset_message_counter

from test_control_differential import DIALECTS, SUB_IDS, lifecycle

GOLDEN = pathlib.Path(__file__).parent / "golden" / "control_transcript.json"
SUB_ID_LABELS = dict(zip(["minted", "hostile", "to-sentinel", "echo-sentinel"], SUB_IDS))


def transcript(dialect: str, sub_id) -> list[str]:
    """One digest per exchange of the lifecycle, in wire order."""
    stack, version = DIALECTS[dialect]
    reset_message_counter()
    network = SimulatedNetwork(VirtualClock())
    digests = []

    def observe(obs) -> None:
        digest = hashlib.sha256(obs.address.encode())
        digest.update(b"\0" + bytes(obs.request) + b"\0" + bytes(obs.response or b""))
        digests.append(digest.hexdigest()[:16])

    network.wire_observers.append(observe)
    lifecycle(network, stack, version, sub_id)
    return digests


def record() -> dict:
    return {
        f"{dialect}/{label}": transcript(dialect, sub_id)
        for dialect in DIALECTS
        for label, sub_id in SUB_ID_LABELS.items()
    }


@pytest.fixture
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", SUB_ID_LABELS)
@pytest.mark.parametrize("dialect", DIALECTS)
def test_every_control_exchange_keeps_its_bytes(dialect, label, golden, monkeypatch):
    monkeypatch.setattr(render, "FRAMES", render.TemplateCache())
    assert transcript(dialect, SUB_ID_LABELS[label]) == golden[f"{dialect}/{label}"]


def test_the_golden_covers_every_dialect_and_id(golden):
    assert set(golden) == {f"{d}/{label}" for d in DIALECTS for label in SUB_ID_LABELS}


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
