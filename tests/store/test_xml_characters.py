"""A character XML 1.0 forbids is refused by the writer, before the log.

A tree built in code is the one way such a character reaches the broker (a
parse refuses it on ingress).  Logged, it made every later restart fail to
read its own publish record back.  The writer now refuses it with a typed
error wherever it sits (text, attribute value, element or attribute name,
namespace URI; in a mutable tree or one the publisher froze), and the
publish record is the first thing a publish writes: the log is left as it
was and recovery reads it as before.
"""

import pytest

from repro.delivery import DeliveryPolicy
from repro.messenger import WsMessenger
from repro.store import BrokerStore, FileEventLog, recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, WseSubscriber
from repro.xmlkit import XmlCharacterError
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

E = QName("urn:xc", "E")

#: one per class of character XML 1.0 leaves out
FORBIDDEN = {
    "c0-control": "\x01",
    "lone-surrogate": "\ud800",
    "u-fffe": "\ufffe",
    "u-ffff": "\uffff",
}


def in_text(char: str) -> XElem:
    return text_element(E, f"bad{char}char")


def in_attribute(char: str) -> XElem:
    return XElem(E, {QName("", "note"): f"bad{char}char"}, ["fine"])


def in_frozen_text(char: str) -> XElem:
    return in_text(char).freeze()


def in_element_name(char: str) -> XElem:
    return text_element(QName("urn:xc", f"E{char}"), "fine")


def in_attribute_name(char: str) -> XElem:
    return XElem(E, {QName("", f"note{char}"): "fine"}, ["fine"])


def in_namespace(char: str) -> XElem:
    return XElem(E, {}, [text_element(QName(f"urn:xc{char}", "inner"), "fine")])


BUILDS = [in_text, in_attribute, in_frozen_text, in_element_name, in_attribute_name, in_namespace]


@pytest.fixture
def rig(tmp_path):
    network = SimulatedNetwork(VirtualClock())
    log = FileEventLog(tmp_path / "broker.log")
    broker = WsMessenger(network, "http://xc-broker", store=BrokerStore(log))
    sink = EventSink(network, "http://xc-sink")
    WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    return network, log, broker, sink


@pytest.mark.parametrize("build", BUILDS, ids=[b.__name__[3:] for b in BUILDS])
@pytest.mark.parametrize("char", list(FORBIDDEN.values()), ids=list(FORBIDDEN))
def test_a_forbidden_character_is_refused_and_recovery_reads_the_log(rig, char, build):
    network, log, broker, sink = rig
    broker.publish(text_element(E, "before"))
    before = log.path.read_bytes()
    with pytest.raises(XmlCharacterError, match=f"U\\+{ord(char):04X}"):
        broker.publish(build(char))
    assert log.path.read_bytes() == before
    broker.publish(text_element(E, "after"))
    assert [item.payload.full_text() for item in sink.received] == ["before", "after"]
    broker.close()
    recovered = recover_broker(network, "http://xc-broker", log)
    assert recovered.store.stats.replayed_publishes == 2
    assert recovered.store.stats.suppressed == 2
    recovered.publish(text_element(E, "later"))
    assert [item.payload.full_text() for item in sink.received] == ["before", "after", "later"]


@pytest.mark.parametrize(
    "text", ["tab\tlf\ncr\r", "\x7f\x85", "\ud7ff\ue000\ufffd", "\U00010000\U0010ffff"],
    ids=["whitespace", "c1-controls", "bmp-edges", "astral"],
)
def test_every_character_xml_allows_is_admitted(rig, text):
    """The door refuses no more than the parser does."""
    network, log, broker, sink = rig
    payload = XElem(E, {QName("", "note"): text}, [text])
    broker.publish(payload)
    [item] = sink.received
    assert item.payload == payload
    broker.close()
    recovered = recover_broker(network, "http://xc-broker", log)
    assert recovered.store.stats.replayed_publishes == recovered.store.stats.suppressed == 1


def test_without_a_store_the_delivery_manager_dead_letters_what_cannot_be_written():
    """No log refuses the publish first: the first render does, inside the
    sink's drain, and the task is dead-lettered at once instead of wedging
    the sink's queue; the publishes around it are delivered."""
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://xc-broker", delivery=DeliveryPolicy())
    sink = EventSink(network, "http://xc-sink")
    WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    for payload in (text_element(E, "before"), in_text("\x01"), text_element(E, "after")):
        broker.publish(payload)
    broker.run_deliveries_until_idle()
    assert [item.payload.full_text() for item in sink.received] == ["before", "after"]
    [letter] = broker.delivery_manager.dlq.entries
    assert (letter.task.sink, letter.reason) == ("http://xc-sink", "unwritable")
    assert broker.delivery_manager.pending() == 0
