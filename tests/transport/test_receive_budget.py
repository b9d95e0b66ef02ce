"""The work one received notification may cost its endpoint, counted in calls.

Wall-clock time is the benchmark's business; what is held here is the shape
of the receive path.  A consumer turns wire bytes into its handler's
arguments in one pass: expat's start, end and text callbacks build the tree
(one call each, the floor the parser works at), the envelope is read by one
scan of the root's children with names built once per SOAP version, and a
lone text child is its element's text as it is.  The requests are captured
from a broker's fan-out, so they are the envelopes consumers really get.
On CPython 3.11 a WSN 1.3 Notify costs its endpoint 96 calls and a WSE
08/2004 push 64 (the HTTP head's fields are read in one pass too, its
Content-Length found while they are filed); before the one-pass read (an
``__init__`` per element, a pending-text join at every element boundary, ``qname`` / ``find`` /
``elements`` per envelope) they cost 157 and 91.  Calls are counted by
:func:`repro.comparison.python_calls` (``call`` events under
``sys.setprofile``, with the collector off: Python frames, including
comprehensions on interpreters that give them one).
"""

import pytest

from repro.comparison import python_calls
from repro.messenger import WsMessenger
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml

READING = (
    '<ev:Reading xmlns:ev="urn:grid:events"><ev:seq>0000001</ev:seq>'
    "<ev:host>h072</ev:host><ev:site>s09</ev:site><ev:value>8791</ev:value></ev:Reading>"
)


@pytest.fixture(scope="module")
def captured():
    """One fan-out publish to a WSN 1.3 consumer and a WSE 08/2004 sink:
    each receiver and the request bytes it was sent."""
    network = SimulatedNetwork(VirtualClock())
    broker = WsMessenger(network, "http://budget-broker")
    consumer = NotificationConsumer(network, "http://budget-wsn", version=WsnVersion.V1_3)
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic="fan")
    sink = EventSink(network, "http://budget-wse", version=WseVersion.V2004_08)
    WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    requests = {}
    network.wire_observers.append(
        lambda seen: requests.setdefault(seen.address, bytes(seen.request))
    )
    broker.publish(parse_xml(READING), topic="fan")
    broker.run_deliveries_until_idle()
    return {
        "wsn": (consumer, requests[consumer.address]),
        "wse": (sink, requests[sink.address]),
    }


class TestOnePassPerEnvelope:
    @pytest.mark.parametrize("family, budget", [("wsn", 96), ("wse", 64)])
    def test_a_delivery_stays_within_its_call_budget(self, captured, family, budget):
        receiver, wire = captured[family]
        receiver.endpoint._handle_wire(wire)  # first sight: name tables fill
        before = len(receiver.received)
        calls, response = python_calls(receiver.endpoint._handle_wire, wire)
        assert response.startswith(b"HTTP/1.1 202")
        assert len(receiver.received) == before + 1
        assert calls <= budget
