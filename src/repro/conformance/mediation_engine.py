"""Mediation differential engine: one publish stream, two spec families.

WS-Messenger's whole claim (and the paper's section VI) is that mediation is
*transparent*: a consumer should not be able to tell from the payload which
specification the publisher spoke.  Each case is a short publish stream fed
to the broker once, with the :mod:`~repro.conformance.differential` receiver
pair at the front door; both must receive every publish, payload-identical
to the original, with topics preserved on the WSN side.
A case's hostile ``notify`` bodies — a Notify, or another WSN 1.3 request such
as WS-BrokeredNotification's RegisterPublisher, each sent under the action its
root element names — go to the consumer and the front door and must be
accepted or refused with a Sender fault, never raise at the sender.
"""

from __future__ import annotations

from typing import Optional

from repro.conformance.differential import TOPICS, VERSIONS, front_door, gen_stream
from repro.conformance.differential import received, same_deliveries, valid_stream
from repro.conformance.gen import spec_to_elem
from repro.messenger import WsMessenger
from repro.soap.fault import FaultCode, SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient
from repro.util.rng import SeededRng
from repro.xmlkit import parse_xml


class MediationEngine:
    name = "mediation"

    def generate(self, rng: SeededRng) -> dict:
        return {"stream": gen_stream(rng, most=4, topics=TOPICS[:3])}

    def check(self, case: object) -> Optional[str]:
        if not valid_stream(case):
            return None
        network = SimulatedNetwork(VirtualClock())
        broker = WsMessenger(network, "http://conf-broker", **VERSIONS)
        sink, consumer = front_door(network, broker, "http://conf")
        sent = [(spec_to_elem(item["payload"]), item["topic"]) for item in case["stream"]]
        for payload, topic in sent:
            broker.publish(payload.copy(), topic=topic)
        want = ([(payload, None) for payload, _ in sent], sent)
        failure = same_deliveries(want, received(sink, consumer), "against the publish")
        if failure is not None:
            return failure
        client = SoapClient(network)
        for notify, target in ((n, t) for n in case.get("notify", []) for t in (consumer, broker)):
            body = parse_xml(notify)
            try:
                client.call(target.epr(), f"{body.name.namespace}/{body.name.local}", [body])
            except SoapFault as fault:
                if fault.code is not FaultCode.SENDER:
                    return f"hostile Notify at {target.address}: {fault.code.name} fault"
        return None
