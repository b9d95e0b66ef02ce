"""Mediation differential engine: one publish stream, two spec families.

WS-Messenger's whole claim (and the paper's section VI) is that mediation is
*transparent*: a consumer should not be able to tell from the payload which
specification the publisher spoke.  Each case is a short publish stream fed
to the broker once; a WSE sink and a WSN consumer are both subscribed at the
front door, and every notification must be payload-identical — to the other
family's copy and to the original publish — with topics preserved on the
WSN side (WSE has no topic slot in the body; it rides as a SOAP header).
A case's hostile ``notify`` bodies — a Notify, or another WSN 1.3 request such
as WS-BrokeredNotification's RegisterPublisher, each sent under the action its
root element names — go to the consumer and the front door and must be
accepted or refused with a Sender fault, never raise at the sender.
"""

from __future__ import annotations

from typing import Optional

from repro.conformance.gen import (
    gen_tree_spec,
    pick,
    spec_to_elem,
    strict_diff,
    valid_tree_spec,
)
from repro.util.rng import SeededRng

_TOPIC_POOL = ("alpha", "beta", "gamma")


class MediationEngine:
    name = "mediation"

    def generate(self, rng: SeededRng) -> dict:
        stream = [
            {"topic": pick(rng, _TOPIC_POOL), "payload": gen_tree_spec(rng, max_depth=2)}
            for _ in range(1 + rng.randrange(4))
        ]
        return {"stream": stream}

    def _valid(self, case: object) -> bool:
        if not isinstance(case, dict):
            return False
        stream = case.get("stream")
        if not isinstance(stream, list) or not stream:
            return False
        for item in stream:
            if not isinstance(item, dict):
                return False
            topic = item.get("topic")
            if not isinstance(topic, str) or not topic.isalnum():
                return False
            if not valid_tree_spec(item.get("payload")):
                return False
        return True

    def check(self, case: object) -> Optional[str]:
        if not self._valid(case):
            return None
        from repro.messenger import WsMessenger
        from repro.soap.fault import FaultCode, SoapFault
        from repro.transport import SimulatedNetwork, VirtualClock
        from repro.transport.endpoint import SoapClient
        from repro.wse import EventSink, WseSubscriber
        from repro.wse.versions import WseVersion
        from repro.wsn import NotificationConsumer, WsnSubscriber
        from repro.wsn.versions import WsnVersion
        from repro.xmlkit import parse_xml

        network = SimulatedNetwork(VirtualClock())
        broker = WsMessenger(
            network,
            "http://conf-broker",
            wse_versions=[WseVersion.V2004_08],
            wsn_versions=[WsnVersion.V1_3],
        )
        sink = EventSink(network, "http://conf-wse-sink")
        WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
        consumer = NotificationConsumer(network, "http://conf-wsn-consumer")
        WsnSubscriber(network).subscribe(broker.epr(), consumer.epr())

        stream = case["stream"]
        originals = [spec_to_elem(item["payload"]) for item in stream]
        for item, payload in zip(stream, originals):
            broker.publish(payload.copy(), topic=item["topic"])

        if len(sink.received) != len(stream):
            return f"WSE path saw {len(sink.received)} of {len(stream)} publishes"
        if len(consumer.received) != len(stream):
            return f"WSN path saw {len(consumer.received)} of {len(stream)} publishes"
        for index, item in enumerate(stream):
            wse_payload = sink.received[index].payload
            wsn_item = consumer.received[index]
            diff = strict_diff(originals[index], wse_payload)
            if diff is not None:
                return f"publish {index}: WSE payload differs from original at {diff}"
            diff = strict_diff(wse_payload, wsn_item.payload)
            if diff is not None:
                return f"publish {index}: WSE and WSN payloads differ at {diff}"
            if wsn_item.topic != item["topic"]:
                return (
                    f"publish {index}: topic {item['topic']!r} arrived as "
                    f"{wsn_item.topic!r} on the WSN path"
                )
        client = SoapClient(network)
        for notify, target in ((n, t) for n in case.get("notify", []) for t in (consumer, broker)):
            body = parse_xml(notify)
            try:
                client.call(target.epr(), f"{body.name.namespace}/{body.name.local}", [body])
            except SoapFault as fault:
                if fault.code is not FaultCode.SENDER:
                    return f"hostile Notify at {target.address}: {fault.code.name} fault"
        return None
