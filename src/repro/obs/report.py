"""``python -m repro obs-report`` — the observability subsystem, demonstrated.

Runs a small canonical mediation scenario with full instrumentation — an
external WS-Eventing source bridged into the WS-Messenger broker, fanned
out to a WSE sink and a WSN consumer, plus one doomed delivery into a
firewalled zone — and renders the text and JSON reports.  Everything runs
on the virtual clock, so the output is byte-identical across invocations.
"""

from __future__ import annotations

from repro.obs.exporters import (
    render_json_report,
    render_text_report,
    reset_cache_stats,
)
from repro.obs.instrument import Instrumentation

DEMO_TOPIC = "obs/demo"


def run_demo_scenario() -> Instrumentation:
    """The instrumented mediated-publish lifecycle; returns the handle.

    Exercises the full lineage story on one publish: a WSE-origin message
    mediated by the broker, pushed to a WSE sink and a WSN consumer, and —
    for the consumer behind the firewall — retried, parked in a message box
    and finally drained by pull from inside the zone.  Every hop carries
    the same lineage id, so the trace tree, ledger and latency histograms
    all reconstruct from SOAP headers alone.
    """
    from repro.delivery import DeliveryPolicy
    from repro.messenger import WsMessenger, mediation
    from repro.transport import AddressUnreachable, MessageLost, SimulatedNetwork, VirtualClock
    from repro.wsa.headers import reset_message_counter
    from repro.wse import EventSink, EventSource, WseSubscriber
    from repro.wsn import NotificationConsumer, PullPointClient, WsnSubscriber
    from repro.xmlkit import parse_xml

    reset_message_counter()
    reset_cache_stats()
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)

    # an external WSE source bridged into the broker (publisher side)
    source = EventSource(
        network, "http://obs-wse-source", topic_header=mediation.WSE_TOPIC_HEADER
    )
    broker = WsMessenger(
        network,
        "http://obs-broker",
        delivery=DeliveryPolicy(max_attempts=3, breaker_failure_threshold=3),
    )
    broker.bridge_from_wse_source(source.epr())

    # consumers of both families behind the broker front door
    sink = EventSink(network, "http://obs-wse-sink")
    WseSubscriber(network).subscribe(broker.epr(), notify_to=sink.epr())
    consumer = NotificationConsumer(network, "http://obs-wsn-consumer")
    WsnSubscriber(network).subscribe(broker.epr(), consumer.epr(), topic=DEMO_TOPIC)

    # one consumer behind a stateful firewall: its push delivery must fail,
    # park in a broker-side message box, and be drained by pull from inside
    network.add_zone("intranet", blocks_inbound=True)
    doomed = NotificationConsumer(network, "http://obs-doomed", zone="intranet")
    WsnSubscriber(network, zone="intranet").subscribe(
        broker.epr(), doomed.epr(), topic=DEMO_TOPIC
    )

    # one flaky consumer: its first two pushes are lost in flight, so the
    # scheduler-fired retries (which rejoin the trace through the task's
    # carried lineage context) appear in the span tree and the ledger
    flaky = NotificationConsumer(network, "http://obs-flaky")
    WsnSubscriber(network).subscribe(broker.epr(), flaky.epr(), topic=DEMO_TOPIC)
    drops = {"remaining": 2}

    def _drop_first_pushes(address: str, request: bytes) -> None:
        if address == flaky.address and drops["remaining"] > 0:
            drops["remaining"] -= 1
            raise MessageLost(address)

    network.observers.append(_drop_first_pushes)

    event = parse_xml(
        '<obs:Reading xmlns:obs="urn:obs-demo"><obs:value>42</obs:value></obs:Reading>'
    )
    source.publish(event, topic=DEMO_TOPIC)
    broker.run_deliveries_until_idle()

    # the firewalled consumer drains its parked message from inside the zone
    # (client-initiated GetMessages passes the firewall; the box handler
    # closes the parked obligation as delivered-via-pull)
    box = broker.message_boxes.get(doomed.address)
    if box is not None and len(box):
        PullPointClient(network, zone="intranet").get_messages(box.epr())

    # one unreachable push for the third failure outcome
    try:
        network.send_request("http://obs-nowhere", b"probe")
    except AddressUnreachable:
        pass
    return instrumentation


def obs_report_main(argv: list[str] | None = None) -> int:
    """CLI: print the text report, then the JSON document (``--json`` for
    JSON only, ``--text`` for text only)."""
    argv = list(argv or [])
    want_json = "--text" not in argv or "--json" in argv
    want_text = "--json" not in argv or "--text" in argv
    instrumentation = run_demo_scenario()
    title = "repro.obs report — mediated publish (WSE source -> broker -> WSE/WSN consumers)"
    try:
        if want_text:
            print(render_text_report(instrumentation, title=title))
        if want_text and want_json:
            print()
        if want_json:
            print(render_json_report(instrumentation, title=title))
    except BrokenPipeError:  # e.g. piped into `head`
        pass
    return 0
