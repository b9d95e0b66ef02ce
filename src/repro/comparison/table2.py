"""Table 2: function comparison (WS-Eventing vs WS-BaseNotification).

The paper's Table 2 maps each WS-Eventing operation to how
WS-BaseNotification achieves it (natively, or through the optional WSRF),
plus the two WSN-only operations.  :func:`build_table2` *executes* each
row in both columns through the one subscriber client — a cell string is only
emitted after the corresponding exchange actually succeeded, and "Not
available" is what the client answered: :class:`OperationNotAvailable`, the
column's operation table having no such row.
"""

from __future__ import annotations

from repro.comparison.probes import _event
from repro.comparison.tables import ComparisonTable
from repro.soap.fault import SoapFault
from repro.subscriptions import OperationNotAvailable
from repro.transport.clock import VirtualClock
from repro.transport.network import SimulatedNetwork
from repro.wse.sink import EventSink
from repro.wse.source import EventSource
from repro.wse.subscriber import WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn.consumer import NotificationConsumer
from repro.wsn.producer import NotificationProducer
from repro.wsn.subscriber import WsnSubscriber
from repro.wsn.versions import WsnVersion

COLUMNS = ["WS-Eventing", "WS-BaseNotification"]

#: the published Table 2
PAPER_TABLE2 = ComparisonTable("Table 2: Function Comparison (paper)", COLUMNS)
PAPER_TABLE2.add_row("Subscribe", "Subscribe", "Subscribe")
PAPER_TABLE2.add_row("Renew", "Renew", "Renew")
PAPER_TABLE2.add_row("Unsubscribe", "Unsubscribe", "Unsubscribe")
PAPER_TABLE2.add_row(
    "GetStatus", "GetStatus", "Not defined, can use getResourceProperties in WSRF"
)
PAPER_TABLE2.add_row(
    "SubscriptionEnd",
    "SubscriptionEnd",
    "Not defined, can use TerminationNotification in WSRF",
)
PAPER_TABLE2.add_row("Pause/resume Subscription", "Not available", "Pause/resume Subscription")
PAPER_TABLE2.add_row("GetCurrentMessage", "Not available", "GetCurrentMessage")


def _pause_resume(service, client, handle) -> None:
    client.pause(handle)
    client.resume(handle)


#: the rows both columns run through the same verbs, in an order a live
#: subscription allows (GetStatus before Unsubscribe): label -> the exchange
VERB_ROWS = {
    "Renew": lambda service, client, handle: client.renew(handle, "PT2H"),
    "GetStatus": lambda service, client, handle: client.get_status(handle),
    "Pause/resume Subscription": _pause_resume,
    "GetCurrentMessage": lambda service, client, handle: client.get_current_message(
        service.epr(), "t2"
    ),
    "Unsubscribe": lambda service, client, handle: client.unsubscribe(handle),
}

#: what the WS-BaseNotification column calls the rows it leaves to WSRF
VIA_WSRF = {
    "GetStatus": "Not defined, can use getResourceProperties in WSRF",
    "SubscriptionEnd": "Not defined, can use TerminationNotification in WSRF",
}


def _cell(label: str, exchange, *stack) -> str:
    """``label`` once ``exchange(*stack)`` went through with something to
    show; "Not available" where the column's operation table has no such row."""
    try:
        answer = exchange(*stack)
    except OperationNotAvailable:
        return "Not available"
    except SoapFault as exc:
        return f"FAILED: {exc}"
    return "FAILED" if answer == "" else label


def build_table2() -> ComparisonTable:
    """Execute every Table 2 mapping and report how each function is achieved."""
    table = ComparisonTable("Table 2: Function Comparison (measured)", COLUMNS)

    # --- live WSE 08/2004 and WSN 1.3 stacks ------------------------------------------
    wse_net = SimulatedNetwork(VirtualClock())
    wse_version = WseVersion.V2004_08
    source = EventSource(wse_net, "http://t2-source", version=wse_version)
    sink = EventSink(wse_net, "http://t2-sink", version=wse_version)
    end_sink = EventSink(wse_net, "http://t2-end", version=wse_version)
    wse_sub = WseSubscriber(wse_net, version=wse_version)
    wsn_net = SimulatedNetwork(VirtualClock())
    wsn_version = WsnVersion.V1_3
    producer = NotificationProducer(wsn_net, "http://t2-producer", version=wsn_version)
    consumer = NotificationConsumer(wsn_net, "http://t2-consumer", version=wsn_version)
    wsn_sub = WsnSubscriber(wsn_net, version=wsn_version)

    wse_handle = wse_sub.subscribe(source.epr(), notify_to=sink.epr(), end_to=end_sink.epr())
    wsn_handle = wsn_sub.subscribe(producer.epr(), consumer.epr(), topic="t2")
    #: per column: the service, its client, the live subscription, its own names
    columns = ((source, wse_sub, wse_handle, {}), (producer, wsn_sub, wsn_handle, VIA_WSRF))
    table.add_row("Subscribe", "Subscribe", "Subscribe")
    producer.publish(_event(), topic="t2")  # something for GetCurrentMessage to answer with
    for label, exchange in VERB_ROWS.items():
        table.add_row(
            label,
            *(_cell(names.get(label, label), exchange, *stack) for *stack, names in columns),
        )

    # SubscriptionEnd: WSE sends an explicit notice on abnormal termination;
    # WSN realizes the same through WSRF's TerminationNotification
    wse_sub.subscribe(source.epr(), notify_to=sink.epr(), end_to=end_sink.epr())
    source.shutdown()
    wsn_sub.subscribe(producer.epr(), consumer.epr(), topic="t2", initial_termination="PT10S")
    wsn_net.clock.advance(20.0)
    producer.sweep()
    table.add_row(
        "SubscriptionEnd",
        "SubscriptionEnd" if end_sink.subscription_ends else "FAILED",
        VIA_WSRF["SubscriptionEnd"] if consumer.termination_notices else "FAILED",
    )

    # reorder to the paper's row order for diffing
    order = [label for label, _ in PAPER_TABLE2.rows]
    table.rows.sort(key=lambda row: order.index(row[0]))
    return table
