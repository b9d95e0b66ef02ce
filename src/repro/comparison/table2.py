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

from repro.comparison.probes import _Harness, probe_subscription_end_notice
from repro.comparison.tables import ComparisonTable
from repro.soap.fault import SoapFault
from repro.subscriptions import OperationNotAvailable
from repro.wse.versions import WseVersion
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


def _pause_resume(harness, handle) -> None:
    harness.subscriber.pause(handle)
    harness.subscriber.resume(handle)


#: the rows both columns run through the same verbs, in an order a live
#: subscription allows (GetStatus before Unsubscribe): label -> the exchange
VERB_ROWS = {
    "Renew": lambda harness, handle: harness.subscriber.renew(handle, "PT2H"),
    "GetStatus": lambda harness, handle: harness.subscriber.get_status(handle),
    "Pause/resume Subscription": _pause_resume,
    "GetCurrentMessage": lambda harness, handle: harness.subscriber.get_current_message(
        harness.service.epr(), "probe"
    ),
    "Unsubscribe": lambda harness, handle: harness.subscriber.unsubscribe(handle),
}

#: what the WS-BaseNotification column calls the rows it leaves to WSRF
VIA_WSRF = {
    label: PAPER_TABLE2.cell(label, COLUMNS[1]) for label in ("GetStatus", "SubscriptionEnd")
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
    wse, wsn = _Harness(WseVersion.V2004_08), _Harness(WsnVersion.V1_3)
    #: per column: the version's live stack, its subscription, its own names
    columns = ((wse, wse.subscribe(), {}), (wsn, wsn.subscribe(), VIA_WSRF))
    table.add_row("Subscribe", "Subscribe", "Subscribe")
    wsn.publish()  # something for GetCurrentMessage to answer with
    for label, exchange in VERB_ROWS.items():
        table.add_row(
            label,
            *(_cell(names.get(label, label), exchange, *stack) for *stack, names in columns),
        )
    # SubscriptionEnd: WSE sends an explicit notice on abnormal termination;
    # WSN realizes the same through WSRF's TerminationNotification
    table.add_row(
        "SubscriptionEnd",
        *(
            names.get("SubscriptionEnd", "SubscriptionEnd")
            if probe_subscription_end_notice(harness.version)
            else "FAILED"
            for harness, _, names in columns
        ),
    )
    # reorder to the paper's row order for diffing
    order = [label for label, _ in PAPER_TABLE2.rows]
    table.rows.sort(key=lambda row: order.index(row[0]))
    return table
