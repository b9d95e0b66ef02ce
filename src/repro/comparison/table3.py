"""Table 3: comparison among six event-notification specifications.

Columns in the paper's order: CORBA Event Service, CORBA Notification
Service, JMS, OGSI-Notification, WS-Notification, WS-Eventing.  :data:`ROWS`
states the table once.  Historical cells (release dates, creators) are
transcription; behavioural cells pair the published text with a *probe*:
:func:`build_table3` shows the text only after the capability was exercised
against the live implementation — a failed probe yields a ``FAILED`` cell
that the diff against ``PAPER_TABLE3`` (the rows' published texts) flags.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Union

from repro.baselines.corba.event_service import EventChannel
from repro.baselines.corba.events import StructuredEvent
from repro.baselines.corba.notification_service import FilterObject, NotificationChannel
from repro.baselines.corba.orb import Orb
from repro.baselines.jms.messages import TextMessage
from repro.baselines.jms.provider import JmsProvider
from repro.baselines.jms.session import Connection
from repro.baselines.ogsi.grid_service import NotificationSink, NotificationSource
from repro.comparison import probes
from repro.comparison.tables import ComparisonTable
from repro.qos.properties import CORBA_QOS_PROPERTIES, QosProfile
from repro.transport.clock import VirtualClock
from repro.transport.network import SimulatedNetwork
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import text_element
from repro.xmlkit.names import QName

COLUMNS = [
    "CORBA Event Service",
    "CORBA Notification Service",
    "JMS",
    "OGSI-Notification",
    "WS-Notification",
    "WS-Eventing",
]

_WSN = WsnVersion.V1_3
_WSE = WseVersion.V2004_08


def _checked(probe: Callable[[], bool], text_on_success: str) -> str:
    """Run a probe; return the paper's cell text only if it succeeded."""
    try:
        return text_on_success if probe() else f"FAILED: probe returned False"
    except Exception as exc:  # a probe crash must surface in the table
        return f"FAILED: {exc}"


# --- delivery-mode probes -------------------------------------------------------------


def _corba_event_delivery() -> bool:
    orb = Orb()
    channel = EventChannel(orb)
    received = []
    push_proxy = channel.for_consumers().obtain_push_supplier()
    push_proxy.connect_push_consumer(orb.register(lambda op, args: received.append(args[0])))
    pull_proxy = channel.for_consumers().obtain_pull_supplier()
    channel.for_suppliers().obtain_push_consumer().push("e")
    _, ok = pull_proxy.try_pull()
    return len(received) == 1 and ok


def structured_push():
    """A Notification Service channel with one structured push consumer:
    ``(orb, channel, consumer's proxy, supplier, what the consumer got)``."""
    orb = Orb()
    channel = NotificationChannel(orb)
    received = []
    proxy = channel.new_for_consumers().obtain_structured_push_supplier()
    proxy.connect_structured_push_consumer(orb.register(lambda op, args: received.append(args[0])))
    supplier = channel.new_for_suppliers().obtain_structured_push_consumer()
    return orb, channel, proxy, supplier, received


def _corba_notif_delivery() -> bool:
    _, channel, _, supplier, received = structured_push()
    pull = channel.new_for_consumers().obtain_structured_pull_supplier()
    supplier.push_structured_event(StructuredEvent(type_name="T"))
    _, ok = pull.try_pull_structured_event()
    return len(received) == 1 and ok


def _jms_delivery() -> bool:
    provider = JmsProvider(VirtualClock())
    connection = Connection(provider, "t3")
    connection.start()
    session = connection.create_session()
    queue = provider.queue("q")
    session.create_producer(queue).send(TextMessage(text="m"))
    pulled = session.create_consumer(queue).receive()  # pull style
    topic = provider.topic("t")
    subscriber = session.create_consumer(topic)  # push into subscriber buffer
    session.create_producer(topic).send(TextMessage(text="m2"))
    pushed = subscriber.receive()
    return pulled is not None and pushed is not None


def _ogsi_delivery() -> bool:
    network = SimulatedNetwork(VirtualClock())
    source = NotificationSource(network, "http://t3-ogsi")
    source.declare_service_data("sd", text_element(QName("urn:t3", "v"), "0"))
    sink = NotificationSink(network, "http://t3-ogsi-sink")
    source.subscribe("sd", sink.epr())
    return source.set_service_data("sd", text_element(QName("urn:t3", "v"), "1")) == 1


# --- filter-language probes ---------------------------------------------------------------


def _corba_notif_filter() -> bool:
    filter_object = FilterObject()
    filter_object.add_constraint("$severity == 'major' and $progress > 10")
    return filter_object.match_structured(
        StructuredEvent(filterable_data={"severity": "major", "progress": 20})
    )


def _jms_filter() -> bool:
    from repro.filters.selector import MessageSelector

    return MessageSelector("JMSPriority > 3 AND kind LIKE 'err%'").matches(
        {"JMSPriority": 5, "kind": "error"}
    )


def _ogsi_filter() -> bool:
    # filtering is by serviceDataName string match
    network = SimulatedNetwork(VirtualClock())
    source = NotificationSource(network, "http://t3-ogsi-f")
    source.declare_service_data("wanted", text_element(QName("urn:t3", "v"), "0"))
    source.declare_service_data("other", text_element(QName("urn:t3", "v"), "0"))
    sink = NotificationSink(network, "http://t3-ogsi-f-sink")
    source.subscribe("wanted", sink.epr())
    source.set_service_data("other", text_element(QName("urn:t3", "v"), "1"))
    source.set_service_data("wanted", text_element(QName("urn:t3", "v"), "1"))
    return len(sink.received) == 1


def _xpath_boolean_filter() -> bool:
    from repro.filters.content import MessageContentFilter
    from repro.filters.base import FilterContext
    from repro.xmlkit.parser import parse_xml

    payload = parse_xml('<e:S xmlns:e="urn:t3"><e:p>9</e:p></e:S>')
    return MessageContentFilter("/e:S[e:p > 5]", {"e": "urn:t3"}).matches(
        FilterContext(payload)
    )


# --- QoS probes --------------------------------------------------------------------------------


def _corba_qos() -> bool:
    profile = QosProfile()
    # all 13 must be understood (gettable + settable with a valid value)
    probe_values = {
        "Priority": 3,
        "MaxEventsPerConsumer": 5,
        "MaximumBatchSize": 2,
        "EventReliability": "Persistent",
    }
    for name in CORBA_QOS_PROPERTIES:
        profile.get(name)  # must be understood
    for name, value in probe_values.items():
        profile.set(name, value)
    return len(CORBA_QOS_PROPERTIES) == 13


def _jms_qos() -> bool:
    # priority ordering + persistence across a crash, probed live
    provider = JmsProvider(VirtualClock())
    connection = Connection(provider, "t3q")
    connection.start()
    session = connection.create_session()
    queue = provider.queue("q")
    producer = session.create_producer(queue)
    producer.send(TextMessage(text="lo"), priority=1)
    producer.send(TextMessage(text="hi"), priority=8)
    provider.crash_and_recover()  # both persistent by default -> survive
    consumer = session.create_consumer(queue)
    return consumer.receive().text == "hi"


# --- timeout probes -------------------------------------------------------------------------------


def _ogsi_timeout() -> bool:
    network = SimulatedNetwork(VirtualClock())
    source = NotificationSource(network, "http://t3-ogsi-t")
    source.declare_service_data("sd", text_element(QName("urn:t3", "v"), "0"))
    sink = NotificationSink(network, "http://t3-ogsi-t-sink")
    source.subscribe("sd", sink.epr(), termination_time=30.0)
    network.clock.advance(60.0)
    return source.set_service_data("sd", text_element(QName("urn:t3", "v"), "1")) == 0


# --- demand probes -----------------------------------------------------------------------------------


def _corba_suspend_resume() -> bool:
    _, _, proxy, supplier, received = structured_push()
    proxy.suspend_connection()
    supplier.push_structured_event(StructuredEvent(type_name="T"))
    if received:
        return False
    proxy.resume_connection()
    return len(received) == 1


def _wsn_demand() -> bool:
    """A demand publisher registered at WS-Messenger over the wire is paused
    until a consumer wants its topic, then resumed."""
    from repro.messenger.broker import WsMessenger
    from repro.wsn.consumer import NotificationConsumer
    from repro.wsn.producer import NotificationProducer
    from repro.wsn.subscriber import WsnSubscriber

    network = SimulatedNetwork(VirtualClock())
    publisher = NotificationProducer(network, "http://t3-pub")
    broker = WsMessenger(network, "http://t3-broker")
    client = WsnSubscriber(network)
    client.register_publisher(broker.epr(), publisher=publisher.epr(), topic="jobs", demand=True)
    (registration,) = broker.publishers
    if not registration.paused_upstream:
        return False
    consumer = NotificationConsumer(network, "http://t3-consumer")
    client.subscribe(broker.epr(), consumer.epr(), topic="jobs")
    return not registration.paused_upstream


# --- the table --------------------------------------------------------------------------------

#: a published cell: its text as transcribed, or the probe that must succeed
#: before the measured table shows the text
Cell = Union[str, tuple[Callable[[], bool], str]]

#: Table 3 in the paper's row order: (label, one cell per column)
ROWS: list[tuple[str, tuple[Cell, ...]]] = [
    ("First Release", ("3/1995", "6/1997", "1998", "6/27/2003", "1/20/2004", "1/7/2004")),
    (
        "Latest Release",
        ("10/2/2004", "10/11/2004", "4/12/2002", "6/27/2003", "2/2006", "8/30/2004"),
    ),
    (
        "Creator(s)",
        (
            "OMG",
            "OMG",
            "Sun Microsystems",
            "Global Grid Forum",
            "IBM, Sonic, TIBCO, Akamai, SAP, CA, HP, Fujitsu, Globus",
            "IBM, BEA, CA, Sun, Microsoft, TIBCO",
        ),
    ),
    (
        "Message transport",
        ("RPC", "RPC", "RPC", "HTTP RPC", "Transport independent", "Transport independent"),
    ),
    (
        "Intermediary",
        (
            "EventChannel object",
            "EventChannel object",
            "Message Queue, Pub/Sub broker",
            "directly or through intermediary",
            "directly or through broker",
            "directly or through broker",
        ),
    ),
    (
        "Delivery Mode",
        (
            (_corba_event_delivery, "Push, pull & both"),
            (_corba_notif_delivery, "Push, pull & both"),
            (_jms_delivery, "Pull, Push"),
            (_ogsi_delivery, "Push"),
            (partial(probes.probe_pull_delivery, _WSN), "Push, Pull"),
            (
                partial(probes.probe_pull_delivery, _WSE),
                "Push by default, Can use Pull or other modes",
            ),
        ),
    ),
    (
        "Message Structure",
        (
            "Generic (Anys), Typed",
            "Generic (Anys), Typed, Structured, sequences of structured",
            "TextMessage, ByteMessage, MapMessage, StreamMessage, ObjectMessage",
            "SOAP with Xml based Service data Elements",
            "SOAP (with Raw XML data or wrapped messages)",
            "SOAP (with Raw XML data only). Can use wrapped mode.",
        ),
    ),
    (
        "Filter",
        (
            "No",
            (_corba_notif_filter, "Channel, Filter Object."),
            (_jms_filter, "Queue/topic name, message selector on header fields"),
            (_ogsi_filter, "ServiceDataName. Can add other filter services."),
            "Hierarchy Topic tree; Content Selector. Producer properties.",
            "A “Filter” element for any filter. At most 1 filter.",
        ),
    ),
    (
        "Filter language",
        (
            "No",
            (_corba_notif_filter, "Extended Trader Constraint Language"),
            (_jms_filter, "a subset of the SQL92 conditional expression syntax"),
            "ServicedDataName String or other expressions.",
            (
                _xpath_boolean_filter,
                "Any expression (xsd:any) that evaluates to a Boolean. e.g. XPath",
            ),
            (
                _xpath_boolean_filter,
                "Default XPath. Can use any expression (xsd:any) that evaluates to a Boolean.",
            ),
        ),
    ),
    (
        "QoS criteria",
        (
            "Not defined",
            (_corba_qos, "Defined 13 QoS properties, can be extended to others"),
            (_jms_qos, "Priority; persistence; durable; transaction; message order"),
            "Not defined",
            "Depends on composition with other WS* specification",
            "Depends on composition with other WS* specification",
        ),
    ),
    (
        "Subscription Timeout",
        (
            "No",
            "No",
            "No",
            (_ogsi_timeout, "Absolute Time"),
            (partial(probes.probe_duration_expiry, _WSN), "Absolute Time or duration"),
            (partial(probes.probe_duration_expiry, _WSE), "Absolute time or duration"),
        ),
    ),
    (
        "Demand-based",
        ("No", (_corba_suspend_resume, "Defined"), "No", "No", (_wsn_demand, "Defined"), "No"),
    ),
    (
        "Management operations",
        (
            "connect_*, obtain_(typed)_push/pull_supplier/consumer",
            "connect_*, obtain_notification_pull/push_supplier/consumer, "
            "suspend/resume_connection, get/set/validate_qos, "
            "add/remove/get/getAll/removeAll_filter, obtain_subscription/offered_types",
            "createSubscriber, createDurableSubscriber, unsubscribe",
            "Subscribe, requestTerminationAfter, requestTerminationBefore, destroy",
            "Subscribe, Renew, unsubscribe, Pause/resume subscription, "
            "get/getMultiple/set/query ResourceProperties, TerminationNotification, "
            "Destroy, SetTerminationTime",
            "Subscribe, Renew, GetStatus, Unsubscribe, SubscriptionEnd",
        ),
    ),
]

_TITLE = "Table 3: Comparison among specifications on event notifications"


def build_table3() -> ComparisonTable:
    table = ComparisonTable(f"{_TITLE} (measured)", COLUMNS)
    for label, cells in ROWS:
        table.add_row(label, *(c if isinstance(c, str) else _checked(*c) for c in cells))
    return table


#: the published Table 3 cell texts
PAPER_TABLE3 = ComparisonTable(f"{_TITLE} (paper)", COLUMNS)
for _label, _cells in ROWS:
    PAPER_TABLE3.add_row(_label, *(c if isinstance(c, str) else c[1] for c in _cells))
