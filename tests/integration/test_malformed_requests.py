"""A malformed request is a Sender fault at its source, never an exception.

Two malformations every service must answer: a Body that does not hold
exactly one element, sent under each row its operation table serves, and a
GetCurrentMessage that names no ``Topic``, sent to every dialect that has
the row.  The client sees a ``SoapFault`` whose code is Sender, and the
instrumented endpoint that served the row counts the request as ``fault``
(not as a crash escaping into the sender's stack).
"""

import pytest

from repro.convergence.service import (
    WSA as CONVERGED_WSA,
    ConvergedConsumer,
    ConvergedSource,
    ConvergedSubscriber,
)
from repro.obs import Instrumentation
from repro.soap import FaultCode, SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient
from repro.wse import EventSink, EventSource, WseSubscriber
from repro.wse.versions import WseVersion
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName


def wse_stack(network, version):
    source = EventSource(network, "http://mr-source", version=version)
    sink = EventSink(network, "http://mr-sink", version=version)
    handle = WseSubscriber(network, version=version).subscribe(
        source.epr(), notify_to=sink.epr()
    )
    return source, handle, version.wsa_version


def wsn_stack(network, version):
    producer = NotificationProducer(network, "http://mr-producer", version=version)
    consumer = NotificationConsumer(network, "http://mr-consumer", version=version)
    handle = WsnSubscriber(network, version=version).subscribe(
        producer.epr(), consumer.epr(), topic="t"
    )
    return producer, handle, version.wsa_version


def converged_stack(network, _version):
    source = ConvergedSource(network, "http://mr-converged")
    consumer = ConvergedConsumer(network, "http://mr-converged-consumer")
    handle = ConvergedSubscriber(network).subscribe(source.epr(), consumer=consumer.epr())
    return source, handle, CONVERGED_WSA


DIALECTS = {
    **{f"wse-{v.name}": (wse_stack, v) for v in WseVersion},
    **{f"wsn-{v.name}": (wsn_stack, v) for v in WsnVersion},
    "wsen": (converged_stack, None),
}


def build(dialect):
    network = SimulatedNetwork(VirtualClock())
    instr = Instrumentation.attach(network)
    stack, version = DIALECTS[dialect]
    service, handle, wsa_version = stack(network, version)
    return instr, service, handle, SoapClient(network, wsa_version=wsa_version)


def served_rows(dialect):
    network = SimulatedNetwork(VirtualClock())
    stack, version = DIALECTS[dialect]
    service = stack(network, version)[0]
    return [row for row in service.operations.rows if row.handler is not None]


CASES = [
    (dialect, row.port, row.name, row.action)
    for dialect in DIALECTS
    for row in served_rows(dialect)
]


def faults_at(instr, endpoint) -> int:
    values = instr.metrics.counter_values("endpoint.requests")
    return sum(
        count for key, count in values.items()
        if f"address={endpoint.address}," in key and "status=fault" in key
    )


def assert_sender_fault(instr, endpoint, call) -> SoapFault:
    before = faults_at(instr, endpoint)
    with pytest.raises(SoapFault) as refused:
        call()
    assert refused.value.code is FaultCode.SENDER
    assert faults_at(instr, endpoint) == before + 1
    return refused.value


@pytest.mark.parametrize("elements", [0, 2], ids=["empty-body", "two-body-elements"])
@pytest.mark.parametrize(
    "dialect, port, name, action", CASES, ids=[f"{d}-{p}-{n}" for d, p, n, _ in CASES]
)
def test_a_body_without_exactly_one_element_is_a_sender_fault(
    dialect, port, name, action, elements
):
    instr, service, handle, client = build(dialect)
    target = handle.manager if port == "manager" else service.epr()
    endpoint = service.manager_endpoint if port == "manager" else service.endpoint
    body = [XElem(QName("urn:mr", "Op")) for _ in range(elements)]
    fault = assert_sender_fault(instr, endpoint, lambda: client.call(target, action, body))
    assert "exactly one body element" in fault.reason
    assert len(service.subscriptions) == 1  # nothing was done on its behalf


GET_CURRENT = [dialect for dialect in DIALECTS if any(
    row.name == "GetCurrentMessage" for row in served_rows(dialect)
)]


@pytest.mark.parametrize("dialect", GET_CURRENT)
def test_a_get_current_message_without_a_topic_is_a_sender_fault(dialect):
    instr, service, _, client = build(dialect)
    service.publish(XElem(QName("urn:mr", "Event")), topic="t")
    [row] = [row for row in service.operations.rows if row.name == "GetCurrentMessage"]
    request = XElem(QName(service.operations.namespace, "GetCurrentMessage"))
    assert_sender_fault(
        instr, service.endpoint, lambda: client.call(service.epr(), row.action, [request])
    )
