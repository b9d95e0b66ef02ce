"""Table 2 as data: what a service advertises is what it serves, port by port.

Each (family, version) states its operations once — an
:class:`repro.subscriptions.OperationTable` — and the frame mounts the
handlers, answers the broker's front door and renders the WSDL from those
rows.  Over all nine configurations (WS-Eventing 01/2004 and 08/2004,
WS-BaseNotification 1.0 / 1.2 / 1.3 with the WSRF port requested on and off,
the converged prototype): per port, the advertised actions are the mounted
actions are what ``handler_for`` answers; every ``wsdl:port`` sits at the
address of the endpoint that serves it; every request/response row advertises
``<action>Response``.  Through a ``WsMessenger``, each ``source`` row is
routable at the front door and each manager-only row is sent to the
subscription-manager EPR.  DESIGN.md's operation table names the same
handlers.
"""

import re
from pathlib import Path

import pytest

from repro.convergence import ConvergedSource
from repro.convergence.service import OPERATIONS as CONVERGED_OPERATIONS
from repro.messenger import WsMessenger
from repro.messenger.registration import BrokerProducer
from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient
from repro.wsdl.generator import WSDL_NS, WSDL_SOAP_NS
from repro.wse import EventSource, WseVersion
from repro.wse.source import operations as wse_operations
from repro.wsn import NotificationProducer, WsnVersion
from repro.wsn.producer import operations as wsn_operations
from repro.xmlkit import parse_xml
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import Namespaces, QName

ADDRESS = "http://ops-table"

#: name -> (build the service, the table it must have mounted)
CONFIGURATIONS = {
    **{
        f"wse-{version.name}": (
            lambda network, version=version: EventSource(network, ADDRESS, version=version),
            wse_operations(version),
        )
        for version in WseVersion
    },
    **{
        f"wsn-{version.name}-wsrf-{'on' if wsrf else 'off'}": (
            lambda network, version=version, wsrf=wsrf: NotificationProducer(
                network, ADDRESS, version=version, enable_wsrf=wsrf
            ),
            wsn_operations(version, wsrf),
        )
        for version in WsnVersion
        for wsrf in (True, False)
    },
    "wsen": (lambda network: ConvergedSource(network, ADDRESS), CONVERGED_OPERATIONS),
}


def _attr(elem: XElem, local: str) -> str:
    return elem.attrs[QName("", local)]


def _action(elem: XElem) -> str:
    return elem.attrs[QName(Namespaces.WSA_2005_08, "Action")]


@pytest.fixture(params=sorted(CONFIGURATIONS))
def service(request):
    build, table = CONFIGURATIONS[request.param]
    built = build(SimulatedNetwork(VirtualClock()))
    assert built.operations == table
    return built


def test_nine_configurations():
    assert len(CONFIGURATIONS) == 9


class TestOneStatement:
    def test_advertised_is_mounted_is_answered(self, service):
        table = service.operations
        document = parse_xml(service.wsdl())
        advertised = {
            _attr(port_type, "name"): {
                _action(operation.find(QName(WSDL_NS, "input")))
                for operation in port_type.find_all(QName(WSDL_NS, "operation"))
            }
            for port_type in document.find_all(QName(WSDL_NS, "portType"))
        }
        assert set(advertised) == {table.port_types[row.port] for row in table.rows}
        endpoints = {"source": service.endpoint, "manager": service.manager_endpoint}
        merged = service.manager_endpoint is service.endpoint
        assert merged == all(row.port != "manager" for row in table.rows)
        for port, endpoint in endpoints.items():
            if port == "manager" and merged:
                continue
            mounted = endpoint._handlers
            assert advertised[table.port_types[port]] == set(mounted)
            for action, handler in mounted.items():
                assert service.handler_for(port, action) == handler
                other = "manager" if port == "source" else "source"
                if action not in endpoints[other]._handlers or merged:
                    assert service.handler_for(other, action) is None
        # what the service sends is described, not served
        sent = {row.action for row in table.rows if row.port == "sink"}
        assert advertised[table.port_types["sink"]] == sent
        assert all(service.handler_for("sink", action) is None for action in sent)

    def test_a_port_says_where_it_is_served(self, service):
        table = service.operations
        document = parse_xml(service.wsdl())
        ports = {
            _attr(port, "name"): _attr(port.find(QName(WSDL_SOAP_NS, "address")), "location")
            for port in document.find(QName(WSDL_NS, "service")).find_all(QName(WSDL_NS, "port"))
        }
        expected = {f"{table.port_types['source']}Port": service.address}
        if service.manager_endpoint is not service.endpoint:
            expected[f"{table.port_types['manager']}Port"] = service.manager_address
            assert service.manager_address == f"{ADDRESS}/subscriptions"
        assert ports == expected
        for address in ports.values():
            assert service.network.is_registered(address)

    def test_request_response_rows_advertise_the_response(self, service):
        document = parse_xml(service.wsdl())
        elements = {
            _attr(message, "name"): _attr(message.find(QName(WSDL_NS, "part")), "element")
            for message in document.find_all(QName(WSDL_NS, "message"))
        }
        described = {}
        for port_type in document.find_all(QName(WSDL_NS, "portType")):
            for operation in port_type.find_all(QName(WSDL_NS, "operation")):
                described[_attr(port_type, "name"), _attr(operation, "name")] = operation
        table = service.operations
        assert len(described) == len(table.rows)
        for row in table.rows:
            operation = described[table.port_types[row.port], row.name]
            request = operation.find(QName(WSDL_NS, "input"))
            assert _action(request) == row.action
            assert elements[_attr(request, "message").removeprefix("tns:")] == row.element
            response = operation.find(QName(WSDL_NS, "output"))
            assert (response is None) == row.one_way == (row.port == "sink")
            if response is not None:
                assert _action(response) == f"{row.action}Response"
                message = _attr(response, "message").removeprefix("tns:")
                assert elements[message] == f"{row.element}Response"


_PREFIXES = {
    "wsrf-rp": Namespaces.WSRF_RP,
    "wsrf-rl": Namespaces.WSRF_RL,
    "wsntbr": Namespaces.WSNT_BROKERED_13,
}
_FAMILY_NAMES = {"wse": "WS-Eventing", "wsn": "WS-Notification"}


@pytest.mark.parametrize(
    "family, version",
    [("wse", version) for version in WseVersion] + [("wsn", version) for version in WsnVersion],
    ids=lambda value: getattr(value, "name", value),
)
def test_front_door_stands_in_for_the_source_port_only(family, version, monkeypatch):
    """Each handler is swapped for a recorder *before* the broker mounts its
    tables, so a routed request names the method that served it."""
    cls, table = (
        (EventSource, wse_operations(version))
        if family == "wse"
        else (BrokerProducer, wsn_operations(version, brokered=True))
    )
    served_by: list[str] = []
    for name in {row.handler for row in table.rows if row.handler is not None}:
        monkeypatch.setattr(
            cls, name, lambda self, envelope, headers, name=name: served_by.append(name)
        )
    network = SimulatedNetwork(VirtualClock())
    enabled = {"wse_versions": [], "wsn_versions": [], f"{family}_versions": [version]}
    broker = WsMessenger(network, "http://ops-broker", **enabled)
    [(_, _, service)] = broker.services()
    assert service.operations == table
    client = SoapClient(network, wsa_version=version.wsa_version)
    at_the_source = {row.action: row.handler for row in table.rows if row.port == "source"}
    for row in table.rows:
        if row.handler is None:
            continue
        prefix, _, local = row.element.partition(":")
        body = XElem(QName(_PREFIXES.get(prefix, version.namespace), local))
        # a WSRF body names no version: the request is attributed through the
        # family-namespaced header a real one echoes (the subscription id)
        marker = [text_element(version.qname("SubscriptionId"), "any")]
        if row.action in at_the_source:
            assert client.call(broker.epr(), row.action, [body], extra_headers=marker) is None
            assert served_by.pop() == at_the_source[row.action]
        else:
            with pytest.raises(SoapFault) as refused:
                client.call(broker.epr(), row.action, [body], extra_headers=marker)
            assert refused.value.reason == (
                f"operation {row.name!r} ({_FAMILY_NAMES[family]} {version.name} ({row.name})) "
                "is not accepted at the broker front door; management operations go to the "
                "subscription-manager EPR"
            )
    assert served_by == []


def test_design_md_names_the_same_handlers():
    """DESIGN.md's "Operation → core call" table carries a handler column;
    it lists exactly the handler methods the nine tables mount."""
    design = (Path(__file__).resolve().parents[2] / "DESIGN.md").read_text(encoding="utf-8")
    section = design[design.index("**Operation → port → handler → core call") :]
    rows = [line for line in section.split("\n\n", 2)[1].splitlines() if line.startswith("|")]
    documented = {name for line in rows for name in re.findall(r"`(_handle_\w+)`", line.split("|")[3])}
    mounted = {
        row.handler
        for _, table in CONFIGURATIONS.values()
        for row in table.rows
        if row.handler is not None
    }
    assert documented == mounted
    ports = {port for line in rows[2:] for port in re.findall(r"`(\w+)`", line.split("|")[2])}
    assert ports == {"source", "manager", "sink"}
