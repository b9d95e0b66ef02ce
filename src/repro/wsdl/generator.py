"""The WSDL 1.1 model, rendered from the operation table a service mounts.

A port type holds the :class:`~repro.subscriptions.Operation` rows of one
port, so a description cannot advertise what the endpoint does not serve (or
omit what it does): a request/response row's reply is ``<element>Response``
under ``<action>Response``, a served port sits at the address of the endpoint
that serves it, and a ``sink`` port type — what the service *sends* — has no
service port."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.convergence.service import OPERATIONS as CONVERGED_OPERATIONS
from repro.subscriptions import Operation, OperationTable
from repro.wse.source import operations as wse_operations
from repro.wse.versions import WseVersion
from repro.wsn.producer import operations as wsn_operations
from repro.wsn.versions import WsnVersion
from repro.xmlkit.element import XElem
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.writer import serialize_xml

WSDL_NS = "http://schemas.xmlsoap.org/wsdl/"
WSDL_SOAP_NS = "http://schemas.xmlsoap.org/wsdl/soap/"


def _w(local: str) -> QName:
    return QName(WSDL_NS, local)


def _messages(operation: Operation):
    """``(wsdl tag, message name, body element, wsa:Action)`` of a row: its
    request and — unless it is one-way — the reply, named by convention."""
    yield "input", f"{operation.name}In", operation.element, operation.action
    if not operation.one_way:
        name, element, action = operation.name, operation.element, operation.action
        yield "output", f"{name}Out", f"{element}Response", f"{action}Response"


@dataclass
class WsdlPortType:
    name: str
    operations: list[Operation] = field(default_factory=list)
    #: where the port is served; None for a port the service does not serve
    address: Optional[str] = None

    def operation_names(self) -> list[str]:
        return [operation.name for operation in self.operations]


@dataclass
class WsdlDefinition:
    """A WSDL 1.1 definitions document."""

    name: str
    target_namespace: str
    port_types: list[WsdlPortType] = field(default_factory=list)

    def port_type(self, name: str) -> WsdlPortType:
        for port_type in self.port_types:
            if port_type.name == name:
                return port_type
        raise KeyError(name)

    def all_operations(self) -> list[Operation]:
        return [op for pt in self.port_types for op in pt.operations]

    # --- rendering -----------------------------------------------------------

    def to_element(self) -> XElem:
        definitions = XElem(_w("definitions"))
        definitions.attrs[QName("", "name")] = self.name
        definitions.attrs[QName("", "targetNamespace")] = self.target_namespace
        # messages: one per distinct in/out element
        seen_messages: set[str] = set()
        for operation in self.all_operations():
            for _, message_name, element, _ in _messages(operation):
                if message_name in seen_messages:
                    continue
                seen_messages.add(message_name)
                message = XElem(_w("message"))
                message.attrs[QName("", "name")] = message_name
                part = XElem(_w("part"))
                part.attrs[QName("", "name")] = "body"
                part.attrs[QName("", "element")] = element
                message.append(part)
                definitions.append(message)
        # portTypes
        for port_type in self.port_types:
            pt_elem = XElem(_w("portType"))
            pt_elem.attrs[QName("", "name")] = port_type.name
            for operation in port_type.operations:
                op_elem = XElem(_w("operation"))
                op_elem.attrs[QName("", "name")] = operation.name
                for tag, message_name, _, action in _messages(operation):
                    message = XElem(_w(tag))
                    message.attrs[QName("", "message")] = f"tns:{message_name}"
                    message.attrs[QName(Namespaces.WSA_2005_08, "Action")] = action
                    op_elem.append(message)
                pt_elem.append(op_elem)
            definitions.append(pt_elem)
        # binding + service (document/literal SOAP-over-HTTP)
        served = [port_type for port_type in self.port_types if port_type.address is not None]
        if served:
            for port_type in self.port_types:
                binding = XElem(_w("binding"))
                binding.attrs[QName("", "name")] = f"{port_type.name}SoapBinding"
                binding.attrs[QName("", "type")] = f"tns:{port_type.name}"
                soap_binding = XElem(QName(WSDL_SOAP_NS, "binding"))
                soap_binding.attrs[QName("", "style")] = "document"
                soap_binding.attrs[
                    QName("", "transport")
                ] = "http://schemas.xmlsoap.org/soap/http"
                binding.append(soap_binding)
                definitions.append(binding)
            service = XElem(_w("service"))
            service.attrs[QName("", "name")] = f"{self.name}Service"
            for port_type in served:
                port = XElem(_w("port"))
                port.attrs[QName("", "name")] = f"{port_type.name}Port"
                port.attrs[QName("", "binding")] = f"tns:{port_type.name}SoapBinding"
                address = XElem(QName(WSDL_SOAP_NS, "address"))
                address.attrs[QName("", "location")] = port_type.address
                port.append(address)
                service.append(port)
            definitions.append(service)
        return definitions

    def to_xml(self) -> str:
        return serialize_xml(self.to_element(), xml_declaration=True, indent=True)


# --- one builder, and the description of each family without a live service ----------


def definition_of(
    table: OperationTable, address: Optional[str] = None, manager_address: Optional[str] = None
) -> WsdlDefinition:
    """The description of ``table``: one port type per port that has rows,
    for a service at ``address`` (none: an abstract description) whose manager
    answers at ``manager_address`` (by default where the services put it)."""
    served = {}
    if address is not None:
        served = {"source": address, "manager": manager_address or f"{address}/subscriptions"}
    port_types = [
        WsdlPortType(name, [row for row in table.rows if row.port == port], served.get(port))
        for port, name in table.port_types.items()
    ]
    return WsdlDefinition(
        table.name, table.namespace, [port_type for port_type in port_types if port_type.operations]
    )


def wsdl_for_wse_source(
    version: WseVersion = WseVersion.V2004_08, *, address: Optional[str] = None
) -> WsdlDefinition:
    """The WS-Eventing event source (+ subscription manager) WSDL."""
    return definition_of(wse_operations(version), address)


def wsdl_for_wsn_producer(
    version: WsnVersion = WsnVersion.V1_3,
    *,
    address: Optional[str] = None,
    include_wsrf: bool = True,
) -> WsdlDefinition:
    """The WS-BaseNotification producer (+ manager + consumer) WSDL."""
    return definition_of(wsn_operations(version, include_wsrf), address)


def wsdl_for_converged_source(*, address: Optional[str] = None) -> WsdlDefinition:
    """The WS-EventNotification prototype WSDL (union port type)."""
    return definition_of(CONVERGED_OPERATIONS, address)
