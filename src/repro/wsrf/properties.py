"""WSRF resource property operations.

These are the operations the paper's Table 2 maps WS-Eventing's ``GetStatus``
onto: "Not defined, can use getResourceProperties in WSRF".
"""

from __future__ import annotations

from repro.soap.fault import FaultCode, SoapFault
from repro.wsrf.resource import WsResource
from repro.xmlkit.names import Namespaces, QName
from repro.xmlkit.element import XElem


class InvalidResourcePropertyFault(SoapFault):
    """The named property does not exist on the resource."""

    def __init__(self, name: QName) -> None:
        super().__init__(
            FaultCode.SENDER,
            f"resource has no property {name}",
            subcode=QName(Namespaces.WSRF_RP, "InvalidResourcePropertyQNameFault"),
        )


def get_resource_property(resource: WsResource, name: QName) -> list[XElem]:
    """GetResourceProperty: all values of one property."""
    if name not in resource.properties:
        raise InvalidResourcePropertyFault(name)
    return resource.get_property(name)
