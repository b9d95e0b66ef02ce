"""WSDL 1.1 document generation for the implemented port types.

"Web Service Description Language (WSDL) defines valid XML document
structures for message exchanges to enable the interoperability feature of
Web services" (paper section III).  This package renders real WSDL 1.1
documents for the WS-Eventing event source / subscription manager, the
WS-Notification producer / subscription manager and the converged prototype,
so each endpoint can *describe itself* the way its specification intends.

Every description is rendered from the operation table its service mounts
(:class:`repro.subscriptions.OperationTable`, one per family and version), so
what is advertised is exactly what is served, port by port: a WSE 01/2004
WSDL has no GetStatus and no separate manager port, and a WSN 1.0
subscription manager describes the WSRF lifetime operations instead of
Renew/Unsubscribe.
"""

from repro.wsdl.generator import (
    WsdlDefinition,
    WsdlPortType,
    wsdl_for_converged_source,
    wsdl_for_wse_source,
    wsdl_for_wsn_producer,
)

__all__ = [
    "WsdlDefinition",
    "WsdlPortType",
    "wsdl_for_wse_source",
    "wsdl_for_wsn_producer",
    "wsdl_for_converged_source",
]
