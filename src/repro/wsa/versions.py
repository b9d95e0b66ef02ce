"""WS-Addressing version profiles."""

from __future__ import annotations

from repro.xmlkit.names import Namespaces, NamespaceVersion, QName


class WsaVersion(NamespaceVersion):
    """One of the three WS-Addressing releases used by WSE/WSN versions."""

    V2003_03 = Namespaces.WSA_2003_03
    V2004_08 = Namespaces.WSA_2004_08
    V2005_08 = Namespaces.WSA_2005_08

    @property
    def anonymous_uri(self) -> str:
        """The 'reply to the transport back-channel' address."""
        if self is WsaVersion.V2005_08:
            return "http://www.w3.org/2005/08/addressing/anonymous"
        return f"{self.namespace}/role/anonymous"

    @property
    def supports_reference_properties(self) -> bool:
        """ReferenceProperties exist in 2003/03 and 2004/08, dropped in 2005/08."""
        return self is not WsaVersion.V2005_08

    @property
    def supports_reference_parameters(self) -> bool:
        """ReferenceParameters were introduced in 2004/08."""
        return self is not WsaVersion.V2003_03

    @property
    def is_reference_parameter_attr(self) -> QName:
        """2005/08 marks echoed headers with wsa:IsReferenceParameter."""
        return self.qname("IsReferenceParameter")
