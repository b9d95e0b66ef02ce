"""Automatic specification detection.

"WS-Messenger automatically detects which specification the incoming SOAP
messages use and processes them accordingly."  The primary signal is the
namespace of the body payload element (every WSE/WSN version has its own);
the WS-Addressing header namespace serves as a cross-check, since each spec
version binds a specific WSA release (Table 1's last row).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

from repro.soap.envelope import SoapEnvelope
from repro.wsa.headers import detect_wsa_version
from repro.wsa.versions import WsaVersion
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit.names import Namespaces


class SpecFamily(Enum):
    WS_EVENTING = "WS-Eventing"
    WS_NOTIFICATION = "WS-Notification"


SpecVersion = Union[WseVersion, WsnVersion]

_NAMESPACE_TO_VERSION: dict[str, tuple[SpecFamily, SpecVersion]] = {
    **{v.namespace: (SpecFamily.WS_EVENTING, v) for v in WseVersion},
    **{v.namespace: (SpecFamily.WS_NOTIFICATION, v) for v in WsnVersion},
    # WS-BrokeredNotification 1.3 (RegisterPublisher, DestroyRegistration)
    Namespaces.WSNT_BROKERED_13: (SpecFamily.WS_NOTIFICATION, WsnVersion.V1_3),
}


class SpecDetectionError(ValueError):
    """The envelope matches no supported specification."""


@dataclass(frozen=True)
class DetectedSpec:
    family: SpecFamily
    version: SpecVersion
    operation: str  # body element local name, e.g. "Subscribe", "Notify"
    wsa_version: Optional[WsaVersion]
    #: the WSA version in the headers disagrees with the spec version's binding
    wsa_mismatch: bool = False

    def describe(self) -> str:
        return f"{self.family.value} {self.version.name} ({self.operation})"


def detect_spec(envelope: SoapEnvelope) -> DetectedSpec:
    """Classify one incoming envelope; raises :class:`SpecDetectionError`."""
    body = envelope.first_body()
    if body is None:
        raise SpecDetectionError("empty body: nothing to detect")
    hit = _NAMESPACE_TO_VERSION.get(body.name.namespace)
    if hit is None:
        # fall back: a body element from another namespace (raw notification)
        # may still be attributable through spec-versioned headers
        for block in envelope.headers:
            header_hit = _NAMESPACE_TO_VERSION.get(block.name.namespace)
            if header_hit is not None:
                family, version = header_hit
                return DetectedSpec(
                    family,
                    version,
                    body.name.local,
                    detect_wsa_version(envelope),
                    wsa_mismatch=_mismatch(envelope, version),
                )
        raise SpecDetectionError(
            f"body element {body.name} belongs to no supported specification"
        )
    family, version = hit
    return DetectedSpec(
        family,
        version,
        body.name.local,
        detect_wsa_version(envelope),
        wsa_mismatch=_mismatch(envelope, version),
    )


def _mismatch(envelope: SoapEnvelope, version: SpecVersion) -> bool:
    found = detect_wsa_version(envelope)
    return found is not None and found is not version.wsa_version
