"""WS-Eventing version profiles and feature flags.

The flags mirror the rows of the paper's Table 1; the comparison engine
probes running implementations where possible and reads these flags where a
feature is structural (e.g. which WS-Addressing version the namespace binds
to).
"""

from __future__ import annotations

from repro.wsa.versions import WsaVersion
from repro.xmlkit.names import Namespaces, NamespaceVersion


class WseVersion(NamespaceVersion):
    """The two released WS-Eventing specifications."""

    V2004_01 = Namespaces.WSE_2004_01
    V2004_08 = Namespaces.WSE_2004_08

    def action(self, local: str) -> str:
        return f"{self.namespace}/{local}"

    @property
    def wsa_version(self) -> WsaVersion:
        """Table 1's final row: 01/2004 binds WSA 2003/03, 08/2004 binds 2004/08."""
        if self is WseVersion.V2004_01:
            return WsaVersion.V2003_03
        return WsaVersion.V2004_08

    # --- Table 1 feature flags ------------------------------------------------

    @property
    def separate_subscription_manager(self) -> bool:
        """08/2004 split the subscription manager from the event source."""
        return self is WseVersion.V2004_08

    @property
    def separate_subscriber(self) -> bool:
        """08/2004 also separates the subscriber role from the event sink."""
        return self is WseVersion.V2004_08

    @property
    def has_get_status(self) -> bool:
        """GetStatus was added in 08/2004."""
        return self is WseVersion.V2004_08

    @property
    def subscription_id_in_epr(self) -> bool:
        """08/2004 returns the id as a ReferenceParameter of the manager EPR;
        01/2004 used a bare ``wse:Id`` element."""
        return self is WseVersion.V2004_08

    @property
    def supports_wrapped_delivery(self) -> bool:
        return self is WseVersion.V2004_08

    @property
    def supports_pull_delivery(self) -> bool:
        return self is WseVersion.V2004_08

    @property
    def supports_duration_expiry(self) -> bool:
        return True  # both versions

    @property
    def defines_xpath_dialect(self) -> bool:
        return True  # both versions; XPath is the default dialect

    @property
    def has_filter_element(self) -> bool:
        return True

    @property
    def requires_wsrf(self) -> bool:
        return False

    @property
    def requires_topic(self) -> bool:
        return False

    @property
    def defines_pause_resume(self) -> bool:
        return False

    @property
    def defines_get_current_message(self) -> bool:
        return False

    @property
    def defines_wrapped_format(self) -> bool:
        """WSE 08/2004 allows wrapped mode but leaves the format undefined."""
        return False

    @property
    def separates_producer_and_publisher(self) -> bool:
        return False  # the event source is both, in both versions (Fig. 1)

    @property
    def defines_pull_point_interface(self) -> bool:
        return False

    @property
    def pull_mode_in_subscription(self) -> bool:
        """08/2004 selects pull via the Delivery extension point of Subscribe
        (WSN instead requires a pre-created PullPoint)."""
        return self is WseVersion.V2004_08

    @property
    def requires_status_query(self) -> bool:
        """Table 1 row "Require Getstatus": the paper marks both WSE
        versions Yes (status querying is mandatory for managers where the
        mechanism exists), and only WSN 1.3 No."""
        return True

    @property
    def requires_subscription_end(self) -> bool:
        return True
