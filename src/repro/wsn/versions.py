"""WS-Notification version profiles and Table 1 feature flags."""

from __future__ import annotations

from repro.wsa.versions import WsaVersion
from repro.xmlkit.names import Namespaces, NamespaceVersion


class WsnVersion(NamespaceVersion):
    """The three WS-BaseNotification releases the paper compares.

    1.0 (03/2004) is the initial refactor of the original WS-Notification;
    1.2 is the OASIS submission ("very similar to version 1.0" — the paper
    skips it in Table 1 for that reason); 1.3 is Public Review Draft 2, the
    convergence release.
    """

    V1_0 = Namespaces.WSNT_10
    V1_2 = Namespaces.WSNT_12
    V1_3 = Namespaces.WSNT_13

    def action(self, local: str) -> str:
        return f"{self.namespace}/{local}"

    @property
    def wsa_version(self) -> WsaVersion:
        """Table 1: WSN 1.0 binds WSA 2003/03; 1.3 binds 2005/08.
        (1.2, the OASIS submission, used the 2004/08 member submission.)"""
        if self is WsnVersion.V1_0:
            return WsaVersion.V2003_03
        if self is WsnVersion.V1_2:
            return WsaVersion.V2004_08
        return WsaVersion.V2005_08

    # --- Table 1 feature flags -----------------------------------------------

    @property
    def separate_subscription_manager(self) -> bool:
        return True  # all WSN versions

    @property
    def separate_subscriber(self) -> bool:
        return True

    @property
    def has_get_status(self) -> bool:
        """Status queries exist in every version — via WSRF
        getResourceProperties (<=1.2 mandatory, 1.3 optional)."""
        return True

    @property
    def subscription_id_in_epr(self) -> bool:
        return True  # SubscriptionReference EPR, all versions

    @property
    def uses_reference_properties(self) -> bool:
        """The section V.4 category-1 difference: pre-2005/08 WSA encloses
        the subscription id in ReferenceProperties, not ReferenceParameters."""
        return self.wsa_version.supports_reference_properties

    @property
    def supports_wrapped_delivery(self) -> bool:
        return True  # Notify wrapper defined in all versions

    @property
    def supports_pull_delivery(self) -> bool:
        return self is WsnVersion.V1_3  # PullPoint arrived in 1.3

    @property
    def supports_duration_expiry(self) -> bool:
        """1.3 adopted WS-Eventing's duration option; earlier versions take
        absolute termination times only."""
        return self is WsnVersion.V1_3

    @property
    def defines_xpath_dialect(self) -> bool:
        """1.3 adopted the XPath-based subscription dialect."""
        return self is WsnVersion.V1_3

    @property
    def has_filter_element(self) -> bool:
        """1.3 wraps filters in a <Filter> element; 1.0/1.2 carry
        TopicExpression/Selector directly in Subscribe."""
        return self is WsnVersion.V1_3

    @property
    def requires_wsrf(self) -> bool:
        return self is not WsnVersion.V1_3

    @property
    def requires_topic(self) -> bool:
        return self is not WsnVersion.V1_3

    @property
    def defines_pause_resume(self) -> bool:
        return True  # defined in all versions...

    @property
    def requires_pause_resume(self) -> bool:
        return self is not WsnVersion.V1_3  # ...but mandatory only <= 1.2

    @property
    def defines_get_current_message(self) -> bool:
        return True

    @property
    def defines_wrapped_format(self) -> bool:
        return True  # the Notify/NotificationMessage structure

    @property
    def separates_producer_and_publisher(self) -> bool:
        return True

    @property
    def defines_pull_point_interface(self) -> bool:
        return self is WsnVersion.V1_3

    @property
    def pull_mode_in_subscription(self) -> bool:
        """A pull point must be created *before* subscribing and is then a
        plain push consumer from the producer's perspective (section V.3)."""
        return False

    @property
    def has_native_unsubscribe(self) -> bool:
        """1.3's 'renew' and 'Unsubscribe' operations made WSRF optional."""
        return self is WsnVersion.V1_3

    @property
    def requires_status_query(self) -> bool:
        """Table 1 row "Require Getstatus": mandatory while WSRF is
        mandatory (<= 1.2); optional once WSRF became optional (1.3)."""
        return self.requires_wsrf

    @property
    def requires_subscription_end(self) -> bool:
        """<=1.2: WSRF TerminationNotification is part of the required
        resource lifetime; 1.3 does not require an end notice."""
        return self is not WsnVersion.V1_3
