"""Table 3's "Management operations" row for the two WS columns, verified
by introspection: every operation the row lists must be an action the
implementation answers.  The four baseline columns' cells run their
operations live in ``repro.comparison.table3``."""

from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse.source import EventSource
from repro.wse.versions import WseVersion
from repro.wsn.producer import NotificationProducer
from repro.wsn.versions import WsnVersion
from repro.wsn import messages as wsn_messages


class TestWseOps:
    def test_wse_08_actions_registered(self):
        network = SimulatedNetwork(VirtualClock())
        version = WseVersion.V2004_08
        source = EventSource(network, "http://ops-wse", version=version)
        assert version.action("Subscribe") in source.endpoint._handlers
        manager_ops = source.manager_endpoint._handlers
        for op in ("Renew", "GetStatus", "Unsubscribe"):
            assert version.action(op) in manager_ops, op

    def test_wse_01_has_no_get_status(self):
        network = SimulatedNetwork(VirtualClock())
        version = WseVersion.V2004_01
        source = EventSource(network, "http://ops-wse01", version=version)
        assert version.action("GetStatus") not in source.manager_endpoint._handlers


class TestWsnOps:
    def test_wsn_13_actions_registered(self):
        network = SimulatedNetwork(VirtualClock())
        version = WsnVersion.V1_3
        producer = NotificationProducer(network, "http://ops-wsn", version=version)
        assert version.action("Subscribe") in producer.endpoint._handlers
        assert version.action("GetCurrentMessage") in producer.endpoint._handlers
        manager_ops = producer.manager_endpoint._handlers
        for op in ("Renew", "Unsubscribe", "PauseSubscription", "ResumeSubscription"):
            assert version.action(op) in manager_ops, op
        # WSRF port (optional, mounted by default)
        assert wsn_messages.wsrf_action("GetResourceProperty") in manager_ops
        assert wsn_messages.wsrf_lifetime_action("SetTerminationTime") in manager_ops
        assert wsn_messages.wsrf_lifetime_action("Destroy") in manager_ops

    def test_wsn_10_has_no_native_renew(self):
        network = SimulatedNetwork(VirtualClock())
        version = WsnVersion.V1_0
        producer = NotificationProducer(network, "http://ops-wsn10", version=version)
        manager_ops = producer.manager_endpoint._handlers
        assert version.action("Renew") not in manager_ops
        assert version.action("Unsubscribe") not in manager_ops
        # lifetime management is WSRF-only, as the paper's Table 3 lists
        assert wsn_messages.wsrf_lifetime_action("Destroy") in manager_ops
