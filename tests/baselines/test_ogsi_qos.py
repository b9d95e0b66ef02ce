"""Tests for the OGSI notification baseline and the QoS property models."""

import pytest

from repro.baselines.ogsi import GridService, NotificationSink, NotificationSource, OgsiError
from repro.baselines.ogsi.grid_service import _action, _q
from repro.soap.fault import FaultCode, SoapFault
from repro.qos import CORBA_QOS_PROPERTIES, JMS_QOS_CRITERIA, QosError, QosProfile
from repro.transport import SimulatedNetwork, VirtualClock
from repro.transport.endpoint import SoapClient
from repro.util.xstime import format_datetime
from repro.wsa.versions import WsaVersion
from repro.xmlkit.element import XElem, text_element
from repro.xmlkit.names import QName

SDE_VALUE = QName("urn:grid", "jobStatus")


def value(text):
    return text_element(SDE_VALUE, text)


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def source(network):
    src = NotificationSource(network, "http://grid-service")
    src.declare_service_data("jobStatus", value("PENDING"))
    return src


class TestServiceData:
    def test_declare_and_set(self, source):
        source.set_service_data("jobStatus", value("RUNNING"))
        assert source.service_data["jobStatus"].value.text() == "RUNNING"

    def test_unknown_sde_rejected(self, source):
        with pytest.raises(OgsiError):
            source.set_service_data("nope", value("x"))

    def test_immutable_sde(self, network):
        service = GridService(network, "http://gs")
        service.declare_service_data("fixed", value("const"), mutability="constant")
        with pytest.raises(OgsiError):
            service.set_service_data("fixed", value("changed"))


class TestOgsiNotification:
    def test_change_pushes_to_sink(self, network, source):
        sink = NotificationSink(network, "http://sink")
        source.subscribe("jobStatus", sink.epr())
        assert source.set_service_data("jobStatus", value("RUNNING")) == 1
        name, payload = sink.received[0]
        assert name == "jobStatus"
        assert payload.text() == "RUNNING"

    def test_filter_is_service_data_name(self, network, source):
        source.declare_service_data("nodeCount", value("4"))
        sink = NotificationSink(network, "http://sink")
        source.subscribe("jobStatus", sink.epr())
        assert source.set_service_data("nodeCount", value("8")) == 0
        assert sink.received == []

    def test_soft_state_expiry(self, network, source):
        sink = NotificationSink(network, "http://sink")
        source.subscribe("jobStatus", sink.epr(), termination_time=60.0)
        network.clock.advance(120.0)
        assert source.set_service_data("jobStatus", value("DONE")) == 0

    def test_dead_sink_dropped(self, network, source):
        sink = NotificationSink(network, "http://sink")
        source.subscribe("jobStatus", sink.epr())
        sink.endpoint.close()
        assert source.set_service_data("jobStatus", value("RUNNING")) == 0
        NotificationSink(network, "http://sink")  # back, but no longer subscribed
        assert source.set_service_data("jobStatus", value("DONE")) == 0

    def test_multiple_sinks(self, network, source):
        sinks = [NotificationSink(network, f"http://sink{i}") for i in range(3)]
        for sink in sinks:
            source.subscribe("jobStatus", sink.epr())
        assert source.set_service_data("jobStatus", value("GO")) == 3


class TestGridServiceLifetime:
    def test_request_termination_after_extends(self, network):
        service = GridService(network, "http://gs")
        from repro.soap.envelope import SoapVersion
        from repro.transport.endpoint import SoapClient
        from repro.wsa.versions import WsaVersion
        from repro.baselines.ogsi.grid_service import _action, _q

        client = SoapClient(network, wsa_version=WsaVersion.V2003_03)
        client.call(
            service.epr(),
            _action("requestTerminationAfter"),
            [text_element(_q("after"), format_datetime(300.0))],
        )
        assert service.termination_time == 300.0
        # an earlier 'after' request does not shrink the lifetime
        client.call(
            service.epr(),
            _action("requestTerminationAfter"),
            [text_element(_q("after"), format_datetime(100.0))],
        )
        assert service.termination_time == 300.0

    def test_request_termination_before_shrinks(self, network):
        from repro.transport.endpoint import SoapClient
        from repro.wsa.versions import WsaVersion
        from repro.baselines.ogsi.grid_service import _action, _q

        service = GridService(network, "http://gs")
        service.termination_time = 300.0
        client = SoapClient(network, wsa_version=WsaVersion.V2003_03)
        client.call(
            service.epr(),
            _action("requestTerminationBefore"),
            [text_element(_q("before"), format_datetime(100.0))],
        )
        assert service.termination_time == 100.0

    def test_destroy(self, network):
        from repro.transport import AddressUnreachable
        from repro.transport.endpoint import SoapClient
        from repro.wsa.versions import WsaVersion
        from repro.baselines.ogsi.grid_service import _action, _q

        service = GridService(network, "http://gs")
        client = SoapClient(network, wsa_version=WsaVersion.V2003_03)
        client.call(service.epr(), _action("destroy"), [text_element(_q("destroy"), "")])
        assert service.destroyed
        with pytest.raises(AddressUnreachable):
            client.call(service.epr(), _action("destroy"), [text_element(_q("destroy"), "")])


def _ogsi_request(service, operation, body):
    client = SoapClient(service.network, wsa_version=WsaVersion.V2003_03)
    return client.call(service.epr(), _action(operation), [body])


class TestTerminationTimeIsHonoured:
    def test_a_service_past_its_termination_time_is_destroyed_when_next_reached(
        self, network, source
    ):
        from repro.transport import AddressUnreachable

        before = text_element(_q("before"), format_datetime(30.0))
        _ogsi_request(source, "requestTerminationBefore", before)
        network.clock.advance(20.0)
        find = text_element(_q("name"), "jobStatus")
        assert _ogsi_request(source, "findServiceData", find) is not None
        network.clock.advance(40.0)
        with pytest.raises(SoapFault, match="destroyed") as excinfo:
            _ogsi_request(source, "findServiceData", find)
        assert excinfo.value.code is FaultCode.SENDER
        assert source.destroyed
        with pytest.raises(AddressUnreachable):
            _ogsi_request(source, "findServiceData", find)

    def test_a_lapsed_source_notifies_no_sink(self, network, source):
        sink = NotificationSink(network, "http://sink")
        source.subscribe("jobStatus", sink.epr())
        after = text_element(_q("after"), format_datetime(30.0))
        _ogsi_request(source, "requestTerminationAfter", after)
        network.clock.advance(60.0)
        with pytest.raises(OgsiError, match="destroyed"):
            source.set_service_data("jobStatus", value("DONE"))
        assert source.destroyed and sink.received == []

    def test_a_destroyed_service_leaves_its_address_successor_registered(self, network, source):
        _ogsi_request(source, "destroy", XElem(_q("destroy")))
        successor = NotificationSource(network, source.address)
        with pytest.raises(OgsiError, match="destroyed"):
            source.set_service_data("jobStatus", value("DONE"))
        assert network.is_registered(successor.address)


class TestMalformedDateTime:
    """A requester's malformed ``xs:dateTime`` is answered with its fault,
    never raised as a ValueError out of the service."""

    @pytest.mark.parametrize("operation", ["requestTerminationAfter", "requestTerminationBefore"])
    def test_a_termination_request_with_a_malformed_time_is_a_sender_fault(
        self, source, operation
    ):
        with pytest.raises(SoapFault, match="invalid xs:dateTime") as excinfo:
            _ogsi_request(source, operation, text_element(_q("time"), "garbage"))
        assert excinfo.value.code is FaultCode.SENDER
        assert source.termination_time is None

    def test_a_subscribe_with_a_malformed_expiration_is_a_sender_fault(self, network, source):
        sink = NotificationSink(network, "http://sink")
        subscribe = XElem(_q("subscribe"))
        subscribe.append(text_element(_q("serviceDataName"), "jobStatus"))
        subscribe.append(sink.epr().to_element(WsaVersion.V2003_03, _q("sink")))
        subscribe.append(text_element(_q("expirationTime"), "soon"))
        with pytest.raises(SoapFault, match="invalid xs:dateTime") as excinfo:
            _ogsi_request(source, "subscribe", subscribe)
        assert excinfo.value.code is FaultCode.SENDER
        assert source.set_service_data("jobStatus", value("RUNNING")) == 0


class TestQosModels:
    def test_thirteen_corba_properties(self):
        assert len(CORBA_QOS_PROPERTIES) == 13

    def test_jms_criteria(self):
        assert set(JMS_QOS_CRITERIA) == {
            "Priority",
            "Persistence",
            "Durability",
            "Transaction",
            "MessageOrder",
        }

    def test_defaults(self):
        profile = QosProfile()
        assert profile.get("Priority") == 0
        assert profile.get("EventReliability") == "BestEffort"

    def test_unknown_property_rejected(self):
        with pytest.raises(QosError):
            QosProfile({"Shininess": 11})

    def test_extensions_allowed_when_opted_in(self):
        profile = QosProfile({"Shininess": 11}, allow_extensions=True)
        assert profile.get("Shininess") == 11

    def test_value_validation(self):
        with pytest.raises(QosError):
            QosProfile({"Priority": "high"})
        with pytest.raises(QosError):
            QosProfile({"MaximumBatchSize": 0})
        with pytest.raises(QosError):
            QosProfile({"EventReliability": "Sorta"})

    def test_merged_with(self):
        base = QosProfile({"Priority": 1})
        merged = base.merged_with({"Priority": 5})
        assert merged.get("Priority") == 5
        assert base.get("Priority") == 1
