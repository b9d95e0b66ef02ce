"""Tests for WSDL generation: version-faithful service descriptions."""

import pytest

from repro.wsdl import (
    wsdl_for_converged_source,
    wsdl_for_wse_source,
    wsdl_for_wsn_producer,
)
from repro.wsdl.generator import WSDL_NS, WSDL_SOAP_NS
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.names import QName


class TestWseWsdl:
    def test_08_has_three_port_types(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_08)
        names = [pt.name for pt in definition.port_types]
        assert names == ["EventSource", "SubscriptionManager", "EventSink"]

    def test_01_manager_merged_into_source(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_01)
        names = [pt.name for pt in definition.port_types]
        assert "SubscriptionManager" not in names
        source_ops = definition.port_type("EventSource").operation_names()
        assert {"Subscribe", "Renew", "Unsubscribe"} <= set(source_ops)

    def test_01_has_no_get_status_or_pull(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_01)
        all_ops = {op.name for op in definition.all_operations()}
        assert "GetStatus" not in all_ops
        assert "Pull" not in all_ops

    def test_08_manager_operations(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_08)
        ops = definition.port_type("SubscriptionManager").operation_names()
        assert ops == ["Renew", "GetStatus", "Unsubscribe", "Pull"]

    def test_subscription_end_is_one_way(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_08)
        end = definition.port_type("EventSink").operations[0]
        assert end.one_way

    def test_target_namespace_per_version(self):
        for version in WseVersion:
            assert wsdl_for_wse_source(version).target_namespace == version.namespace


class TestWsnWsdl:
    def test_13_native_plus_wsrf_operations(self):
        definition = wsdl_for_wsn_producer(WsnVersion.V1_3)
        ops = set(definition.port_type("SubscriptionManager").operation_names())
        assert {"Renew", "Unsubscribe", "PauseSubscription", "ResumeSubscription"} <= ops
        assert {"GetResourceProperty", "SetTerminationTime", "Destroy"} <= ops

    def test_13_without_wsrf(self):
        definition = wsdl_for_wsn_producer(WsnVersion.V1_3, include_wsrf=False)
        ops = set(definition.port_type("SubscriptionManager").operation_names())
        assert "GetResourceProperty" not in ops
        assert "Renew" in ops

    def test_10_wsrf_only_lifetime(self):
        definition = wsdl_for_wsn_producer(WsnVersion.V1_0)
        ops = set(definition.port_type("SubscriptionManager").operation_names())
        assert "Renew" not in ops and "Unsubscribe" not in ops
        assert {"SetTerminationTime", "Destroy"} <= ops  # mandatory WSRF

    def test_producer_operations(self):
        native = ["Subscribe", "GetCurrentMessage"]
        bare = wsdl_for_wsn_producer(WsnVersion.V1_3, include_wsrf=False)
        assert bare.port_type("NotificationProducer").operation_names() == native
        # with WSRF mounted the producer is itself a WS-Resource: it serves
        # GetResourceProperty (TopicSet, ProducerProperties) on its own port
        definition = wsdl_for_wsn_producer(WsnVersion.V1_3)
        assert definition.port_type("NotificationProducer").operation_names() == [
            *native,
            "GetResourceProperty",
        ]

    def test_notify_is_one_way(self):
        definition = wsdl_for_wsn_producer(WsnVersion.V1_3)
        notify = definition.port_type("NotificationConsumer").operations[0]
        assert notify.one_way


class TestConvergedWsdl:
    def test_union_operations(self):
        definition = wsdl_for_converged_source()
        all_ops = {op.name for op in definition.all_operations()}
        # WSE contributions and WSN contributions side by side
        assert {"GetStatus", "Pull", "SubscriptionEnd"} <= all_ops
        assert {"PauseSubscription", "ResumeSubscription", "GetCurrentMessage"} <= all_ops


class TestRendering:
    def test_document_is_well_formed_and_complete(self):
        definition = wsdl_for_wse_source(
            WseVersion.V2004_08, address="http://source.example"
        )
        document = parse_xml(definition.to_xml())
        assert document.name == QName(WSDL_NS, "definitions")
        port_types = document.find_all(QName(WSDL_NS, "portType"))
        assert len(port_types) == 3
        messages = document.find_all(QName(WSDL_NS, "message"))
        # every operation has an In message; request/replies add Out messages
        assert len(messages) == sum(
            1 + (0 if op.one_way else 1) for op in definition.all_operations()
        )

    def test_binding_and_service_present_with_address(self):
        """A port says where it is served: the manager port at the manager's
        address, and the consumer port type — which the producer does not
        serve — keeps its portType and binding but gets no port."""
        definition = wsdl_for_wsn_producer(
            WsnVersion.V1_3, address="http://producer.example"
        )
        document = parse_xml(definition.to_xml())
        bindings = document.find_all(QName(WSDL_NS, "binding"))
        assert len(bindings) == len(document.find_all(QName(WSDL_NS, "portType"))) == 3
        service = document.find(QName(WSDL_NS, "service"))
        addresses = {
            port.attrs[QName("", "name")]: port.find(QName(WSDL_SOAP_NS, "address")).attrs[
                QName("", "location")
            ]
            for port in service.find_all(QName(WSDL_NS, "port"))
        }
        assert addresses == {
            "NotificationProducerPort": "http://producer.example",
            "SubscriptionManagerPort": "http://producer.example/subscriptions",
        }

    def test_no_service_without_address(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_08)
        document = parse_xml(definition.to_xml())
        assert document.find(QName(WSDL_NS, "service")) is None

    def test_wsa_actions_annotated(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_08)
        document = parse_xml(definition.to_xml())
        from repro.xmlkit.names import Namespaces

        inputs = [
            elem
            for elem in document.descendants()
            if elem.name == QName(WSDL_NS, "input")
        ]
        action_attr = QName(Namespaces.WSA_2005_08, "Action")
        assert all(action_attr in elem.attrs for elem in inputs)

    def test_operation_lookup(self):
        definition = wsdl_for_wse_source(WseVersion.V2004_08)
        with pytest.raises(KeyError):
            definition.port_type("Nope")


class TestServiceSelfDescription:
    def test_live_services_describe_themselves(self):
        from repro.convergence import ConvergedSource
        from repro.transport import SimulatedNetwork, VirtualClock
        from repro.wse import EventSource
        from repro.wsn import NotificationProducer

        network = SimulatedNetwork(VirtualClock())
        source = EventSource(network, "http://wsdl-src")
        producer = NotificationProducer(network, "http://wsdl-prod")
        converged = ConvergedSource(network, "http://wsdl-conv")
        for service in (source, producer, converged):
            document = parse_xml(service.wsdl())
            assert document.name == QName(WSDL_NS, "definitions")
            assert service.address in service.wsdl()

    def test_wsrf_disabled_producer_wsdl_has_no_wsrf_ops(self):
        from repro.transport import SimulatedNetwork, VirtualClock
        from repro.wsn import NotificationProducer

        network = SimulatedNetwork(VirtualClock())
        producer = NotificationProducer(
            network, "http://wsdl-nowsrf", version=WsnVersion.V1_3, enable_wsrf=False
        )
        assert "GetResourceProperty" not in producer.wsdl()
