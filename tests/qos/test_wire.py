"""QoS profiles on the wire: encoding, Subscribe threading, fault subcodes."""

import pytest

from repro.messenger import WsMessenger
from repro.qos import DiscardPolicy, OrderPolicy, QosError, QosProfile
from repro.qos.adaptive import AdaptiveQosPolicy
from repro.qos.wire import find_profile, profile_from_element, profile_to_element
from repro.soap.fault import FaultCode, SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import EventSink, EventSource, WseSubscriber
from repro.wsn import NotificationConsumer, NotificationProducer, WsnSubscriber
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.writer import serialize_xml
from repro.xmlkit.element import XElem
from repro.xmlkit.names import QName


class TestElementRoundtrip:
    def test_typed_properties_survive(self):
        profile = QosProfile(
            {
                "Priority": 9,
                "MaxEventsPerConsumer": 4,
                "PacingInterval": 0.5,
                "StartTimeSupported": False,
                "OrderPolicy": OrderPolicy.PRIORITY_ORDER,
                "DiscardPolicy": DiscardPolicy.LIFO_ORDER,
                "EventReliability": "Persistent",
            }
        )
        decoded = profile_from_element(profile_to_element(profile))
        assert decoded.values == profile.values

    def test_serialized_form_is_stable(self):
        element = profile_to_element(QosProfile({"Priority": 1, "DiscardPolicy": DiscardPolicy.FIFO_ORDER}))
        reparsed = parse_xml(serialize_xml(element))
        assert profile_from_element(reparsed).values == {
            "Priority": 1,
            "DiscardPolicy": DiscardPolicy.FIFO_ORDER,
        }

    def test_unknown_property_name_is_rejected(self):
        element = profile_to_element(QosProfile({"Priority": 1}))
        element.elements().__next__().attrs[QName("", "Name")] = "Bogus"
        with pytest.raises(QosError):
            profile_from_element(element)

    def test_bad_value_is_rejected(self):
        profile = QosProfile({"Priority": 1})
        element = profile_to_element(profile)
        for prop in element.elements():
            prop.children[:] = ["not-an-int"]
        with pytest.raises(QosError):
            profile_from_element(element)

    def test_find_profile_absent_is_none(self):
        assert find_profile(XElem(QName("", "Subscribe"))) is None


def _network():
    return SimulatedNetwork(VirtualClock())


class TestWseSubscribeQos:
    def test_accepted_profile_lands_on_the_subscription(self):
        network = _network()
        source = EventSource(network, "http://source")
        sink = EventSink(network, "http://sink")
        WseSubscriber(network).subscribe(
            source.epr(),
            notify_to=sink.epr(),
            qos=QosProfile({"Priority": 3, "MaxEventsPerConsumer": 2}),
        )
        (subscription,) = source.subscriptions.records.values()
        assert subscription.qos is not None
        assert subscription.qos.get("Priority") == 3

    def test_unsupported_profile_faults_with_subcode(self):
        network = _network()
        source = EventSource(network, "http://source")
        sink = EventSink(network, "http://sink")
        with pytest.raises(SoapFault) as excinfo:
            WseSubscriber(network).subscribe(
                source.epr(),
                notify_to=sink.epr(),
                qos=QosProfile({"StartTime": 12.0}),
            )
        fault = excinfo.value
        assert fault.code is FaultCode.SENDER
        assert fault.subcode is not None and "UnsupportedQoS" in fault.subcode.local
        assert len(source.subscriptions) == 0


class TestWsnSubscribeQos:
    @pytest.mark.parametrize("version", [WsnVersion.V1_0, WsnVersion.V1_2, WsnVersion.V1_3])
    def test_accepted_profile_lands_on_the_subscription(self, version):
        network = _network()
        producer = NotificationProducer(network, "http://producer", version=version)
        consumer = NotificationConsumer(network, "http://consumer", version=version)
        WsnSubscriber(network, version=version).subscribe(
            producer.epr(),
            consumer.epr(),
            topic="qos",
            qos=QosProfile({"Priority": 5}),
        )
        (subscription,) = producer.subscriptions.records.values()
        assert subscription.qos is not None
        assert subscription.qos.get("Priority") == 5

    def test_unsupported_profile_faults_with_policy_subcode(self):
        network = _network()
        producer = NotificationProducer(network, "http://producer")
        consumer = NotificationConsumer(network, "http://consumer")
        with pytest.raises(SoapFault) as excinfo:
            WsnSubscriber(network).subscribe(
                producer.epr(),
                consumer.epr(),
                topic="qos",
                qos=QosProfile({"StopTimeSupported": True}),
            )
        fault = excinfo.value
        assert fault.code is FaultCode.SENDER
        assert (
            fault.subcode is not None
            and "UnsupportedPolicyRequestFault" in fault.subcode.local
        )
        assert len(producer.subscriptions) == 0

    def test_13_profile_rides_subscription_policy_with_use_raw(self):
        # the profile and UseRaw share the SubscriptionPolicy wrapper
        network = _network()
        producer = NotificationProducer(network, "http://producer")
        consumer = NotificationConsumer(network, "http://consumer")
        WsnSubscriber(network).subscribe(
            producer.epr(),
            consumer.epr(),
            topic="qos",
            use_raw=True,
            qos=QosProfile({"Priority": 2}),
        )
        (subscription,) = producer.subscriptions.records.values()
        assert subscription.use_raw
        assert subscription.qos is not None and subscription.qos.get("Priority") == 2


#: understood on the wire (Table 3: all 13 CORBA properties are), but this
#: broker implements neither — granting them would be a silent downgrade
DECLARED_NOT_HONOURED = [
    {"DiscardPolicy": DiscardPolicy.DEADLINE_ORDER},
    {"PacingInterval": 0.5},
]


class TestDeclaredButUnimplementedKnobsFault:
    """Was: accepted, then DeadlineOrder shed as FIFO and PacingInterval ignored."""

    @pytest.mark.parametrize("with_controller", [False, True], ids=["bare", "controller"])
    @pytest.mark.parametrize("values", DECLARED_NOT_HONOURED, ids=["deadline", "pacing"])
    def test_both_families_fault_the_subscribe(self, values, with_controller):
        network = _network()
        broker = WsMessenger(
            network, "http://broker", qos=AdaptiveQosPolicy() if with_controller else None
        )
        assert (broker.qos is not None) == with_controller
        sink = EventSink(network, "http://sink")
        consumer = NotificationConsumer(network, "http://consumer")
        with pytest.raises(SoapFault) as wse:
            WseSubscriber(network).subscribe(
                broker.epr(), notify_to=sink.epr(), qos=QosProfile(dict(values))
            )
        with pytest.raises(SoapFault) as wsn:
            WsnSubscriber(network).subscribe(
                broker.epr(), consumer.epr(), topic="qos", qos=QosProfile(dict(values))
            )
        assert wse.value.subcode.local == "UnsupportedQoS"
        assert wsn.value.subcode.local == "UnsupportedPolicyRequestFault"
        assert broker.subscription_count() == 0
        if with_controller:
            assert broker.qos.profile_rejections == 2

    def test_the_codec_still_understands_them_and_any_order_is_granted(self):
        for values in DECLARED_NOT_HONOURED:
            profile = QosProfile(dict(values))
            assert profile_from_element(profile_to_element(profile)).values == values
        network = _network()
        source = EventSource(network, "http://source")
        WseSubscriber(network).subscribe(
            source.epr(),
            notify_to=EventSink(network, "http://sink").epr(),
            qos=QosProfile({"DiscardPolicy": DiscardPolicy.ANY_ORDER, "PacingInterval": 0.0}),
        )
        assert len(source.subscriptions) == 1
