"""Tests for the WS-EventNotification prototype (experiment E9)."""

import pytest

from repro.convergence import (
    MODE_PULL,
    MODE_WRAP,
    ConvergedConsumer,
    ConvergedProfile,
    ConvergedSource,
    ConvergedSubscriber,
    converged_table_column,
)
from repro.delivery import BatchingPolicy
from repro.soap import SoapFault
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse.versions import WseVersion
from repro.wsn.versions import WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.names import Namespaces

NS = {"ev": "urn:conv"}


def event(n=1):
    return parse_xml(f'<ev:E xmlns:ev="urn:conv"><ev:n>{n}</ev:n></ev:E>')


@pytest.fixture
def network():
    return SimulatedNetwork(VirtualClock())


@pytest.fixture
def stack(network):
    source = ConvergedSource(network, "http://converged")
    consumer = ConvergedConsumer(network, "http://converged-consumer")
    subscriber = ConvergedSubscriber(network)
    return source, consumer, subscriber


class TestProfile:
    def test_dominates_both_parents(self):
        assert ConvergedProfile().dominates_parents()

    def test_union_capabilities(self):
        column = converged_table_column()
        # capabilities from WSE only
        assert column["Specify pull delivery mode in subscription"]
        # capabilities from WSN only
        assert column["GetCurrentMessage operation"]
        assert column["Define PullPoint interface"]
        assert column["Define Wrapped message format"]
        # capabilities from both
        assert column["Support Pull delivery mode"]
        assert column["Specify subscription expiration using duration"]

    def test_intersection_obligations(self):
        column = converged_table_column()
        assert not column["Require WSRF"]
        assert not column["Require a topic in subscription"]
        assert not column["Require SubscriptionEnd"]

    def test_every_parent_capability_retained(self):
        profile = ConvergedProfile()
        from repro.convergence.profile import _CAPABILITY_FLAGS

        for flag, _label in _CAPABILITY_FLAGS:
            for parent in (WseVersion.V2004_08, WsnVersion.V1_3):
                if getattr(parent, flag, False):
                    assert profile.capability(flag), flag


class TestConvergedLifecycle:
    def test_push_with_topic_and_content_filter(self, stack):
        source, consumer, subscriber = stack
        subscriber.subscribe(
            source.epr(),
            consumer=consumer.epr(),
            topic="jobs//.",
            topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
            message_content="/ev:E[ev:n > 5]",
            namespaces=NS,
        )
        assert source.publish(event(3), topic="jobs/a") == 0
        assert source.publish(event(9), topic="jobs/a") == 1
        assert source.publish(event(9), topic="other") == 0
        first = consumer.received[0]
        assert first.topic == "jobs/a" and first.wrapped  # wrapped is the default
        assert "9" in first.payload.full_text()

    def test_raw_mode_topic_rides_header(self, stack):
        source, consumer, subscriber = stack
        subscriber.subscribe(
            source.epr(), consumer=consumer.epr(), topic="t", use_raw=True
        )
        source.publish(event(), topic="t")
        first = consumer.received[0]
        assert first.topic == "t" and not first.wrapped

    def test_pull_mode_in_subscription(self, stack):
        """WSE's contribution: pull selected in the Subscribe message."""
        source, consumer, subscriber = stack
        handle = subscriber.subscribe(source.epr(), mode=MODE_PULL, topic="t")
        source.publish(event(1), topic="t")
        source.publish(event(2), topic="t")
        pulled = subscriber.pull(handle)
        assert len(pulled) == 2
        assert pulled[0][1] == "t"  # topic preserved in the defined format
        assert subscriber.pull(handle) == []

    def test_pull_through_firewall(self, network):
        network.add_zone("lan", blocks_inbound=True)
        source = ConvergedSource(network, "http://conv-src")
        subscriber = ConvergedSubscriber(network, zone="lan")
        handle = subscriber.subscribe(source.epr(), mode=MODE_PULL)
        source.publish(event())
        assert len(subscriber.pull(handle)) == 1

    def test_wrapped_mode_with_defined_format(self, stack, network):
        _, consumer, subscriber = stack
        source = ConvergedSource(
            network, "http://converged-wrapped", batching=BatchingPolicy(max_batch=2)
        )
        subscriber.subscribe(
            source.epr(), consumer=consumer.epr(), mode=MODE_WRAP, topic="t"
        )
        source.publish(event(1), topic="t")
        assert consumer.received == []
        source.publish(event(2), topic="t")
        assert len(consumer.received) == 2
        assert all(item.wrapped for item in consumer.received)
        assert all(item.topic == "t" for item in consumer.received)

    def test_get_status_and_renew(self, stack, network):
        """WSE's GetStatus plus duration renewal."""
        source, consumer, subscriber = stack
        handle = subscriber.subscribe(
            source.epr(), consumer=consumer.epr(), expires="PT60S"
        )
        assert subscriber.get_status(handle) == "Active"
        network.clock.advance(30.0)
        subscriber.renew(handle, "PT120S")
        network.clock.advance(100.0)
        assert source.publish(event()) == 1

    def test_pause_resume_and_status(self, stack):
        """WSN's Pause/Resume, visible through WSE's GetStatus."""
        source, consumer, subscriber = stack
        handle = subscriber.subscribe(source.epr(), consumer=consumer.epr())
        subscriber.pause(handle)
        assert subscriber.get_status(handle) == "Paused"
        source.publish(event())
        assert consumer.received == []
        subscriber.resume(handle)
        assert len(consumer.received) == 1

    def test_get_current_message(self, stack):
        source, consumer, subscriber = stack
        subscriber.subscribe(source.epr(), consumer=consumer.epr(), topic="t")
        source.publish(event(5), topic="t")
        current = subscriber.get_current_message(source.epr(), "t")
        assert "5" in current.full_text()
        with pytest.raises(SoapFault):
            subscriber.get_current_message(source.epr(), "silent")

    def test_unsubscribe(self, stack):
        source, consumer, subscriber = stack
        handle = subscriber.subscribe(source.epr(), consumer=consumer.epr())
        subscriber.unsubscribe(handle)
        assert source.publish(event()) == 0
        with pytest.raises(SoapFault):
            subscriber.get_status(handle)

    def test_subscription_end_on_delivery_failure(self, network):
        source = ConvergedSource(network, "http://conv-src")
        consumer = ConvergedConsumer(network, "http://conv-consumer")
        end_watcher = ConvergedConsumer(network, "http://conv-ends")
        subscriber = ConvergedSubscriber(network)
        subscriber.subscribe(
            source.epr(), consumer=consumer.epr(), end_to=end_watcher.epr()
        )
        consumer.close()
        source.publish(event())
        assert len(end_watcher.ends) == 1
        assert "DeliveryFailure" in end_watcher.ends[0]

    def test_topicless_subscription_allowed(self, stack):
        """No topic obligation (intersection of parents' requirements)."""
        source, consumer, subscriber = stack
        subscriber.subscribe(source.epr(), consumer=consumer.epr())
        assert source.publish(event()) == 1

    def test_push_requires_consumer(self, stack):
        source, _, subscriber = stack
        with pytest.raises(SoapFault):
            subscriber.subscribe(source.epr())

    def test_bad_filter_faults(self, stack):
        source, consumer, subscriber = stack
        with pytest.raises(SoapFault) as excinfo:
            subscriber.subscribe(
                source.epr(), consumer=consumer.epr(), message_content="///"
            )
        assert excinfo.value.subcode.local == "InvalidFilterFault"

    def test_expiry_sends_end_notice(self, stack, network):
        source, consumer, subscriber = stack
        end_watcher = ConvergedConsumer(network, "http://conv-ends-2")
        subscriber.subscribe(
            source.epr(),
            consumer=consumer.epr(),
            expires="PT10S",
            end_to=end_watcher.epr(),
        )
        network.clock.advance(20.0)
        assert source.publish(event()) == 0
        assert end_watcher.ends == ["SubscriptionExpired"]

    def test_producer_properties_filter(self, network):
        source = ConvergedSource(
            network, "http://conv-pp", producer_properties={"cluster": "A"}
        )
        consumer = ConvergedConsumer(network, "http://conv-pp-consumer")
        subscriber = ConvergedSubscriber(network)
        subscriber.subscribe(
            source.epr(), consumer=consumer.epr(), producer_properties="/*[cluster='A']"
        )
        assert source.publish(event()) == 1


class TestConvergedArchitectureTrace:
    def test_union_edges(self):
        from repro.comparison.figures import trace_converged_architecture

        trace = trace_converged_architecture()
        source_ops = trace.operations_between("Subscriber", "Event Source")
        assert {"Subscribe", "GetCurrentMessage"} <= set(source_ops)
        manager_ops = set(trace.operations_between("Subscriber", "Subscription Manager"))
        # WSE operations and WSN operations on one manager
        assert {"GetStatus", "Renew", "Unsubscribe", "Pull"} <= manager_ops
        assert {"PauseSubscription", "ResumeSubscription"} <= manager_ops
        assert trace.operations_between("Event Source", "Consumer") == ["Notify"]

    def test_render(self):
        from repro.comparison.figures import trace_converged_architecture

        text = trace_converged_architecture().render()
        assert "union of both families" in text
