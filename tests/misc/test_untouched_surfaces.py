"""Public surfaces that stay although the main suites don't reach them.

Each one is kept for a reason of its own: the CORBA and JMS corners of the
baselines Table 3 compares, the query helpers tests use to observe product
state (``is_registered``), ``SoapClient.send_envelope`` (bound by the
end-to-end benchmark's wrap table) and the converged prototype's live
subscription count.  A product function that nothing but a test reaches is
deleted, not kept alive here.
"""

import pytest

from repro.baselines.corba.cdr import CdrDecoder, CdrEncoder
from repro.baselines.corba.events import StructuredEvent
from repro.baselines.corba.notification_service import NotificationChannel
from repro.baselines.corba.orb import Orb
from repro.baselines.jms.messages import TextMessage
from repro.baselines.jms.provider import JmsProvider
from repro.transport import SimulatedNetwork, SoapClient, SoapEndpoint, VirtualClock


class TestCorbaLeftovers:
    def test_generic_event_mapping(self):
        event = StructuredEvent.from_generic({"k": 1})
        assert event.type_name == "%ANY"
        assert event.payload == {"k": 1}

    def test_ushort_roundtrip(self):
        encoder = CdrEncoder().put_octet(1).put_ushort(65535)
        decoder = CdrDecoder(encoder.data())
        assert decoder.get_octet() == 1
        assert decoder.get_ushort() == 65535

    def test_structured_proxy_disconnects(self):
        channel = NotificationChannel(Orb())
        pull = channel.new_for_consumers().obtain_structured_pull_supplier()
        pull.disconnect_structured_pull_supplier()
        from repro.baselines.corba.orb import CorbaError

        with pytest.raises(CorbaError):
            pull.try_pull_structured_event()
        push_consumer = channel.new_for_suppliers().obtain_structured_push_consumer()
        push_consumer.disconnect_structured_push_consumer()
        with pytest.raises(CorbaError):
            push_consumer.push_structured_event(StructuredEvent())


class TestJmsLeftovers:
    def test_queue_purge_expired(self):
        provider = JmsProvider(VirtualClock())
        queue = provider.queue("q")
        fleeting = TextMessage(text="gone")
        fleeting.expiration = 10.0
        queue.put(fleeting)
        queue.put(TextMessage(text="stays"))
        provider.clock.advance(20.0)
        assert queue.purge_expired(provider.clock.now()) == 1
        assert queue.depth() == 1


class TestTransportLeftovers:
    def test_is_registered(self):
        network = SimulatedNetwork(VirtualClock())
        assert not network.is_registered("http://svc")
        SoapEndpoint(network, "http://svc")
        assert network.is_registered("http://svc")

    def test_send_envelope_roundtrip(self):
        from repro.soap import SoapEnvelope
        from repro.wsa.headers import MessageHeaders, apply_headers
        from repro.wsa.versions import WsaVersion
        from repro.xmlkit.element import text_element
        from repro.xmlkit.names import QName

        network = SimulatedNetwork(VirtualClock())
        endpoint = SoapEndpoint(network, "http://echo")
        endpoint.on_any(lambda envelope, headers: None)
        client = SoapClient(network)
        envelope = SoapEnvelope()
        apply_headers(
            envelope,
            MessageHeaders(to="http://echo", action="urn:x"),
            WsaVersion.V2005_08,
        )
        envelope.add_body(text_element(QName("urn:x", "E"), "payload"))
        assert client.send_envelope("http://echo", envelope) is None  # 202


class TestMiscLeftovers:
    def test_converged_live_count(self):
        from repro.convergence import ConvergedConsumer, ConvergedSource, ConvergedSubscriber

        network = SimulatedNetwork(VirtualClock())
        source = ConvergedSource(network, "http://lc-src")
        consumer = ConvergedConsumer(network, "http://lc-cons")
        subscriber = ConvergedSubscriber(network)
        handle = subscriber.subscribe(source.epr(), consumer=consumer.epr())
        assert len(source.subscriptions) == 1
        subscriber.unsubscribe(handle)
        assert len(source.subscriptions) == 0
