"""Public surfaces that stay although the main suites don't reach them.

Each one is kept for a reason of its own: the query helpers tests use to
observe product state (``is_registered``), ``SoapClient.send_envelope``
(bound by the end-to-end benchmark's wrap table) and the converged
prototype's live subscription count.  A product function that nothing but a test reaches is
deleted, not kept alive here.
"""

from repro.transport import SimulatedNetwork, SoapClient, SoapEndpoint, VirtualClock


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
