"""Small edge cases across packages: pull-point capacity, backbone lifecycle
errors, fault code coverage, the CLI report."""

import pytest

from repro.messenger import CorbaBackbone, InMemoryBackbone
from repro.soap.fault import FaultCode, SoapFault, SoapVersion
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wsn import NotificationProducer, PullPointClient, PullPointFactory, WsnSubscriber
from repro.xmlkit import parse_xml


class TestPullPointCapacity:
    def test_queue_bounded(self):
        network = SimulatedNetwork(VirtualClock())
        factory = PullPointFactory(network, "http://pp")
        client = PullPointClient(network)
        pull_point = client.create(factory.epr())
        # shrink the capacity of the created pull point
        backing = factory.pull_points[pull_point.address]
        backing.capacity = 3
        producer = NotificationProducer(network, "http://pp-prod")
        WsnSubscriber(network).subscribe(producer.epr(), pull_point, topic="t")
        for i in range(5):
            producer.publish(parse_xml(f"<e>{i}</e>"), topic="t")
        assert len(client.get_messages(pull_point)) == 3  # overflow dropped


class TestBackboneLifecycle:
    def test_publish_before_start_raises(self):
        backbone = InMemoryBackbone()
        with pytest.raises(RuntimeError):
            backbone.publish(parse_xml("<e/>"), None)

    def test_corba_backbone_before_start_raises(self):
        backbone = CorbaBackbone()
        with pytest.raises(RuntimeError):
            backbone.publish(parse_xml("<e/>"), None)


class TestFaultCodes:
    @pytest.mark.parametrize("code", list(FaultCode))
    def test_every_code_roundtrips_both_versions(self, code):
        for version in SoapVersion:
            fault = SoapFault(code, "x")
            element = fault.to_element(version)
            recovered = SoapFault.from_element(element, version)
            assert recovered.code is code


class TestCliReport:
    def test_main_returns_zero_on_clean_reproduction(self, capsys):
        from repro.__main__ import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "all 84 cells match the paper" in out
        assert "all 78 cells match the paper" in out
        assert "WS-EventNotification prototype" in out
