"""The wrapped-batch window, one trigger for every family with wrapped delivery.

A wrapped subscription's parked queue is held for a batch: its first item
arms a ``BatchingPolicy.window`` deadline on the service's clock scheduler,
a full batch (``max_batch``) leaves at once, and a deadline that finds its
queue already flushed — or paused — does nothing.  The same trigger serves
WS-Eventing 08/2004 and the converged prototype.
"""

import pytest

from repro.convergence import MODE_WRAP, ConvergedConsumer, ConvergedSource, ConvergedSubscriber
from repro.delivery import BatchingPolicy
from repro.transport import SimulatedNetwork, VirtualClock
from repro.wse import DeliveryMode, EventSink, EventSource, WseSubscriber, WseVersion
from repro.xmlkit import parse_xml


def event(n):
    return parse_xml(f'<ev:E xmlns:ev="urn:window"><ev:n>{n}</ev:n></ev:E>')


class Rig:
    """One source with one wrapped subscriber, whichever family."""

    def __init__(self, family: str, policy: BatchingPolicy) -> None:
        self.network = network = SimulatedNetwork(VirtualClock())
        if family == "wse":
            self.source = EventSource(
                network, "http://w-source", version=WseVersion.V2004_08, batching=policy
            )
            self.consumer = EventSink(network, "http://w-sink")
            self.client = WseSubscriber(network)
            self.handle = self.client.subscribe(
                self.source.epr(), notify_to=self.consumer.epr(), mode=DeliveryMode.WRAPPED
            )
        else:
            self.source = ConvergedSource(network, "http://w-conv", batching=policy)
            self.consumer = ConvergedConsumer(network, "http://w-conv-sink")
            self.client = ConvergedSubscriber(network)
            self.handle = self.client.subscribe(
                self.source.epr(), consumer=self.consumer.epr(), mode=MODE_WRAP
            )
        self.sent = network.stats.requests

    def requests(self) -> int:
        """Wire requests since the last call."""
        now = self.network.stats.requests
        taken, self.sent = now - self.sent, now
        return taken

    def pump(self) -> int:
        return self.source.scheduler.run_due()

    def advance(self, seconds: float) -> None:
        self.network.clock.advance(seconds)


@pytest.fixture(params=["wse", "converged"])
def family(request):
    return request.param


def test_a_partial_batch_leaves_at_its_deadline_as_one_request(family):
    rig = Rig(family, BatchingPolicy(window=2.0, max_batch=10))
    rig.source.publish(event(1))
    rig.source.publish(event(2))
    assert rig.requests() == 0 and rig.consumer.received == []
    assert rig.source.stale_deadlines() == 0
    rig.advance(3.0)
    assert rig.source.stale_deadlines() == 1
    assert rig.pump() == 1
    assert rig.requests() == 1
    assert [item.payload.full_text() for item in rig.consumer.received] == ["1", "2"]
    assert all(item.wrapped for item in rig.consumer.received)
    assert rig.source.stale_deadlines() == 0


def test_a_size_flush_leaves_the_timer_inert(family):
    rig = Rig(family, BatchingPolicy(window=2.0, max_batch=2))
    rig.source.publish(event(1))
    rig.source.publish(event(2))  # full: leaves now, before the deadline
    assert rig.requests() == 1 and len(rig.consumer.received) == 2
    rig.advance(1.0)
    rig.source.publish(event(3))  # a new first item: its own deadline, at 3.0
    rig.advance(1.5)  # past the first deadline, not the second
    assert rig.source.stale_deadlines() == 0
    assert rig.pump() == 1  # the first timer runs, and flushes nothing
    assert rig.requests() == 0 and len(rig.consumer.received) == 2
    rig.advance(1.0)
    assert rig.source.stale_deadlines() == 1
    rig.pump()
    assert rig.requests() == 1
    assert [item.payload.full_text() for item in rig.consumer.received] == ["1", "2", "3"]


def test_a_deadline_on_a_paused_queue_flushes_nothing_and_resume_delivers():
    rig = Rig("converged", BatchingPolicy(window=2.0, max_batch=10))
    rig.source.publish(event(1))  # arms the window
    rig.client.pause(rig.handle)
    rig.source.publish(event(2))
    rig.requests()
    rig.advance(3.0)
    assert rig.source.stale_deadlines() == 0
    assert rig.pump() == 1
    assert rig.requests() == 0 and rig.consumer.received == []
    assert rig.source.stale_deadlines() == 0
    rig.client.resume(rig.handle)
    assert rig.requests() == 2  # the Resume, then the backlog as one request
    assert [item.payload.full_text() for item in rig.consumer.received] == ["1", "2"]
    assert all(item.wrapped for item in rig.consumer.received)
