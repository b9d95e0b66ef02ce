"""The WS-EventNotification prototype: one spec with both families' power.

The paper's conclusion reports a proposal to merge the two competing
specifications.  This example exercises the prototype built in
``repro.convergence``: a single Subscribe carries a WSN-style three-part
filter *and* a WSE-style in-message pull-mode selection; the same endpoint
answers GetStatus (WSE) and Pause/Resume + GetCurrentMessage (WSN).

Run:  python examples/converged_prototype.py
"""

from repro.convergence import (
    MODE_PULL,
    ConvergedConsumer,
    ConvergedProfile,
    ConvergedSource,
    ConvergedSubscriber,
)
from repro.transport import SimulatedNetwork, VirtualClock
from repro.xmlkit import parse_xml
from repro.xmlkit.names import Namespaces

EV = "urn:conv:events"


def event(job, progress):
    return parse_xml(
        f'<ev:S xmlns:ev="{EV}"><ev:job>{job}</ev:job>'
        f"<ev:progress>{progress}</ev:progress></ev:S>"
    )


def main(network=None) -> None:
    profile = ConvergedProfile()
    assert profile.dominates_parents()
    print("converged profile dominates WSE 08/2004 and WSN 1.3:", profile.dominates_parents())

    # an injected network lets obs-audit re-run this scenario instrumented
    if network is None:
        network = SimulatedNetwork(VirtualClock())
    network.add_zone("lan", blocks_inbound=True)
    source = ConvergedSource(network, "http://converged")
    subscriber = ConvergedSubscriber(network)

    # a push consumer with a topic wildcard AND a content filter in one Subscribe
    consumer = ConvergedConsumer(network, "http://dashboard")
    handle = subscriber.subscribe(
        source.epr(),
        consumer=consumer.epr(),
        topic="jobs//.",
        topic_dialect=Namespaces.DIALECT_TOPIC_FULL,
        message_content="/ev:S[ev:progress >= 50]",
        namespaces={"ev": EV},
        expires="PT1H",
    )

    # a pull consumer behind a firewall — mode chosen in the Subscribe message
    lan_subscriber = ConvergedSubscriber(network, zone="lan")
    pull_handle = lan_subscriber.subscribe(source.epr(), mode=MODE_PULL, topic="jobs//.",
                                           topic_dialect=Namespaces.DIALECT_TOPIC_FULL)

    source.publish(event("job-1", 30), topic="jobs/job-1")   # filtered out for push
    source.publish(event("job-1", 80), topic="jobs/job-1")   # delivered

    print("push consumer received:", len(consumer.received))
    print("  ", consumer.received[0].payload.full_text(), "on topic", consumer.received[0].topic)
    pulled = lan_subscriber.pull(pull_handle)
    print("firewalled pull consumer drained:", len(pulled), "messages")

    print("status (WSE-style GetStatus):", subscriber.get_status(handle))
    subscriber.pause(handle)                                   # WSN-style pause
    source.publish(event("job-1", 95), topic="jobs/job-1")
    print("while paused, received stays:", len(consumer.received))
    subscriber.resume(handle)
    print("after resume (backlog flushed):", len(consumer.received))
    current = subscriber.get_current_message(source.epr(), "jobs/job-1")
    print("GetCurrentMessage (WSN-style):", current.full_text())

    assert len(consumer.received) == 2
    assert len(pulled) == 2
    print("\nok: one specification, both families' capabilities")


if __name__ == "__main__":
    main()
