"""Durability differential engine: a crash-recovered broker is invisible.

The event-sourced store's contract (:mod:`repro.store`): rebuilding a broker
from its log is a *projection fixpoint* — the recovered state equals the
live state — and consumers cannot tell a crash happened apart from latency.
Each case is a short publish stream with a randomized crash point.  The
same stream is fed to an uninterrupted baseline broker and to a store-backed
broker that is killed after ``crash_at`` publishes and rebuilt from its log
(:func:`repro.store.recover_broker`).  Checked:

- the projection rebuilt from the log equals the projection snapshotted
  from the live broker the instant before the crash (replay fixpoint);
- every consumer sees the same notifications as the baseline, in the same
  order, payloads strictly byte-identical, topics preserved — no loss from
  the crash, no duplicates from the replay.

The restart reads the log back from a file, behind whatever partial last
line the case's optional ``torn_tail`` says the crash left on it.  A case
with ``sink_queue`` runs both brokers with that adaptive-QoS queue bound and
keeps every consumer dark until the crash point, so the crash lands on shed
and dead-lettered obligations instead of delivered ones.  A case with
``ward`` puts the WSE sink behind a firewall, so its notifications park in a
message box, and drains that box just before the crash: the box must come
back, empty, at the address the consumer holds.  With ``idle`` seconds
passing before the crash, the one-hour leases can lapse after the last publish.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from repro.conformance.differential import TOPICS, VERSIONS, front_door, gen_stream
from repro.conformance.differential import received, same_deliveries, valid_index
from repro.conformance.differential import valid_stream, valid_topic
from repro.conformance.gen import pick, spec_to_elem
from repro.delivery import DeliveryPolicy, drain_message_box_wse
from repro.messenger import WsMessenger
from repro.qos import AdaptiveQosPolicy
from repro.store import BrokerStore, FileEventLog, MemoryEventLog, recover_broker
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.transport.network import PUBLIC_ZONE
from repro.util.rng import SeededRng

_WARD = "conf-dur-ward"


class DurabilityEngine:
    name = "durability"

    def generate(self, rng: SeededRng) -> dict:
        stream = gen_stream(rng, most=5, topicless=True)
        return {
            "stream": stream,
            "watch_topic": pick(rng, TOPICS),
            "crash_at": rng.randrange(len(stream) + 1),
        }

    def _valid(self, case: object) -> bool:
        return (
            valid_stream(case, topicless=True)
            and valid_topic(case.get("watch_topic"))
            and valid_index(case.get("crash_at"), len(case["stream"]) + 1)
            and isinstance(queue := case.get("sink_queue", 1), int)
            and queue >= 1
            and isinstance(case.get("ward", False), bool)
            and isinstance(case.get("torn_tail", ""), str)
            and isinstance(idle := case.get("idle", 0), int) and idle >= 0
        )

    def check(self, case: object) -> Optional[str]:
        if not self._valid(case):
            return None
        stream, crash_at = case["stream"], case["crash_at"]
        sent = [(spec_to_elem(item["payload"]), item["topic"]) for item in stream]
        # a store implies a delivery pipeline, so the baseline gets the same
        # policy — the differential must isolate the crash, not the pipeline
        dark = "sink_queue" in case
        if dark:
            pipeline = {
                "delivery": DeliveryPolicy(max_attempts=3, base_backoff=5.0, jitter=0.0),
                "qos": AdaptiveQosPolicy(max_sink_queue=case["sink_queue"]),
            }
        else:
            pipeline = {"delivery": DeliveryPolicy()}
        # both networks have the firewalled zone; only a warded sink sits in it
        zone = _WARD if case.get("ward") else PUBLIC_ZONE

        def outage(address: str, request: bytes) -> None:
            if address.endswith(("-sink", "-consumer")):
                raise MessageLost(address)

        def publish(broker: WsMessenger, part: list) -> None:
            for payload, topic in part:
                broker.publish(payload.copy(), topic=topic)
            broker.run_deliveries_until_idle()

        def until_crash(address: str, **store):
            """A broker with the receiver pair at its front door, run through
            the publishes before the crash point (consumers dark if ``dark``)."""
            network = SimulatedNetwork(VirtualClock())
            network.add_zone(_WARD, blocks_inbound=True)
            broker = WsMessenger(network, address, **store, **pipeline, **VERSIONS)
            pair = front_door(network, broker, address, topic=case["watch_topic"], zone=zone)
            if dark:
                network.observers.append(outage)
            publish(broker, sent[:crash_at])
            network.observers.clear()
            network.clock.advance(case.get("idle", 0))
            return network, broker, pair

        # --- the uninterrupted baseline --------------------------------------
        _, baseline, base_pair = until_crash("http://conf-dur-base")
        publish(baseline, sent[crash_at:])

        # --- the crash-recovered broker --------------------------------------
        network, broker, pair = until_crash("http://conf-dur", store=BrokerStore(MemoryEventLog()))
        if zone != PUBLIC_ZONE:
            for box in broker.message_boxes.boxes():
                drain_message_box_wse(network, box.epr(), zone=zone)
        live = broker.store.projection(broker)
        broker.close()
        log = MemoryEventLog()
        with tempfile.TemporaryDirectory() as workdir:
            on_disk = FileEventLog(os.path.join(workdir, "broker.log"))
            on_disk.extend(broker.store.log.segment())
            on_disk.close()
            with on_disk.path.open("a", encoding="utf-8") as handle:
                handle.write(case.get("torn_tail", ""))
            log.extend(FileEventLog(on_disk.path).segment())
        broker = recover_broker(network, "http://conf-dur", log, **pipeline)
        broker.run_deliveries_until_idle()
        rebuilt = broker.store.projection(broker)
        if rebuilt != live:
            return (
                "projection fixpoint violated: live state before the crash"
                f" {live!r}, rebuilt from the log {rebuilt!r}"
            )
        publish(broker, sent[crash_at:])
        return same_deliveries(
            received(*base_pair),
            received(*pair),
            f"after a crash at publish {crash_at} of {len(stream)}",
        )
