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
back, empty, at the address the consumer holds.
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

from repro.conformance.gen import (
    gen_tree_spec,
    pick,
    spec_to_elem,
    strict_diff,
    valid_tree_spec,
)
from repro.util.rng import SeededRng

_TOPIC_POOL = ("alpha", "beta", "gamma", "delta")


class DurabilityEngine:
    name = "durability"

    def generate(self, rng: SeededRng) -> dict:
        stream = []
        for _ in range(1 + rng.randrange(5)):
            topic = None if rng.randrange(6) == 0 else pick(rng, _TOPIC_POOL)
            stream.append(
                {"topic": topic, "payload": gen_tree_spec(rng, max_depth=2)}
            )
        return {
            "stream": stream,
            "watch_topic": pick(rng, _TOPIC_POOL),
            "crash_at": rng.randrange(len(stream) + 1),
        }

    def _valid(self, case: object) -> bool:
        if not isinstance(case, dict):
            return False
        stream = case.get("stream")
        if not isinstance(stream, list) or not stream:
            return False
        for item in stream:
            if not isinstance(item, dict):
                return False
            topic = item.get("topic")
            if topic is not None and not (isinstance(topic, str) and topic.isalnum()):
                return False
            if not valid_tree_spec(item.get("payload")):
                return False
        watch = case.get("watch_topic")
        if not isinstance(watch, str) or not watch.isalnum():
            return False
        crash_at = case.get("crash_at")
        if not isinstance(crash_at, int) or not 0 <= crash_at <= len(stream):
            return False
        sink_queue = case.get("sink_queue", 1)
        if not isinstance(sink_queue, int) or sink_queue < 1:
            return False
        if not isinstance(case.get("ward", False), bool):
            return False
        return isinstance(case.get("torn_tail", ""), str)

    def check(self, case: object) -> Optional[str]:
        if not self._valid(case):
            return None
        from repro.delivery import DeliveryPolicy, drain_message_box_wse
        from repro.messenger import WsMessenger
        from repro.qos import AdaptiveQosPolicy
        from repro.store import BrokerStore, FileEventLog, MemoryEventLog
        from repro.store import recover_broker
        from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
        from repro.wse import EventSink, WseSubscriber
        from repro.wse.versions import WseVersion
        from repro.wsn import NotificationConsumer, WsnSubscriber
        from repro.wsn.versions import WsnVersion

        stream = case["stream"]
        watch = case["watch_topic"]
        crash_at = case["crash_at"]
        originals = [spec_to_elem(item["payload"]) for item in stream]
        versions = dict(
            wse_versions=[WseVersion.V2004_08], wsn_versions=[WsnVersion.V1_3]
        )
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
        ward = {"zone": "conf-dur-ward"} if case.get("ward") else {}

        def outage(address: str, request: bytes) -> None:
            if address.endswith(("-sink", "-consumer")):
                raise MessageLost(address)

        # --- the uninterrupted baseline --------------------------------------
        base_net = SimulatedNetwork(VirtualClock())
        base_net.add_zone("conf-dur-ward", blocks_inbound=True)
        baseline = WsMessenger(base_net, "http://conf-dur-base", **pipeline, **versions)
        base_sink = EventSink(base_net, "http://conf-dur-base-sink", **ward)
        WseSubscriber(base_net, **ward).subscribe(baseline.epr(), notify_to=base_sink.epr())
        base_consumer = NotificationConsumer(base_net, "http://conf-dur-base-consumer")
        WsnSubscriber(base_net).subscribe(
            baseline.epr(), base_consumer.epr(), topic=watch
        )
        if dark:
            base_net.observers.append(outage)
        for item, payload in zip(stream[:crash_at], originals[:crash_at]):
            baseline.publish(payload.copy(), topic=item["topic"])
        baseline.run_deliveries_until_idle()
        base_net.observers.clear()
        for item, payload in zip(stream[crash_at:], originals[crash_at:]):
            baseline.publish(payload.copy(), topic=item["topic"])
        baseline.run_deliveries_until_idle()

        # --- the crash-recovered broker --------------------------------------
        dur_net = SimulatedNetwork(VirtualClock())
        dur_net.add_zone("conf-dur-ward", blocks_inbound=True)
        broker = WsMessenger(
            dur_net,
            "http://conf-dur",
            store=BrokerStore(MemoryEventLog()),
            **pipeline,
            **versions,
        )
        dur_sink = EventSink(dur_net, "http://conf-dur-sink", **ward)
        WseSubscriber(dur_net, **ward).subscribe(broker.epr(), notify_to=dur_sink.epr())
        dur_consumer = NotificationConsumer(dur_net, "http://conf-dur-consumer")
        WsnSubscriber(dur_net).subscribe(broker.epr(), dur_consumer.epr(), topic=watch)
        if dark:
            dur_net.observers.append(outage)
        for item, payload in zip(stream[:crash_at], originals[:crash_at]):
            broker.publish(payload.copy(), topic=item["topic"])
        broker.run_deliveries_until_idle()
        dur_net.observers.clear()
        if ward:
            for box in broker.message_boxes.boxes():
                drain_message_box_wse(dur_net, box.epr(), **ward)
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
        broker = recover_broker(dur_net, "http://conf-dur", log, **pipeline)
        broker.run_deliveries_until_idle()
        rebuilt = broker.store.projection(broker)
        if rebuilt != live:
            return (
                "projection fixpoint violated: live state before the crash"
                f" {live!r}, rebuilt from the log {rebuilt!r}"
            )
        for item, payload in zip(stream[crash_at:], originals[crash_at:]):
            broker.publish(payload.copy(), topic=item["topic"])
        broker.run_deliveries_until_idle()

        # --- the differential ------------------------------------------------
        if len(dur_sink.received) != len(base_sink.received):
            return (
                f"WSE path: recovered broker delivered {len(dur_sink.received)},"
                f" baseline {len(base_sink.received)}"
                f" (crash after {crash_at} of {len(stream)} publishes)"
            )
        if len(dur_consumer.received) != len(base_consumer.received):
            return (
                f"WSN path: recovered broker delivered"
                f" {len(dur_consumer.received)},"
                f" baseline {len(base_consumer.received)}"
                f" (crash after {crash_at} of {len(stream)} publishes)"
            )
        for index, (base_item, dur_item) in enumerate(
            zip(base_sink.received, dur_sink.received)
        ):
            diff = strict_diff(base_item.payload, dur_item.payload)
            if diff is not None:
                return f"WSE delivery {index}: payload differs at {diff}"
        for index, (base_item, dur_item) in enumerate(
            zip(base_consumer.received, dur_consumer.received)
        ):
            diff = strict_diff(base_item.payload, dur_item.payload)
            if diff is not None:
                return f"WSN delivery {index}: payload differs at {diff}"
            if base_item.topic != dur_item.topic:
                return (
                    f"WSN delivery {index}: topic {base_item.topic!r} arrived"
                    f" as {dur_item.topic!r} after recovery"
                )
        return None
