"""Mesh differential engine: a 3-shard mesh must be invisible to consumers.

The mesh's contract is the mediation claim one level up: sharding, publish
forwarding and federation links are topology, not semantics.  Each case is
a short publish stream with randomized *entry nodes* (``via``, which shard
each publish enters at) and randomized *consumer homes* (which shard each
subscription registers at).  The same stream is fed to a 1-broker baseline
and to a 3-shard :class:`~repro.mesh.MeshCluster`; every consumer must see
the same notifications, in the same order, with payloads strictly identical
and topics preserved (:func:`~repro.conformance.differential.same_deliveries`)
— whatever path the mesh routed them over.  Each shard keeps an in-memory
event log; after the stream every shard is rebuilt from its own log, and
the consumers must have received nothing more: a publish forwarded to its
owner, or delivered before the restart, replays as nothing.
"""

from __future__ import annotations

from typing import Optional

from repro.conformance.differential import TOPICS, VERSIONS, front_door, gen_stream
from repro.conformance.differential import received, same_deliveries, valid_index
from repro.conformance.differential import valid_stream, valid_topic
from repro.conformance.gen import pick, spec_to_elem
from repro.mesh import MeshCluster
from repro.messenger import WsMessenger
from repro.store import BrokerStore, MemoryEventLog, recover_broker
from repro.transport import SimulatedNetwork, VirtualClock
from repro.util.rng import SeededRng
from repro.wse import EventSink
from repro.wsn import NotificationConsumer

_SHARDS = 3


class MeshEngine:
    name = "mesh"

    def generate(self, rng: SeededRng) -> dict:
        return {
            "stream": gen_stream(rng, most=5, topicless=True, shards=_SHARDS),
            "watch_topic": pick(rng, TOPICS),
            "wsn_home": rng.randrange(_SHARDS),
            "wse_home": rng.randrange(_SHARDS),
        }

    def _valid(self, case: object) -> bool:
        return (
            valid_stream(case, topicless=True, shards=_SHARDS)
            and valid_topic(case.get("watch_topic"))
            and valid_index(case.get("wsn_home"), _SHARDS)
            and valid_index(case.get("wse_home"), _SHARDS)
        )

    def check(self, case: object) -> Optional[str]:
        if not self._valid(case):
            return None
        stream = case["stream"]
        watch = case["watch_topic"]
        originals = [spec_to_elem(item["payload"]) for item in stream]

        base_net = SimulatedNetwork(VirtualClock())
        broker = WsMessenger(base_net, "http://conf-mesh-baseline", **VERSIONS)
        baseline = front_door(base_net, broker, "http://conf-base", topic=watch)
        for item, payload in zip(stream, originals):
            broker.publish(payload.copy(), topic=item["topic"])

        mesh_net = SimulatedNetwork(VirtualClock())
        mesh = MeshCluster(
            mesh_net, _SHARDS, base_address="http://conf-mesh",
            store_factory=lambda name: BrokerStore(MemoryEventLog()), **VERSIONS,
        )
        sink = EventSink(mesh_net, "http://conf-mesh-sink")
        mesh.subscribe_wse(sink.address, home=case["wse_home"])
        consumer = NotificationConsumer(mesh_net, "http://conf-mesh-consumer")
        mesh.subscribe_wsn(consumer.address, topic=watch, home=case["wsn_home"])
        for item, payload in zip(stream, originals):
            mesh.publish(payload.copy(), topic=item["topic"], via=item["via"])
        mesh.quiesce()
        delivered = received(sink, consumer)
        failure = same_deliveries(received(*baseline), delivered, "through the mesh")
        if failure is not None:
            return failure

        # every shard restarts from its own log: what was delivered replays as nothing
        logs = [(node.address, node.broker.store.log) for node in mesh]
        mesh.close()
        for address, log in logs:
            recover_broker(mesh_net, address, log, **VERSIONS).run_deliveries_until_idle()
        return same_deliveries(delivered, received(sink, consumer), "after every shard's replay")
