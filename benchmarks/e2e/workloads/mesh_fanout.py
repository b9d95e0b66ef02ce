"""``mesh_fanout``: the 4-shard federated mesh, the only place ``mesh`` works.

``MeshCluster(4)`` with one file log per shard; 32 topic roots with 6 WSN
1.3 consumers each.  A quarter of the subscribers sit on a node that does
not own their topic (the home node federates a link to the owner); half of
the publishes enter at a non-owner shard (one forward hop to the owner).
The mesh takes no QoS or batching policy, so those two stay off here.

Wall time is reported next to the virtual-clock parallel-shard model of the
old ``BENCH_mesh_fanout.json`` (``mesh.virtual_speedup_model``), which is a
model output, not a measurement.
"""

from __future__ import annotations

import os

from repro.mesh import MeshCluster
from repro.obs.audit import audit
from repro.store import BrokerStore, FileEventLog, recover_broker
from repro.wsn import WsnVersion

from .base import OracleError, Recorder, Recovery, Scenario, Totals, perf

SHARDS = 4
ROOTS = 32
CONSUMERS_PER_ROOT = 6
PUBLISHES_PER_SAMPLE = 8


class MeshFanout(Scenario):
    name = "mesh_fanout"
    nominal_block_seconds = 0.15
    extra_setups = 4
    recoveries_per_round = 2
    publishes_per_block = 64

    def build_stack(self) -> None:
        self.logs = []

        def store_for(node_name: str) -> BrokerStore:
            log = FileEventLog(os.path.join(self.workdir, f"{self.name}-{node_name}.log"))
            self.logs.append(log)
            return BrokerStore(log)

        self.node_kwargs = {
            "delivery": self.delivery_policy,
            "delivery_seed": self.seed,
            "wsn_versions": [WsnVersion.V1_3],
        }
        self.cluster = MeshCluster(
            self.network, SHARDS, base_address="http://e2e-mesh",
            store_factory=store_for, **self.node_kwargs,
        )
        #: virtual seconds each shard was busy as owner (the parallel model)
        self.busy = {node.name: 0.0 for node in self.cluster}
        self.owner_publishes = {node.name: 0 for node in self.cluster}
        #: (address, broker) per shard once the cluster has crashed
        self.shards = None

    def brokers(self) -> list:
        return [node.broker for node in self.cluster]

    def populate(self) -> None:
        names = [node.name for node in self.cluster]
        self.by_root: dict[int, list[int]] = {root: [] for root in range(ROOTS)}
        placements = []
        for root in range(ROOTS):
            # a quarter of the subscribers sit away from their topic's owner:
            # 1 of 6 on even roots, 2 of 6 on odd ones
            away = 1 + root % 2
            for slot in range(CONSUMERS_PER_ROOT):
                placements.append((root, slot < away))
        self.rng.shuffle(placements)
        for root, away in placements:
            index, consumer = self.add_consumer("wsn13")
            topic = self.topic(root)
            home = self.cluster.owner_node_of_topic(topic).name
            if away:
                home = self.rng.choice([n for n in names if n != home])
            self.timed_subscribe(
                lambda: self.cluster.subscribe_wsn(consumer.address, topic=topic, home=home)
            )
            self.by_root[root].append(index)

    @staticmethod
    def topic(root: int) -> str:
        return f"r{root:02d}/load"

    def prepare(self) -> None:
        names = [node.name for node in self.cluster]
        self.events = []
        for n in range(self.publishes_per_block):
            root = self.rng.randrange(ROOTS)
            topic = self.topic(root)
            payload, key = self.next_reading(self.rng.randrange(100), root)
            owner = self.cluster.owner_node_of_topic(topic).name
            via = owner
            if n % 2:  # every other publish enters at a non-owner shard
                via = self.rng.choice([name for name in names if name != owner])
            self.events.append((payload, topic, via, owner))
            for index in self.by_root[root]:
                self.expected[index].append(key)
        self.block_publishes = len(self.events)
        self.block_obligations = len(self.events) * CONSUMERS_PER_ROOT

    def publish(self, group) -> None:
        """One timed unit: a group of publishes, each quiesced mesh-wide."""
        cluster = self.cluster
        clock = self.network.clock
        busy = self.busy
        for payload, topic, via, owner in group:
            before = clock.now()
            cluster.publish(payload, topic=topic, via=via)
            cluster.quiesce()
            busy[owner] += clock.now() - before

    def run(self, recorder: Recorder) -> None:
        events = self.events
        for start in range(0, len(events), PUBLISHES_PER_SAMPLE):
            group = events[start:start + PUBLISHES_PER_SAMPLE]
            started = perf()
            self.publish(group)
            recorder.record(recorder.publish, perf() - started, len(group))
        for _, _, _, owner in events:
            self.owner_publishes[owner] += 1

    def settle(self, totals: Totals) -> None:
        super().settle(totals)
        busiest = max(self.busy.values())
        if busiest:
            totals.counters["mesh.virtual_speedup_model"] = sum(self.busy.values()) / busiest
        counts = list(self.owner_publishes.values())
        totals.counters["mesh.shard_skew"] = max(counts) / (sum(counts) / len(counts))

    def audit(self):
        return audit(
            self.instr, scenario=self.name,
            federation_sinks=self.cluster.federation_sinks(),
        )

    def crash_and_recover(self) -> Recovery:
        """Every shard dies; each is rebuilt from its own log."""
        if self.shards is None:
            self.shards = [(node.address, node.broker) for node in self.cluster]
            self.cluster.close()
        else:
            for _, broker in self.shards:
                broker.close()
        seconds = 0.0
        recovered = []
        for address, broker in self.shards:
            live = broker.store.projection(broker)
            started = perf()
            rebuilt = recover_broker(self.network, address, broker.store.log, **self.node_kwargs)
            seconds += perf() - started
            if rebuilt.store.projection(rebuilt) != live:
                raise OracleError(f"{self.name}: shard {address} recovered to a different projection")
            recovered.append((address, rebuilt))
        self.shards = recovered
        return Recovery(seconds, self.log_records())

    def close_brokers(self) -> None:
        self.cluster.close()
        for _, broker in self.shards or ():
            broker.close()
