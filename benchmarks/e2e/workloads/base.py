"""What every workload shares: the composed stack, payloads, the block
protocol and the per-block oracle.

A *scenario* is one built instance of a workload: the stack constructed
through public constructors only, its whole population subscribed over the
wire.  The runner drives it block by block::

    scenario.prepare()        # generate the block's inputs (untimed)
    scenario.run(recorder)    # the timed samples, GC off
    scenario.settle(totals)   # oracle, audit, counters, obs/consumer reset

Every sample is closed loop: publish, then run the delivery pipeline until
it is idle, then the next publish.  The seed reaches the program only as
generated inputs (payload fields, subscription order, which sinks are
unhealthy, ``SimulatedNetwork(seed=)`` and ``delivery_seed``).
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.delivery import DeliveryPolicy
from repro.delivery.policy import BatchingPolicy
from repro.filters.compilecache import FILTER_COMPILE_STATS
from repro.messenger import WsMessenger
from repro.obs import Instrumentation
from repro.obs.audit import audit
from repro.qos import AdaptiveQosPolicy
from repro.store import BrokerStore, FileEventLog, recover_broker
from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
from repro.util.xstime import format_datetime
from repro.wsa.headers import reset_message_counter
from repro.wse import EventSink, WseSubscriber, WseVersion
from repro.wsn import NotificationConsumer, WsnSubscriber, WsnVersion
from repro.xmlkit import parse_xml
from repro.xmlkit.template import TEMPLATE_STATS
from repro.xmlkit.writer import WRITER_STATS

from ..calibrate import calibrate

NS = "urn:bench-e2e"
BROKER = "http://e2e-broker"
#: leases outlive any run: fast-forwarded retries must not expire the population
LEASE_SECONDS = 30 * 86400.0
#: set-up Subscribe calls per control sample
SUBSCRIBE_CHUNK = 40

perf = time.perf_counter


class OracleError(AssertionError):
    """An output contradicted the generator's model: the run does not count."""


@dataclass(frozen=True)
class Features:
    """Which optional subsystems the broker is built with (ladder rungs)."""

    delivery: bool = True
    store: bool = True
    qos: bool = True
    batching: bool = True
    obs: bool = True


FULL = Features()


@dataclass
class Recorder:
    """Timed samples of one run (all rounds), each one closed-loop unit,
    with a host-speed calibration before and after every sample."""

    #: (wall seconds per publish incl. drain, index of the calibration before)
    publish: list[tuple[float, int]] = field(default_factory=list)
    #: (wall seconds per wire control call, calibration index)
    control: list[tuple[float, int]] = field(default_factory=list)
    #: (wall seconds per end-of-block drain, calibration index)
    drain: list[tuple[float, int]] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)
    #: total wall inside timed regions
    timed: float = 0.0

    def calibrate(self) -> None:
        self.calibrations.append(calibrate())

    def record(self, series: list, elapsed: float, units: int = 1) -> None:
        """One timed region of ``units`` equal units; calibrates after it."""
        series.append((elapsed / units, len(self.calibrations) - 1))
        self.timed += elapsed
        self.calibrations.append(calibrate())


@dataclass
class Totals:
    """Exact counts over the measured blocks of one run."""

    blocks: int = 0
    publishes: int = 0
    obligations: int = 0
    received: int = 0
    control_calls: int = 0
    wire_bytes: int = 0
    log_bytes: int = 0
    #: named counters summed over blocks (obs registry, network stats)
    counters: dict[str, float] = field(default_factory=dict)
    expected_digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    actual_digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)


@dataclass
class Recovery:
    seconds: float
    records: int


# --- payloads -------------------------------------------------------------------


def reading_xml(seq: int, host: int, site: int, value: int) -> str:
    """One event; fixed-width fields keep wire bytes independent of the seed."""
    return (
        f'<ev:Reading xmlns:ev="{NS}"><ev:seq>{seq:07d}</ev:seq>'
        f"<ev:host>h{host:03d}</ev:host><ev:site>s{site:02d}</ev:site>"
        f"<ev:value>{value:04d}</ev:value></ev:Reading>"
    )


def reading_key(seq: int, host: int, site: int, value: int) -> str:
    return f"{seq:07d}|h{host:03d}|s{site:02d}|{value:04d}"


def payload_key(payload) -> str:
    """The consumer-side view of :func:`reading_key`."""
    return "|".join(child.full_text() for child in payload.elements())


def lease_text(network: SimulatedNetwork) -> str:
    return format_datetime(network.clock.now() + LEASE_SECONDS)


def retry_lost(call):
    """A client on a lossy network re-sends a request the wire dropped (the
    loss model drops before the handler runs, so a re-send is safe)."""
    while True:
        try:
            return call()
        except MessageLost:
            continue


# --- consumers ------------------------------------------------------------------

#: dialect tag -> (family, version)
DIALECTS = {
    "wsn13": ("wsn", WsnVersion.V1_3),
    "wsn12": ("wsn", WsnVersion.V1_2),
    "wsn10": ("wsn", WsnVersion.V1_0),
    "wse0408": ("wse", WseVersion.V2004_08),
    "wse0401": ("wse", WseVersion.V2004_01),
}


def make_consumer(network, address: str, dialect: str, *, zone: Optional[str] = None):
    family, version = DIALECTS[dialect]
    cls = NotificationConsumer if family == "wsn" else EventSink
    kwargs = {} if zone is None else {"zone": zone}
    return cls(network, address, version=version, **kwargs)


class Subscribers:
    """One client per dialect (and zone), reused across the population."""

    def __init__(self, network: SimulatedNetwork) -> None:
        self.network = network
        self._clients: dict[tuple[str, Optional[str]], object] = {}

    def client(self, dialect: str, zone: Optional[str] = None):
        key = (dialect, zone)
        client = self._clients.get(key)
        if client is None:
            family, version = DIALECTS[dialect]
            cls = WsnSubscriber if family == "wsn" else WseSubscriber
            kwargs = {} if zone is None else {"zone": zone}
            client = self._clients[key] = cls(self.network, version=version, **kwargs)
        return client

    def subscribe(
        self,
        target,
        consumer,
        dialect: str,
        *,
        topic: Optional[str] = None,
        topic_dialect: Optional[str] = None,
        xpath: Optional[str] = None,
        zone: Optional[str] = None,
    ):
        """Subscribe ``consumer`` in its own dialect with a run-long lease."""
        client = self.client(dialect, zone)
        lease = lease_text(self.network)
        namespaces = {"ev": NS} if xpath is not None else None
        if DIALECTS[dialect][0] == "wsn":
            kwargs = {}
            if topic_dialect is not None:
                kwargs["topic_dialect"] = topic_dialect
            return retry_lost(lambda: client.subscribe(
                target, consumer.epr(), topic=topic, message_content=xpath,
                namespaces=namespaces, initial_termination=lease, **kwargs,
            ))
        return retry_lost(lambda: client.subscribe(
            target, notify_to=consumer.epr(), expires=lease,
            filter=xpath, filter_namespaces=namespaces,
        ))


# --- the scenario ---------------------------------------------------------------


class Scenario:
    """One built instance of a workload (single broker unless overridden)."""

    name = ""
    publishes_per_block = 8
    #: what one block takes at reference host speed, calibrations included;
    #: turns --seconds into a number of blocks, so that counts repeat
    nominal_block_seconds = 0.4
    #: per run: extra build-and-close cycles that only sample set-up, and
    #: per round: back-to-back recoveries (cheap ones are repeated)
    extra_setups = 6
    recoveries_per_round = 3
    #: rounds that end in a recovery (all, unless one recovery is expensive)
    recovery_rounds = 3
    loss_rate = 0.0
    #: False when the model cannot predict every delivery (lossy network)
    exact = True
    #: the harness methods that bracket one timed unit (trace root spans)
    timed_units = ("publish",)
    delivery_policy = DeliveryPolicy()
    qos_policy = AdaptiveQosPolicy(max_sink_queue=16)
    batching_policy = BatchingPolicy(window=0.0, max_batch=100)

    def __init__(self, seed: int, workdir: str, features: Features = FULL) -> None:
        reset_message_counter()
        os.makedirs(workdir, exist_ok=True)
        self.seed = seed
        self.workdir = workdir
        self.features = features
        self.rng = random.Random(seed)
        self.seq = 0
        self.network = SimulatedNetwork(
            VirtualClock(), seed=seed, loss_rate=self.loss_rate
        )
        self.instr = Instrumentation.attach(self.network) if features.obs else None
        self.build_stack()
        self.subscribers = Subscribers(self.network)
        #: consumer objects by index, and what the model expects each to hold
        self.consumers: list = []
        self.expected: list[list[str]] = []
        self.subscribe_calls = 0
        #: set-up Subscribe calls, timed in chunks with calibrations between
        self.setup_recorder = Recorder()
        self.setup_recorder.calibrate()
        self._chunk_seconds = 0.0
        self._chunk_calls = 0
        #: what the current block owes, set by prepare()
        self.block_publishes = 0
        self.block_obligations = 0
        self.block_control_calls = 0
        self.populate()
        self._close_subscribe_chunk()
        self.mark()

    def mark(self) -> None:
        """Start of a block: everything settle() reports is counted from
        here (the cache stats are process-global, and scenarios alternate)."""
        self._log_mark = (self.log_bytes(), self.log_records())
        self._stats_mark = self._global_stats()
        self.network.stats.reset()

    # --- the stack ----------------------------------------------------------------

    def build_stack(self) -> None:
        """The composed broker, through public constructors only."""
        features = self.features
        self.broker_kwargs: dict = {"delivery_seed": self.seed}
        if features.delivery:
            self.broker_kwargs["delivery"] = self.delivery_policy
        if features.qos:
            self.broker_kwargs["qos"] = self.qos_policy
        if features.batching:
            self.broker_kwargs["batching"] = self.batching_policy
        self.logs = (
            [FileEventLog(os.path.join(self.workdir, f"{self.name}.log"))]
            if features.store
            else []
        )
        self.broker = WsMessenger(
            self.network, BROKER,
            store=BrokerStore(self.logs[0]) if self.logs else None,
            **self.broker_kwargs,
        )

    def brokers(self) -> list:
        """Every broker of the stack."""
        return [self.broker]

    def managers(self) -> list:
        """Every delivery manager of the stack."""
        return [
            broker.delivery_manager for broker in self.brokers()
            if broker.delivery_manager is not None
        ]

    # --- hooks ------------------------------------------------------------------

    def populate(self) -> None:
        """Create consumers and subscribe them over the wire."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate the next block's inputs and extend ``self.expected``."""
        raise NotImplementedError

    def run(self, recorder: Recorder) -> None:
        """The timed samples of one block."""
        raise NotImplementedError

    # --- helpers for subclasses ----------------------------------------------------

    def add_consumer(self, dialect: str, *, zone: Optional[str] = None):
        index = len(self.consumers)
        consumer = make_consumer(
            self.network, f"http://e2e-sink/{index:04d}", dialect, zone=zone
        )
        self.consumers.append(consumer)
        self.expected.append([])
        return index, consumer

    def subscribe(self, consumer, dialect: str, **kwargs):
        return self.timed_subscribe(
            lambda: self.subscribers.subscribe(self.broker.epr(), consumer, dialect, **kwargs)
        )

    def timed_subscribe(self, call):
        """One set-up Subscribe over the wire; every SUBSCRIBE_CHUNK of them
        become one control sample."""
        started = perf()
        result = call()
        self._chunk_seconds += perf() - started
        self._chunk_calls += 1
        self.subscribe_calls += 1
        if self._chunk_calls == SUBSCRIBE_CHUNK:
            self._close_subscribe_chunk()
        return result

    def _close_subscribe_chunk(self) -> None:
        if self._chunk_calls:
            recorder = self.setup_recorder
            recorder.record(recorder.control, self._chunk_seconds, self._chunk_calls)
            self._chunk_seconds, self._chunk_calls = 0.0, 0

    def next_reading(self, host: int, site: int) -> tuple[object, str]:
        """The next event as (parsed payload, model key)."""
        self.seq += 1
        value = self.rng.randrange(10_000)
        payload = parse_xml(reading_xml(self.seq, host, site, value))
        return payload, reading_key(self.seq, host, site, value)

    def publish(self, payload, topic: Optional[str]) -> None:
        """One closed-loop unit: publish, then drain."""
        self.broker.publish(payload, topic=topic)
        self.broker.run_deliveries_until_idle()

    def timed_publishes(self, recorder: Recorder, events) -> None:
        """One sample per event: publish, drain, stop the watch."""
        publish = self.publish
        for payload, topic in events:
            started = perf()
            publish(payload, topic)
            recorder.record(recorder.publish, perf() - started)

    # --- accounting ---------------------------------------------------------------

    def log_bytes(self) -> int:
        return sum(
            os.path.getsize(log.path) for log in self.logs if os.path.exists(log.path)
        )

    def log_records(self) -> int:
        return sum(len(log) for log in self.logs)

    def delivery_stats(self) -> dict[str, int]:
        """Delivery-manager and batcher stats summed over the stack."""
        out = {"batch_flushes": 0, "batch_coalesced": 0}
        for manager in self.managers():
            for key, value in manager.stats.snapshot().items():
                out[key] = out.get(key, 0) + value
        for broker in self.brokers():
            for producer in broker.wsn_producers.values():
                if producer.batcher is not None:
                    out["batch_flushes"] += producer.batcher.stats.flushes
                    out["batch_coalesced"] += producer.batcher.stats.coalesced
        return out

    @staticmethod
    def _global_stats() -> dict[str, int]:
        return {
            "template_hits": TEMPLATE_STATS.hits,
            "template_misses": TEMPLATE_STATS.misses + TEMPLATE_STATS.fallbacks,
            "tree_serializations": WRITER_STATS.tree_serializations,
            "frozen_splices": WRITER_STATS.frozen_splices,
            "compile_hits": FILTER_COMPILE_STATS.hits,
            "compile_misses": FILTER_COMPILE_STATS.misses,
        }

    def received_keys(self, index: int) -> list[str]:
        return [payload_key(item.payload) for item in self.consumers[index].received]

    def check_consumer(self, index: int, actual: list[str], expected: list[str]) -> int:
        """Obligations of one consumer not in their expected state (the
        default model owes every consumer an exact sequence)."""
        return 0 if actual == expected else max(1, len(set(expected) ^ set(actual)))

    def settle(self, totals: Totals) -> None:
        """Check the block against the model, fold its counts into ``totals``
        and bound every buffer (consumers, obs) before the next block."""
        failed = 0
        received = 0
        for index, consumer in enumerate(self.consumers):
            actual = self.received_keys(index)
            expected = self.expected[index]
            received += len(actual)
            failed += self.check_consumer(index, actual, expected)
            totals.actual_digest.update(f"{index}:{','.join(actual)};".encode())
            totals.expected_digest.update(f"{index}:{','.join(expected)};".encode())
            consumer.received.clear()
            expected.clear()
        if failed:
            raise OracleError(f"{self.name}: {failed} obligations not in their expected state")
        pending = sum(manager.pending() for manager in self.managers())
        if pending:
            raise OracleError(f"{self.name}: {pending} deliveries still pending after the drain")
        totals.blocks += 1
        totals.publishes += self.block_publishes
        totals.obligations += self.block_obligations
        totals.received += received
        totals.control_calls += self.block_control_calls
        stats = self.network.stats
        totals.wire_bytes += stats.bytes_sent + stats.bytes_received
        totals.add("net.requests", stats.requests + stats.lost + stats.refused)
        totals.add("net.request_bytes", stats.bytes_sent)
        totals.add("net.lost", stats.lost)
        totals.add("net.firewall_blocked", stats.firewall_blocked)
        totals.log_bytes += self.log_bytes() - self._log_mark[0]
        totals.add("store.records", self.log_records() - self._log_mark[1])
        for key, value in self._global_stats().items():
            totals.add(key, value - self._stats_mark[key])
        if self.instr is not None:
            result = self.audit()
            if not result.passed:
                raise OracleError(f"{self.name}: conservation audit failed\n{result.render()}")
            for key in ("opened", "delivered", "dead_lettered", "failed", "shed", "pending"):
                totals.add(f"audit.{key}", getattr(result, key))
            metrics = self.instr.metrics
            for name in ("fanout.filter_evals", "fanout.index_hits", "mesh.forwarded_publishes"):
                totals.add(name, sum(metrics.counter_values(name).values()))
            totals.add("obs.spans", len(self.instr.tracer.spans))
            self.instr.reset()

    def audit(self):
        return audit(self.instr, scenario=self.name)

    # --- crash and recovery ---------------------------------------------------------

    @staticmethod
    def fixpoint_view(projection: dict):
        """The part of the store projection recovery must reproduce."""
        return projection

    def crash_and_recover(self) -> Recovery:
        """Close the broker, rebuild it from its log, assert the fixpoint."""
        store = self.broker.store
        live = self.fixpoint_view(store.projection(self.broker))
        records = len(store.log)
        self.broker.close()
        started = perf()
        recovered = recover_broker(self.network, BROKER, store.log, **self.broker_kwargs)
        seconds = perf() - started
        if self.fixpoint_view(recovered.store.projection(recovered)) != live:
            raise OracleError(f"{self.name}: recovered projection differs from the pre-crash one")
        self.broker = recovered
        return Recovery(seconds, records)

    def close_brokers(self) -> None:
        self.broker.close()

    def close(self) -> None:
        self.close_brokers()
        for consumer in self.consumers:
            consumer.close()
        for log in self.logs:
            log.close()
            if os.path.exists(log.path):
                os.remove(log.path)
