"""``python -m repro obs-health`` / ``obs-top``: continuous broker telemetry.

Where ``obs-report`` explains one publish in depth and ``obs-audit``
checks the books after the fact, this module watches a broker *while it
runs*: a store-backed core broker plus a two-shard mesh execute a scripted
minute of traffic with :class:`~repro.obs.probes.GaugeProbes` sampling
every backlog on the virtual scheduler.

The scripted workload deliberately ends degraded, because a health report
that has never seen an anomaly proves nothing:

* a **paused** WSN subscription accumulates one notification per publish —
  its queue gauge rises on every sample, tripping the unbounded-growth
  probe;
* a **firewalled** WSE sink parks a copy of every publish in its message
  box (drained by pull only after the sampling window closes) — a second
  monotonic series while the window is open;
* a **flaky** consumer drops its first five pushes, walking its circuit
  breaker around closed → open → half-open repeatedly — the breaker-flap
  probe counts the transitions;
* one final publish is stranded in the delivery batcher: its window
  deadline passes with the scheduler never pumped again, which is exactly
  the lost-timer signature ``stale_deadlines`` exists to catch;
* the lineage ledger is reconciled against the live parked backlog — the
  conservation-drift probe — and *passes*: everything else above is
  degraded but accounted for.

Every probe reads virtual-clock state only, so both CLIs are byte-stable
and golden-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.obs.instrument import Instrumentation
from repro.obs.probes import GaugeProbes

#: topic the scripted core-broker publishes ride on
HEALTH_TOPIC = "health/metrics"
#: topic owned by (and subscribed across) the mesh shards
MESH_TOPIC = "health/mesh"
#: zone whose inbound block forces parking for the firewalled sink
ZONE = "health-ward"
#: virtual seconds between gauge sweeps
SAMPLE_INTERVAL = 10.0
#: sweeps in the scripted window
SAMPLE_COUNT = 6

#: gauge families the unbounded-growth probe applies to.  ``store.*`` is
#: excluded on purpose: an append-only event log *always* grows — flagging
#: it would teach operators to ignore the probe.
ANOMALY_GAUGE_PREFIXES = ("delivery.", "broker.", "mesh.pending")


@dataclass
class HealthRun:
    """Everything the health/top renderers need from one scripted run."""

    network: object
    instrumentation: Instrumentation
    probes: GaugeProbes
    broker: object
    cluster: object

    @property
    def brokers(self) -> list:
        """The core broker plus every mesh shard's broker."""
        return [self.broker] + [node.broker for node in self.cluster]


# --- anomaly probes ---------------------------------------------------------


def queue_growth_anomalies(probes: GaugeProbes) -> list[dict]:
    """Backlog gauges that rose on every retained sample (see prefix note)."""
    return [
        anomaly
        for anomaly in probes.growth_anomalies()
        if anomaly["gauge"].startswith(ANOMALY_GAUGE_PREFIXES)
    ]


def breaker_flaps(
    instrumentation: Instrumentation, *, threshold: int = 3
) -> list[dict]:
    """Sinks whose breaker moved at least ``threshold`` times.

    A breaker that opens once and stays open is a dead consumer; one that
    cycles closed → open → half-open repeatedly is a *flapping* one — the
    consumer is intermittently alive, which retry storms make worse.
    """
    per_sink: dict[str, dict[str, int]] = {}
    for labels, counter in instrumentation.metrics.counter_series(
        "delivery.breaker_transitions"
    ):
        by_state = per_sink.setdefault(labels["sink"], {})
        state = labels["state"]
        by_state[state] = by_state.get(state, 0) + counter.value
    flapping = []
    for sink in sorted(per_sink):
        total = sum(per_sink[sink].values())
        if total >= threshold:
            flapping.append(
                {"sink": sink, "transitions": total, "by_state": per_sink[sink]}
            )
    return flapping


def stale_batch_timers(brokers: list) -> list[dict]:
    """Held batches whose window deadline passed without a flush.

    Non-zero means a window timer was armed but the scheduler pump never
    reached it — held notifications will sit forever unless something
    pumps or flushes explicitly.  Every service holds its batches in the
    frame (wrapped queues, and a WSN producer's push batcher), so one
    ``stale_deadlines()`` per service answers for all of them.
    """
    findings = []
    for broker in brokers:
        for family, tag, service in broker.services():
            stale = service.stale_deadlines()
            if stale:
                findings.append(
                    {
                        "broker": broker.address,
                        "family": f"{family}/{tag}",
                        "stale_groups": stale,
                        "held_entries": service.held(),
                    }
                )
    return findings


def conservation_drift(instrumentation: Instrumentation, brokers: list) -> dict:
    """Ledger-pending obligations vs the live parked backlog.

    At quiescence every pending obligation must be a parked message-box
    item (the audit's invariant); a non-zero drift means messages are in
    flight nowhere — lost by the pipeline without a closing ledger event.
    """
    totals = instrumentation.ledger.totals()
    live_parked = sum(
        broker.message_boxes.total_parked()
        for broker in brokers
        if broker.message_boxes is not None
    )
    return {
        "ledger_pending": totals.pending,
        "live_parked": live_parked,
        "drift": totals.pending - live_parked,
    }


# --- the scripted scenario --------------------------------------------------


def _event(n: int):
    from repro.xmlkit import parse_xml

    return parse_xml(
        f'<h:Beat xmlns:h="urn:obs-health"><h:n>{n}</h:n></h:Beat>'
    )


def run_health_scenario() -> HealthRun:
    """One scripted, deterministic minute of degraded broker traffic."""
    from repro.delivery import BatchingPolicy, DeliveryPolicy, drain_message_box_wse
    from repro.messenger.broker import WsMessenger
    from repro.mesh import MeshCluster
    from repro.obs.exporters import reset_cache_stats
    from repro.store.core import BrokerStore
    from repro.store.log import MemoryEventLog
    from repro.transport import MessageLost, SimulatedNetwork, VirtualClock
    from repro.wsa.headers import reset_message_counter
    from repro.wse.sink import EventSink
    from repro.wse.subscriber import WseSubscriber
    from repro.wsn.consumer import NotificationConsumer
    from repro.wsn.subscriber import WsnSubscriber

    reset_message_counter()
    reset_cache_stats()
    network = SimulatedNetwork(VirtualClock())
    instrumentation = Instrumentation.attach(network)
    network.add_zone(ZONE, blocks_inbound=True)

    # -- the two-shard mesh: cross-shard traffic, then a rebalance ----------
    cluster = MeshCluster(network, shards=2, base_address="http://health-mesh")
    mesh_consumer = NotificationConsumer(network, "http://health-mesh-consumer")
    owner = cluster.owner_node_of_topic(MESH_TOPIC).name
    other = next(name for name in cluster.nodes if name != owner)
    cluster.subscribe_wsn(mesh_consumer.address, topic=MESH_TOPIC, home=other)
    cluster.publish(_event(101), topic=MESH_TOPIC)  # at the owner: local route
    cluster.publish(_event(102), topic=MESH_TOPIC, via=other)  # forwarded hop
    cluster.quiesce()
    cluster.join()  # a live rebalance: mesh.rebalances + mesh.moved_keys
    cluster.publish(_event(103), topic=MESH_TOPIC)
    cluster.quiesce()

    # -- the store-backed core broker and its consumer population ----------
    policy = DeliveryPolicy(
        max_attempts=8,
        base_backoff=2.0,
        jitter=0.0,
        breaker_failure_threshold=2,
        breaker_reset_after=5.0,
    )
    broker = WsMessenger(
        network,
        "http://health-broker",
        store=BrokerStore(MemoryEventLog()),
        delivery=policy,
        batching=BatchingPolicy(window=2.0, max_batch=10),
    )
    wsn = WsnSubscriber(network)
    steady = NotificationConsumer(network, "http://health-steady")
    wsn.subscribe(broker.epr(), steady.epr(), topic=HEALTH_TOPIC)
    dozing = NotificationConsumer(network, "http://health-paused")
    wsn.pause(wsn.subscribe(broker.epr(), dozing.epr(), topic=HEALTH_TOPIC))
    warded = EventSink(network, "http://health-warded", zone=ZONE)
    WseSubscriber(network, zone=ZONE).subscribe(
        broker.epr(), notify_to=warded.epr()
    )
    flaky = NotificationConsumer(network, "http://health-flaky")
    wsn.subscribe(broker.epr(), flaky.epr(), topic=HEALTH_TOPIC)
    drops = {"remaining": 5}

    def _drop_flaky_pushes(address: str, request: bytes) -> None:
        if address == flaky.address and drops["remaining"] > 0:
            drops["remaining"] -= 1
            raise MessageLost(address)

    network.observers.append(_drop_flaky_pushes)

    # -- the sampled window: publishes and sweeps interleaved on one clock --
    probes = GaugeProbes(instrumentation)
    probes.watch_broker(broker, site="core")
    probes.watch_cluster(cluster)
    scheduler = broker.delivery_manager.scheduler
    base = network.clock.now()
    tick = 0
    for i in range(1, SAMPLE_COUNT + 1):
        for _ in range(2 if i == 3 else 1):  # tick 3 doubles up: a real batch
            tick += 1
            scheduler.call_at(
                base + i * SAMPLE_INTERVAL - 5.0,
                lambda n=tick: broker.publish(_event(n), topic=HEALTH_TOPIC),
            )
    probes.schedule(scheduler, interval=SAMPLE_INTERVAL, count=SAMPLE_COUNT)
    broker.run_deliveries_until_idle()

    # the window is over: the warded sink finally drains its parked box by
    # pull (so the conservation books balance at report time)
    box = broker.message_boxes.get(warded.address)
    if box is not None and len(box):
        drain_message_box_wse(network, box.epr(), zone=ZONE)

    # one last publish whose batch window deadline is never pumped: the
    # stale-batch-timer anomaly, manufactured deliberately
    broker.publish(_event(tick + 1), topic=HEALTH_TOPIC)
    network.clock.advance(3.0)

    return HealthRun(
        network=network,
        instrumentation=instrumentation,
        probes=probes,
        broker=broker,
        cluster=cluster,
    )


# --- reporting --------------------------------------------------------------


def build_health_report(run: HealthRun) -> dict:
    """The deterministic health document (anomalies + evidence)."""
    instrumentation = run.instrumentation
    growth = queue_growth_anomalies(run.probes)
    flaps = breaker_flaps(instrumentation)
    stale = stale_batch_timers(run.brokers)
    drift = conservation_drift(instrumentation, run.brokers)
    anomalies = len(growth) + len(flaps) + len(stale) + (1 if drift["drift"] else 0)
    return {
        "clock": round(instrumentation.clock.now(), 9),
        "samples": run.probes.samples,
        "gauge_series": len(run.probes.history),
        "anomalies": anomalies,
        "queue_growth": growth,
        "breaker_flaps": flaps,
        "stale_batches": stale,
        "conservation": drift,
        "gauges": run.probes.last_values(),
    }


def render_health_text(run: HealthRun) -> str:
    report = build_health_report(run)
    title = "repro.obs health — store-backed broker + 2-shard mesh, one scripted minute"
    lines = [title, "=" * len(title), ""]
    lines.append(
        f"virtual clock {report['clock']:.4f}s | {report['samples']} gauge sweeps"
        f" over {report['gauge_series']} series"
        f" | anomalies: {report['anomalies']}"
    )
    lines.append("")

    lines.append("Queue growth (monotonic across the sampled window)")
    lines.append("--------------------------------------------------")
    for anomaly in report["queue_growth"]:
        lines.append(
            f"  ANOMALY {anomaly['gauge']}: {anomaly['first']:g} ->"
            f" {anomaly['last']:g} over {anomaly['samples']} samples,"
            " never draining"
        )
    if not report["queue_growth"]:
        lines.append("  every backlog drained at least once (ok)")
    lines.append("")

    lines.append("Breaker health")
    lines.append("--------------")
    for flap in report["breaker_flaps"]:
        states = ", ".join(
            f"{state}={count}" for state, count in sorted(flap["by_state"].items())
        )
        lines.append(
            f"  ANOMALY {flap['sink']}: {flap['transitions']} transitions"
            f" ({states}) — flapping"
        )
    if not report["breaker_flaps"]:
        lines.append("  no breaker moved more than twice (ok)")
    lines.append("")

    lines.append("Batch timers")
    lines.append("------------")
    for finding in report["stale_batches"]:
        lines.append(
            f"  ANOMALY {finding['broker']} [{finding['family']}]:"
            f" {finding['stale_groups']} group(s) past their window deadline,"
            f" {finding['held_entries']} notification(s) held"
        )
    if not report["stale_batches"]:
        lines.append("  every armed window flushed (ok)")
    lines.append("")

    drift = report["conservation"]
    lines.append("Conservation")
    lines.append("------------")
    verdict = "ok" if drift["drift"] == 0 else "ANOMALY — messages unaccounted for"
    lines.append(
        f"  ledger pending={drift['ledger_pending']}"
        f" live parked={drift['live_parked']}"
        f" drift={drift['drift']} ({verdict})"
    )
    lines.append("")

    lines.append("Gauges (last sample)")
    lines.append("--------------------")
    for key, value in report["gauges"].items():
        lines.append(f"  {key:<60s} {value:g}")
    return "\n".join(lines)


def render_top_text(run: HealthRun) -> str:
    """The ``obs-top`` snapshot: live backlog + the ledger's latest events."""
    instrumentation = run.instrumentation
    # every ledger event in time order; sorted() is stable, so events at
    # one instant keep lineage first-seen order, then recording order
    events = sorted(
        (
            (event, lineage_id)
            for lineage_id, lineage in instrumentation.ledger.events.items()
            for event in lineage
        ),
        key=lambda pair: pair[0].at,
    )
    title = "repro.obs top — live snapshot"
    lines = [title, "=" * len(title), ""]
    lines.append(
        f"virtual clock {instrumentation.clock.now():.4f}s"
        f" | ledger: {len(events)} events over"
        f" {len(instrumentation.ledger)} lineages"
    )
    lines.append("")

    lines.append("Backlogs (last sample)")
    lines.append("----------------------")
    for key, value in run.probes.last_values().items():
        if value:
            lines.append(f"  {key:<60s} {value:g}")
    lines.append("")

    lines.append("Ledger tail")
    lines.append("-----------")
    for event, lineage_id in events[-20:]:
        detail = " ".join(f"{k}={event.detail[k]}" for k in sorted(event.detail))
        lines.append(
            f"  [{event.at:9.4f}s] {lineage_id} {event.state:<13s} {detail}".rstrip()
        )
    return "\n".join(lines)


def obs_health_main(argv: "list[str] | None" = None) -> int:
    """CLI: run the scripted scenario and print the health report.

    ``--json`` prints the report document instead of the text rendering.
    Always exits 0: the scripted anomalies are the demonstration, not a
    failure of this process.
    """
    import json

    argv = list(argv or [])
    run = run_health_scenario()
    try:
        if "--json" in argv:
            print(json.dumps(build_health_report(run), indent=2, sort_keys=True))
        else:
            print(render_health_text(run))
    except BrokenPipeError:
        pass
    return 0


def obs_top_main(argv: "list[str] | None" = None) -> int:
    """CLI: run the scripted scenario and print the ``top``-style snapshot."""
    run = run_health_scenario()
    try:
        print(render_top_text(run))
    except BrokenPipeError:
        pass
    return 0
