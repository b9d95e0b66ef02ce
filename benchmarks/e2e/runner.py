"""Run one workload in this process and turn its samples into metrics.

An untraced run is ``rounds`` rebuilds of the same seeded scenario::

    build + subscribe (timed: setup_s)  ->  one warm-up block
      ->  measured blocks for seconds/rounds  ->  crash + recover_broker (timed)

so set-up, publish and recovery samples are all spread over the whole run.
Every timed region has a host-speed calibration right before and after it;
timing metrics are medians of the samples at reference host speed (see
``calibrate.py`` and the README for why raw wall time does not repeat here).
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Optional

from . import spans, spec
from .calibrate import REFERENCE_SECONDS, calibrate, normalised, typical
from .workloads import BY_NAME
from .workloads.base import (
    FULL, Features, OracleError, Recorder, Scenario, Totals, perf,
)

@dataclass
class Measured:
    """Everything one untraced run observed."""

    recorder: Recorder = field(default_factory=Recorder)
    totals: Totals = field(default_factory=Totals)
    #: one entry per build, normalised to reference host speed
    setup_seconds: list[float] = field(default_factory=list)
    #: set-up Subscribe chunks of every build: normalised seconds per call
    subscribe_seconds_per_call: list[float] = field(default_factory=list)
    subscribe_calls: int = 0
    #: (normalised seconds, log records) per recover_broker
    recovery: list[tuple[float, int]] = field(default_factory=list)
    delivery: dict[str, int] = field(default_factory=dict)


def percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def work_directory(root: str, workload: str) -> str:
    path = os.path.join(root, f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def build(
    workload: str, seed: int, workdir: str, features: Features = FULL,
    out: Optional[Measured] = None,
) -> Scenario:
    """Build one scenario with the collector quiet, as in the timed blocks;
    ``out`` receives the set-up samples."""
    gc.collect()
    gc.disable()
    try:
        started = perf()
        scenario = BY_NAME[workload](seed, workdir, features)
        elapsed = perf() - started
    finally:
        gc.enable()
    if out is not None:
        setup = scenario.setup_recorder
        # the build calibrates between Subscribe chunks: take that time out,
        # and use those calibrations as the build's host-speed reading
        own = elapsed - sum(setup.calibrations)
        out.setup_seconds.append(
            own * REFERENCE_SECONDS / statistics.median(setup.calibrations)
        )
        out.subscribe_seconds_per_call += normalised(setup.control, setup.calibrations)
        out.subscribe_calls += scenario.subscribe_calls
    return scenario


def quiet_calibrate() -> float:
    """A calibration outside a block: collect first and keep the collector
    off, or a collection landing inside it reads as a slow host."""
    gc.collect()
    gc.disable()
    try:
        return calibrate()
    finally:
        gc.enable()


def recover(scenario: Scenario, out: Measured, times: int) -> None:
    """Crash and recover ``times`` times: each time the rebuilt broker is the
    one that crashes next, over the same log.  The collector stays on, as it
    would be for whoever restarts a broker."""
    for _ in range(times):
        before = quiet_calibrate()
        recovery = scenario.crash_and_recover()
        after = quiet_calibrate()
        out.recovery.append((
            recovery.seconds * REFERENCE_SECONDS * 2 / (before + after),
            recovery.records,
        ))


def run_block(scenario: Scenario, recorder: Recorder, totals: Totals) -> None:
    """One block: inputs generated, samples timed with GC off, outputs checked."""
    scenario.mark()
    scenario.prepare()
    gc.collect()
    gc.disable()
    try:
        recorder.calibrate()
        scenario.run(recorder)
    finally:
        gc.enable()
    scenario.settle(totals)


def blocks_for(workload: str, seconds: float, rounds: int = 1) -> int:
    """``--seconds`` of work at reference host speed, as measured blocks per
    round.  A count, not a deadline: the work done, and with it every count,
    log size and resident set, then repeats from run to run."""
    return max(1, round(seconds / rounds / BY_NAME[workload].nominal_block_seconds))


def one_round(
    out: Measured, workload: str, seed: int, workdir: str,
    *, blocks: int, recoveries: int,
) -> None:
    """Build, warm up, measure, crash and recover one scenario."""
    scenario = build(workload, seed, workdir, out=out)
    try:
        run_block(scenario, Recorder(), Totals())  # warm-up: caches fill
        before = scenario.delivery_stats()
        for _ in range(blocks):
            run_block(scenario, out.recorder, out.totals)
        after = scenario.delivery_stats()
        for key, value in after.items():
            out.delivery[key] = out.delivery.get(key, 0) + value - before[key]
        recover(scenario, out, recoveries)
    finally:
        scenario.close()


def measure(
    workload: str, seed: int, *, seconds: float, rounds: int,
    blocks: Optional[int], workdir: str,
) -> Measured:
    """The untraced run: every end-to-end number comes from here.  Cheap
    recoveries and set-ups are repeated a fixed number of times per workload
    (counts, not time limits: the resident set must repeat); with a fixed
    ``blocks`` (smoke, self-tests) they are not repeated at all."""
    cls = BY_NAME[workload]
    out = Measured()
    per_round = blocks or blocks_for(workload, seconds, rounds)
    for index in range(rounds):
        recoveries = 1 if blocks else cls.recoveries_per_round
        if index >= cls.recovery_rounds:
            recoveries = 0
        one_round(out, workload, seed, workdir, blocks=per_round, recoveries=recoveries)
    for _ in range(0 if blocks else cls.extra_setups):
        build(workload, seed, workdir, out=out).close()
    if BY_NAME[workload].exact and (
        out.totals.actual_digest.digest() != out.totals.expected_digest.digest()
    ):
        raise OracleError(f"{workload}: delivery digest differs from the model's")
    return out


def end_to_end(measured: Measured) -> dict[str, float]:
    """The nine end-to-end metrics of one untraced run."""
    rec, totals = measured.recorder, measured.totals
    publishes_per_block = totals.publishes / totals.blocks
    publish_seconds = typical(rec.publish, rec.calibrations)
    if rec.drain:
        publish_seconds += typical(rec.drain, rec.calibrations) / publishes_per_block
    if rec.control:
        control_seconds = typical(rec.control, rec.calibrations)
    else:
        control_seconds = statistics.median(measured.subscribe_seconds_per_call)
    ops = totals.obligations + totals.control_calls
    return {
        "setup_s": statistics.median(measured.setup_seconds),
        "us_per_delivery": publish_seconds * 1e6 * totals.publishes / totals.obligations,
        "publish_ms": publish_seconds * 1e3,
        "control_op_us": control_seconds * 1e6,
        "recovery_ms_per_krecord": statistics.median(
            seconds * 1e6 / records for seconds, records in measured.recovery
        ),
        "wire_bytes_per_op": totals.wire_bytes / ops,
        "log_bytes_per_publish": totals.log_bytes / totals.publishes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "delivered_share": totals.received / totals.obligations,
    }


def stat_metrics(measured: Measured) -> dict[str, float]:
    """Work counts and waste ratios from the public stats objects."""
    totals, delivery = measured.totals, measured.delivery
    c = totals.counters
    publishes = totals.publishes
    settled = max(delivery.get("delivered", 0), 1)
    requests = max(c.get("net.requests", 0), 1)

    def ratio(hit: str, miss: str) -> float:
        total = c.get(hit, 0) + c.get(miss, 0)
        return c.get(hit, 0) / total if total else 0.0

    samples = [wall for wall, _ in measured.recorder.publish]
    calibrations = measured.recorder.calibrations
    recover_rate = max(
        (records / seconds for seconds, records in measured.recovery), default=0.0
    )
    evals = c.get("fanout.filter_evals", 0)
    return {
        "xmlkit.tree_serializations_per_publish": c.get("tree_serializations", 0) / publishes,
        "xmlkit.frozen_splices_per_publish": c.get("frozen_splices", 0) / publishes,
        "xmlkit.template_hit_ratio": ratio("template_hits", "template_misses"),
        "filters.evals_per_publish": evals / publishes,
        "filters.index_candidates_per_publish": c.get("fanout.index_hits", 0) / publishes,
        "filters.match_ratio": totals.obligations / evals if evals else 0.0,
        "filters.compile_cache_hit_ratio": ratio("compile_hits", "compile_misses"),
        "transport.requests_per_delivery": requests / max(totals.received, 1),
        "transport.bytes_per_request": c.get("net.request_bytes", 0) / requests,
        "transport.lost": c.get("net.lost", 0),
        "transport.firewall_blocked": c.get("net.firewall_blocked", 0),
        "delivery.attempts_per_delivery": delivery.get("attempts", 0) / settled,
        "delivery.retries": delivery.get("retries", 0),
        "delivery.parked": delivery.get("parked", 0),
        "delivery.dead_lettered": delivery.get("dead_lettered", 0),
        "delivery.batch_size_mean": (
            delivery.get("batch_coalesced", 0) / max(delivery.get("batch_flushes", 0), 1)
        ),
        "delivery.peak_pending": c.get("delivery.peak_pending", 0),
        "delivery.breaker_fast_fails": delivery.get("breaker_fast_fails", 0),
        "qos.shed": delivery.get("shed", 0),
        "qos.throttled": delivery.get("throttled", 0),
        "store.records_per_publish": c.get("store.records", 0) / publishes,
        "store.recover_records_per_s": recover_rate,
        "obs.spans_per_publish": c.get("obs.spans", 0) / publishes,
        "mesh.forward_hops_per_publish": c.get("mesh.forwarded_publishes", 0) / publishes,
        "mesh.shard_skew": c.get("mesh.shard_skew", 0.0),
        "mesh.virtual_speedup_model": c.get("mesh.virtual_speedup_model", 0.0),
        "messenger.publish_p50_ms": statistics.median(samples) * 1e3,
        "messenger.publish_p95_ms": percentile(samples, 0.95) * 1e3,
        "messenger.publish_samples": len(samples),
        "host.slowdown_p50": statistics.median(calibrations) / REFERENCE_SECONDS,
    }


def attempted_ops(measured: Measured) -> int:
    totals = measured.totals
    return totals.obligations + totals.control_calls + measured.subscribe_calls


def cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)


# --- the traced pass ---------------------------------------------------------------

#: traced time is capped: every call into a layer leaves a span in memory
MAX_TRACED_SECONDS = 3.0
LADDER_BLOCKS = 4
LADDER_FEATURES = {
    "bare": Features(False, False, False, False, False),
    "delivery": Features(True, False, False, False, False),
    "store": Features(True, True, False, False, False),
    "qos": Features(True, True, True, False, False),
    "batching": Features(True, True, True, True, False),
    "obs": FULL,
}


def timed_unit_roots(workload: str) -> list[tuple[type, str]]:
    """(class, method) pairs of the harness's own timed units."""
    cls = BY_NAME[workload]
    roots = []
    for name in cls.timed_units:
        owner = next(klass for klass in cls.__mro__ if name in vars(klass))
        roots.append((owner, name))
    return roots


def profile_block(scenario: Scenario) -> pstats.Stats:
    """One more block, under cProfile."""
    profiler = cProfile.Profile()
    scenario.mark()
    scenario.prepare()
    gc.collect()
    gc.disable()
    try:
        profiler.enable()
        scenario.run(Recorder())
        profiler.disable()
    finally:
        gc.enable()
    scenario.settle(Totals())
    return pstats.Stats(profiler)


def ladder(seed: int, workdir: str) -> dict[str, float]:
    """us/delivery of fanout_push with one more subsystem per rung.
    The rungs take turns publish by publish, so they all sample the same
    spells of the host and their differences stay meaningful."""
    rungs = []
    try:
        for rung, features in LADDER_FEATURES.items():
            scenario = build("fanout_push", seed, os.path.join(workdir, rung), features)
            rungs.append((rung, scenario, Recorder(), Totals()))
            run_block(scenario, Recorder(), Totals())
        for _ in range(LADDER_BLOCKS):
            for _, scenario, _, _ in rungs:
                scenario.mark()
                scenario.prepare()
            gc.collect()
            gc.disable()
            try:
                for _, _, recorder, _ in rungs:
                    recorder.calibrate()
                for turn in range(rungs[0][1].publishes_per_block):
                    for _, scenario, recorder, _ in rungs:
                        scenario.timed_publishes(recorder, scenario.events[turn:turn + 1])
            finally:
                gc.enable()
            for _, scenario, _, totals in rungs:
                scenario.settle(totals)
        return {
            f"ladder.{rung}_us":
                typical(recorder.publish, recorder.calibrations)
                * 1e6 * totals.publishes / totals.obligations
            for rung, _, recorder, totals in rungs
        }
    finally:
        for _, scenario, _, _ in rungs:
            scenario.close()


def shares_by_package(seconds_by_layer: dict[str, float]) -> dict[str, float]:
    """Layer (or package) seconds folded to package shares that sum to 1."""
    total = sum(seconds_by_layer.values())
    out: dict[str, float] = {}
    for layer, seconds in seconds_by_layer.items():
        package = spans.package_of(layer)
        out[package] = out.get(package, 0.0) + seconds / total
    return out


def trace(
    workload: str, seed: int, *, seconds: float, blocks: Optional[int],
    workdir: str, trace_out: Optional[str],
) -> tuple[Measured, dict[str, float]]:
    """The per-layer numbers.  Two scenarios of the same seed, one built
    before the span wrappers go in and one after, run alternate blocks
    (wrappers out for the first, in for the second); the untraced one also
    gives the stats-object counts, one cProfile block and a recovery.
    Never used for an end-to-end number."""
    reference, traced = Measured(), Measured()
    log = spans.SpanLog()
    plain = build(workload, seed, os.path.join(workdir, "plain"), out=reference)
    installed = spans.install(log, roots=timed_unit_roots(workload))
    try:
        instrumented = build(workload, seed, os.path.join(workdir, "traced"))
        try:
            run_block(instrumented, Recorder(), Totals())
            log.clear()
            installed.pause()
            run_block(plain, Recorder(), Totals())
            before = plain.delivery_stats()

            def traced_turn() -> None:
                installed.resume()
                try:
                    run_block(instrumented, traced.recorder, traced.totals)
                finally:
                    installed.pause()

            # alternate, so a slow spell of the host falls on both alike
            for _ in range(blocks or blocks_for(workload, min(seconds / 2, MAX_TRACED_SECONDS))):
                traced_turn()
                run_block(plain, reference.recorder, reference.totals)
        finally:
            installed.pause()
            instrumented.close()
        reference.delivery = {
            key: value - before[key] for key, value in plain.delivery_stats().items()
        }
        profile = profile_block(plain)
        recover(plain, reference, 1)
    finally:
        installed.uninstall()
        plain.close()
    if trace_out:
        log.write(trace_out)
    metrics = stat_metrics(reference)
    metrics.update(layer_metrics(workload, log, traced, reference, profile))
    for rung in spec.LADDER:
        metrics[f"ladder.{rung}_us"] = 0.0
    if workload == "fanout_push":
        metrics.update(ladder(seed, workdir))
    return reference, metrics


def layer_metrics(
    workload: str, log: spans.SpanLog, traced: Measured, reference: Measured,
    profile: pstats.Stats,
) -> dict[str, float]:
    """The span table per op, and how well it agrees with the stopwatch
    and with cProfile."""
    metrics: dict[str, float] = {}
    ops = traced.totals.obligations + traced.totals.control_calls
    table = log.by_layer()
    for layer in spec.LAYERS:
        seconds_self, calls = table.get(layer, (0.0, 0))
        metrics[f"{layer}.self_us_per_op"] = seconds_self * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = calls / ops
    root_seconds = log.root_seconds()
    metrics["trace.unattributed_share"] = table.get(spans.ROOT_LAYER, (0.0, 0))[0] / root_seconds
    kind = "control" if workload == "control_churn" else "publish"
    metrics["trace.overhead_ratio"] = (
        typical(getattr(traced.recorder, kind), traced.recorder.calibrations)
        / typical(getattr(reference.recorder, kind), reference.recorder.calibrations)
    )
    metrics["trace.crosscheck_sum_gap"] = abs(root_seconds - traced.recorder.timed) / traced.recorder.timed
    span_shares = shares_by_package(
        {layer: value[0] for layer, value in table.items() if layer != spans.ROOT_LAYER}
    )
    profile_shares = shares_by_package(spans.profile_by_package(profile))
    metrics["trace.crosscheck_top5_agree"] = len(
        set(spans.top(profile_shares)) & set(spans.top(span_shares))
    )
    metrics["trace.crosscheck_share_gap"] = sum(
        abs(span_shares.get(package, 0.0) - profile_shares.get(package, 0.0))
        for package in set(span_shares) | set(profile_shares)
    ) / 2
    return metrics
