"""Self-tests of the harness (``python -m pytest benchmarks/e2e -q``).

Not collected by tier-1 (``testpaths = tests``): they test the benchmark's
own arithmetic, patching hygiene, determinism and naming, not the program.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

from benchmarks.e2e import calibrate, runner, spans, spec  # noqa: E402
from benchmarks.e2e.workloads import BY_NAME  # noqa: E402
from benchmarks.e2e.workloads.base import Recorder, Totals  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


# --- self-time arithmetic ----------------------------------------------------------


def make_log(rows):
    """rows: (layer, start, end, parent index)."""
    log = spans.SpanLog()
    ids = {}
    for layer, start, end, parent in rows:
        if layer not in ids:
            ids[layer] = log.register(layer, layer)
        log.name_id.append(ids[layer])
        log.start.append(start)
        log.end.append(end)
        log.parent.append(parent)
        log.publish.append(0)
    return log


def test_self_time_nested_spans():
    log = make_log([("a", 0.0, 10.0, -1), ("b", 2.0, 7.0, 0), ("c", 3.0, 4.0, 1)])
    assert list(log.self_times()) == [5.0, 4.0, 1.0]
    assert log.by_layer() == {"a": (5.0, 1), "b": (4.0, 1), "c": (1.0, 1)}
    assert log.root_seconds() == 10.0


def test_self_time_sibling_spans():
    log = make_log([("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("b", 5.0, 9.0, 0)])
    assert log.by_layer() == {"a": (4.0, 1), "b": (6.0, 2)}


def test_self_time_recursive_spans_count_once():
    # a layer calling itself: the inner span's time is not counted twice
    log = make_log([("a", 0.0, 10.0, -1), ("a", 2.0, 8.0, 0), ("a", 3.0, 4.0, 1)])
    seconds, calls = log.by_layer()["a"]
    assert seconds == pytest.approx(10.0) and calls == 3


def test_layer_self_times_partition_the_root_time():
    log = make_log([
        ("harness", 0.0, 10.0, -1), ("a", 1.0, 9.0, 0), ("b", 2.0, 3.0, 1),
        ("harness", 10.0, 12.0, -1), ("b", 10.5, 11.5, 3),
    ])
    assert sum(s for s, _ in log.by_layer().values()) == pytest.approx(log.root_seconds())


def test_wrapper_records_parent_and_survives_exceptions():
    log = spans.SpanLog()

    def inner():
        raise ValueError("boom")

    wrapped_inner = log.wrap(inner, "inner", "b")
    outer = log.wrap(lambda: wrapped_inner(), "outer", "a")
    with pytest.raises(ValueError):
        outer()
    assert list(log.parent) == [-1, 0]
    assert log.stack == [-1]
    assert all(end >= start for start, end in zip(log.start, log.end))


# --- patch / unpatch hygiene ---------------------------------------------------------


def test_wrap_table_names_real_entry_points_in_known_layers():
    assert set(spans.WRAP_TABLE) == set(spec.LAYERS)
    for specs in spans.WRAP_TABLE.values():
        for entry in specs:
            assert list(spans._expand(entry)), entry


def test_install_covers_from_imports_and_uninstall_leaves_nothing():
    import repro.soap.codec as codec
    import repro.transport.endpoint as endpoint
    from repro.transport.network import SimulatedNetwork

    original_function = codec.parse_envelope
    original_method = vars(SimulatedNetwork)["send_request"]
    assert endpoint.parse_envelope is original_function
    installed = spans.install(spans.SpanLog())
    try:
        assert codec.parse_envelope is not original_function
        # the `from repro.soap.codec import parse_envelope` binding is covered
        assert endpoint.parse_envelope is codec.parse_envelope
        assert vars(SimulatedNetwork)["send_request"] is not original_method
        assert spans.leftover_wrappers()
        installed.pause()
        assert spans.leftover_wrappers() == []
        installed.resume()
        assert endpoint.parse_envelope is codec.parse_envelope is not original_function
    finally:
        installed.uninstall()
    assert codec.parse_envelope is original_function
    assert endpoint.parse_envelope is original_function
    assert vars(SimulatedNetwork)["send_request"] is original_method
    assert spans.leftover_wrappers() == []


def test_traced_block_attributes_time_to_layers(tmp_path):
    log = spans.SpanLog()
    installed = spans.install(log, roots=runner.timed_unit_roots("mesh_fanout"))
    try:
        scenario = runner.build("mesh_fanout", 5, str(tmp_path))
        try:
            log.clear()
            runner.run_block(scenario, Recorder(), Totals())
        finally:
            scenario.close()
    finally:
        installed.uninstall()
    table = log.by_layer()
    assert table["mesh"][1] > 0 and table["store"][1] > 0
    assert table.get("qos", (0, 0))[1] == 0  # the mesh takes no QoS policy
    unattributed = table[spans.ROOT_LAYER][0] / log.root_seconds()
    assert unattributed <= 0.25
    out = tmp_path / "spans.jsonl"
    log.write(str(out))
    first = json.loads(out.read_text().splitlines()[0])
    assert set(first) == {"name", "layer", "start", "end", "parent", "publish"}
    assert spans.leftover_wrappers() == []


# --- determinism --------------------------------------------------------------------


EXACT = ("wire_bytes_per_op", "log_bytes_per_publish", "delivered_share")


def fixed_run(workload: str, seed: int) -> dict:
    """One run of 2 blocks through the real entry point (which pins the hash
    seed itself): everything that must repeat exactly."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0",
         "--rounds", "1", "--blocks", "2"],
        capture_output=True, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    return {
        "counts": lines[0],
        "digest": next(line for line in lines if line.startswith("delivery_digest")),
        "attempted": result["attempted"],
        **{name: result["metrics"][name]["value"] for name in EXACT},
    }


@pytest.mark.parametrize("workload", ["fanout_push", "control_churn", "degraded_pull", "mesh_fanout"])
def test_same_seed_same_counts_different_seed_different_inputs(workload):
    first = fixed_run(workload, 11)
    assert fixed_run(workload, 11) == first
    assert fixed_run(workload, 12)["digest"] != first["digest"]


def test_fanout_push_is_clean_and_degraded_pull_is_not(tmp_path):
    clean = runner.measure("fanout_push", 3, seconds=0.0, rounds=1, blocks=1, workdir=str(tmp_path / "f"))
    assert clean.delivery["retries"] == clean.delivery["parked"] == clean.delivery["shed"] == 0
    assert runner.end_to_end(clean)["delivered_share"] == 1.0
    rough = runner.measure("degraded_pull", 3, seconds=0.0, rounds=1, blocks=1, workdir=str(tmp_path / "d"))
    assert min(rough.delivery[k] for k in ("retries", "parked", "shed", "dead_lettered")) > 0
    assert 0.5 < runner.end_to_end(rough)["delivered_share"] < 1.0
    audit = rough.totals.counters
    assert audit["audit.opened"] == (
        audit["audit.delivered"] + audit["audit.dead_lettered"] + audit["audit.failed"]
        + audit["audit.shed"] + audit["audit.pending"]
    )


# --- names ---------------------------------------------------------------------------


def test_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        committed = json.load(handle)
    assert committed == spec.benchmark_json()
    names = (
        [w["name"] for w in committed["workloads"]]
        + [m["name"] for m in committed["end_to_end"]]
        + [m["name"] for m in committed["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in committed["workloads"]] == list(BY_NAME)
    assert len(committed["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])


def test_run_reports_exactly_the_declared_metrics(tmp_path):
    measured = runner.measure("fanout_push", 1, seconds=0.0, rounds=1, blocks=1, workdir=str(tmp_path))
    assert list(runner.end_to_end(measured)) == [m.name for m in spec.END_TO_END]
    assert set(runner.stat_metrics(measured)) == {name for name, _ in spec.STAT_METRICS}


# --- the estimator ---------------------------------------------------------------------


def test_samples_are_normalised_by_their_adjacent_calibrations():
    ref = calibrate.REFERENCE_SECONDS
    # host at reference speed: the sample reads as measured
    assert calibrate.normalised([(0.040, 0)], [ref, ref]) == [pytest.approx(0.040)]
    # host twice as slow around the sample: the sample counts half
    assert calibrate.normalised([(0.080, 0)], [2 * ref, 2 * ref]) == [pytest.approx(0.040)]
    # the calibrations before and after are averaged
    assert calibrate.normalised([(0.060, 1)], [9.0, ref, 2 * ref]) == [pytest.approx(0.040)]
    samples = [(0.050, 0), (0.044, 1), (0.090, 2)]
    assert calibrate.typical(samples, [ref] * 4) == pytest.approx(0.050)


def measured_at_reference_speed(publish, drain=()):
    ref = calibrate.REFERENCE_SECONDS
    measured = runner.Measured()
    recorder = measured.recorder
    recorder.calibrations.append(ref)
    for series, values in ((recorder.publish, publish), (recorder.drain, drain)):
        for value in values:
            recorder.record(series, value)
            recorder.calibrations[-1] = ref
    return measured


def test_metrics_are_medians_over_the_samples_of_all_rounds():
    measured = measured_at_reference_speed([0.050, 0.047, 0.061, 0.040, 0.044])
    measured.totals.blocks, measured.totals.publishes, measured.totals.obligations = 3, 24, 2400
    measured.setup_seconds += [0.30, 0.21, 0.25]
    measured.subscribe_seconds_per_call += [4e-4, 3e-4, 5e-4]
    measured.recovery += [(0.5, 10_000), (0.3, 10_000), (0.4, 10_000)]
    metrics = runner.end_to_end(measured)
    assert metrics["publish_ms"] == pytest.approx(47.0)
    assert metrics["us_per_delivery"] == pytest.approx(470.0)
    assert metrics["setup_s"] == 0.25
    assert metrics["control_op_us"] == pytest.approx(400.0)
    assert metrics["recovery_ms_per_krecord"] == pytest.approx(40.0)


def test_paced_workloads_add_the_typical_drain_to_the_typical_publish():
    measured = measured_at_reference_speed([0.030, 0.020, 0.025], drain=[0.48, 0.24, 0.36])
    measured.totals.blocks, measured.totals.publishes, measured.totals.obligations = 3, 72, 7200
    measured.setup_seconds.append(0.1)
    measured.subscribe_seconds_per_call.append(1e-4)
    measured.recovery.append((0.1, 1000))
    # 25 ms per publish + 360 ms drain spread over the block's 24 publishes
    assert runner.end_to_end(measured)["publish_ms"] == pytest.approx(40.0)


def test_seconds_become_a_block_count():
    assert runner.blocks_for("fanout_push", 10.0, rounds=3) == 8
    assert runner.blocks_for("mesh_fanout", 10.0, rounds=3) == 22
    assert runner.blocks_for("degraded_pull", 0.1, rounds=3) == 1
