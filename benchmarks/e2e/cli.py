"""Command line: the driver's one-run protocol and the suite for people.

One run (``--trace`` given, exactly one ``--workload``) happens in this
process and ends with the one-line JSON result the driver reads.  Without
``--trace`` the suite runs: every selected workload alone in a fresh child
process, one after another (the box has two shared cores), untraced first,
then the traced pass, and a table of every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Optional

from . import runner, spec
from .run import ROOT
from .workloads.base import OracleError

WORK_ROOT = os.path.join(ROOT, ".bench_e2e")
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SUITE_SECONDS = 6.0
E2E_UNITS = {m.name: m.unit for m in spec.END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in spec.per_layer_metrics()}
WORKLOAD_NAMES = [w.name for w in spec.WORKLOADS]


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run, as work at reference host speed "
                             "(default: 8 for one run, 6 in the suite)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run in this process: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--rounds", type=int, default=3,
                        help="rebuilds of the scenario inside one untraced run")
    parser.add_argument("--blocks", type=int, default=None,
                        help="fixed number of measured blocks per round instead of --seconds")
    parser.add_argument("--trace-out", default=None,
                        help="where the traced pass writes its spans (JSON lines)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round x 2 blocks per workload, untraced, oracles on")
    parser.add_argument("--list", action="store_true",
                        help="print workloads and metrics with units and bounds")
    parser.add_argument("--check-repeat", action="store_true",
                        help="run two sets back to back and compare them against the bounds")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the suite's result as JSON")
    return parser.parse_args(argv)


# --- one run, in this process --------------------------------------------------------


def run_once(args: argparse.Namespace) -> int:
    workload = args.workload[0]
    seconds = 8.0 if args.seconds is None else args.seconds
    workdir = runner.work_directory(WORK_ROOT, workload)
    try:
        if args.trace:
            trace_out = args.trace_out or os.path.join(WORK_ROOT, "trace", f"{workload}.jsonl")
            os.makedirs(os.path.dirname(trace_out), exist_ok=True)
            measured, metrics = runner.trace(
                workload, args.seed, seconds=seconds, blocks=args.blocks,
                workdir=workdir, trace_out=trace_out,
            )
            units = LAYER_UNITS
        else:
            measured = runner.measure(
                workload, args.seed, seconds=seconds, rounds=args.rounds,
                blocks=args.blocks, workdir=workdir,
            )
            metrics = runner.end_to_end(measured)
            units = E2E_UNITS
    except OracleError as error:
        sys.stderr.write(f"oracle failed, no metrics: {error}\n")
        return 1
    finally:
        runner.cleanup(workdir)
    assert set(metrics) == set(units), sorted(set(metrics) ^ set(units))
    totals = measured.totals
    print(f"workload {workload} seed {args.seed} blocks {totals.blocks} "
          f"publishes {totals.publishes} obligations {totals.obligations} "
          f"control_calls {totals.control_calls}")
    print(f"delivery_digest {totals.actual_digest.hexdigest()}")
    for name in units:
        print(f"{name:45s} {metrics[name]:16.4f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": runner.attempted_ops(measured),
        # an op that is not in its expected state aborts the run above
        "failed": 0,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }))
    return 0


# --- the suite -------------------------------------------------------------------------


def child(workload: str, args: argparse.Namespace, trace: int, seconds: float) -> dict:
    """One workload alone in a fresh process; its one-line JSON result."""
    command = [
        sys.executable, RUN_PY, "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(trace), "--rounds", str(args.rounds),
    ]
    if args.blocks is not None:
        command += ["--blocks", str(args.blocks)]
    if trace and args.trace_out:
        command += ["--trace-out", args.trace_out]
    done = subprocess.run(
        command, capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run failed with exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(args: argparse.Namespace, workloads: list[str], seconds: float, traced: bool) -> dict:
    result = {}
    for workload in workloads:
        print(f"# {workload}: untraced run", flush=True)
        plain = child(workload, args, 0, seconds)
        entry = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
        }
        if traced:
            print(f"# {workload}: traced pass", flush=True)
            layers = child(workload, args, 1, seconds)
            entry["per_layer"] = {k: v["value"] for k, v in layers["metrics"].items()}
        result[workload] = entry
    return result


def print_set(result: dict) -> None:
    names = list(result)
    width = max(len(n) for n in names) + 2
    print("\nend to end (timings at reference host speed)".ljust(48) + "".join(n.rjust(width) for n in names))
    for metric in spec.END_TO_END:
        cells = "".join(f"{result[n]['end_to_end'][metric.name]:{width}.4g}" for n in names)
        print(f"{metric.name + ' [' + metric.unit + ']':47s}{cells}   bound {metric.bound}")
    print("ops attempted".ljust(47) + "".join(str(result[n]["attempted"]).rjust(width) for n in names))
    print("ops failed".ljust(47) + "".join(str(result[n]["failed"]).rjust(width) for n in names))
    if "per_layer" not in result[names[0]]:
        return
    print("\nper layer (traced pass; self time per op)".ljust(48) + "".join(n.rjust(width) for n in names))
    for name, unit in LAYER_UNITS.items():
        cells = "".join(f"{result[n]['per_layer'][name]:{width}.4g}" for n in names)
        print(f"{name + ' [' + unit + ']':47s}{cells}")


def print_list() -> None:
    print("workloads")
    for workload in spec.WORKLOADS:
        print(f"  {workload.name:15s} {workload.why}")
    print("\nend-to-end metrics (bound = allowed worsening)")
    for m in spec.END_TO_END:
        print(f"  {m.name:26s} {m.unit:6s} {m.better:7s} bound {m.bound:<5} {m.what}")
    print("\nper-layer metrics")
    for name, unit, better in spec.per_layer_metrics():
        print(f"  {name:45s} {unit:6s} {better}")


def layer_share(layers: dict, *prefixes: str) -> float:
    """Share of the span table's self time under the given layers."""
    own = {
        name: value for name, value in layers.items() if name.endswith(".self_us_per_op")
    }
    picked = sum(value for name, value in own.items() if name.startswith(prefixes))
    return picked / sum(own.values())


def acceptance_failures(result: dict) -> list[str]:
    """What a full traced set must show: the trace covers the stopwatch, and
    the workloads discriminate between layers (ISSUE acceptance criteria)."""
    failures = []

    def require(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    for workload, entry in result.items():
        layers = entry["per_layer"]
        require(layers["trace.unattributed_share"] <= 0.25,
                f"{workload}: unattributed share above 0.25: extend the wrap table")
        require(layers["trace.crosscheck_sum_gap"] <= 0.05,
                f"{workload}: spans and stopwatch differ by more than 5%")
        require(layers["trace.crosscheck_top5_agree"] >= 3,
                f"{workload}: span table and cProfile share fewer than 3 of their top 5 packages")
        mesh = layer_share(layers, "mesh.")
        require((mesh > 0) == (workload == "mesh_fanout"),
                f"{workload}: mesh self-time share is {mesh:.3f}")
        matching = layer_share(layers, "filters.", "xmlkit.xpath.")
        if workload == "match_sparse":
            require(matching >= 0.5, f"match_sparse: matching is only {matching:.2f} of self time")
        if workload == "fanout_push":
            require(matching <= 0.10, f"fanout_push: matching is {matching:.2f} of self time")
            rungs = [layers[f"ladder.{rung}_us"] for rung in spec.LADDER]
            require(all(b >= a * 0.95 for a, b in zip(rungs, rungs[1:])),
                    f"fanout_push: ladder not monotone within 5%: {rungs}")
        rough = [layers[name] for name in ("delivery.retries", "delivery.parked", "qos.shed")]
        if workload == "fanout_push":
            require(not any(rough), f"fanout_push: retries/parked/shed are {rough}")
        if workload == "degraded_pull":
            require(all(rough), f"degraded_pull: retries/parked/shed are {rough}")
    return failures


def check_repeat(first: dict, second: dict) -> int:
    """Relative difference of two sets of the same commit against the bounds."""
    breaches = 0
    print("\nrepeatability: |second - first| / first, against the bound")
    for metric in spec.END_TO_END:
        for workload in first:
            a = first[workload]["end_to_end"][metric.name]
            b = second[workload]["end_to_end"][metric.name]
            difference = abs(b - a) / abs(a)
            verdict = "ok" if difference <= metric.bound else "BREACH"
            breaches += verdict != "ok"
            print(f"  {metric.name:26s} {workload:15s} {difference:8.4f}  bound {metric.bound:<5} {verdict}")
    return breaches


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.list:
        print_list()
        return 0
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            raise SystemExit("--trace needs exactly one --workload")
        return run_once(args)
    workloads = args.workload or WORKLOAD_NAMES
    seconds = SUITE_SECONDS if args.seconds is None else args.seconds
    if args.smoke:
        args.rounds, args.blocks = 1, 2
    traced = not (args.smoke or args.check_repeat)
    first = run_set(args, workloads, seconds, traced=traced)
    print_set(first)
    document = {"seed": args.seed, "seconds": seconds, "claim": None, "workloads": first}
    status = 0
    if traced:
        failures = acceptance_failures(first)
        print("\nchecks: " + ("all passed" if not failures else ""))
        for failure in failures:
            print(f"  FAILED {failure}")
        status = 1 if failures else 0
    if args.check_repeat:
        second = run_set(args, workloads, seconds, traced=False)
        print_set(second)
        document["repeat"] = second
        status = 1 if check_repeat(first, second) else status
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status
