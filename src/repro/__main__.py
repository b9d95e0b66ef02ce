"""``python -m repro``: regenerate the paper's comparative study.

With no arguments, prints the measured Tables 1-3 (diffed against the
published cells), the traced Figures 1-2, the converged-prototype column
and the rows of experiments E6-E10; exit 1 if a table diffs or a row
fails.  Subcommands:

- ``obs-report [--text|--json]`` — run the instrumented mediation demo
  scenario and render the observability report (see :mod:`repro.obs`);
- ``obs-audit`` — re-run the demo and every bundled example under
  instrumentation and check the message-conservation invariants
  (see :mod:`repro.obs.audit`); exit 1 if any book fails to balance;
- ``obs-health [--json]`` — run a scripted minute of degraded traffic
  (store-backed broker + two-shard mesh) with gauges sampled on the
  virtual clock, and report the anomaly probes: queue growth, breaker
  flaps, stale batch timers, conservation drift (see
  :mod:`repro.obs.health`);
- ``obs-top`` — same scenario, rendered as a ``top``-style snapshot:
  non-zero backlogs, the lineage ledger's latest events;
- ``conformance --seed N --cases M`` — deterministic wire-fidelity fuzzing
  by the seven engines of :mod:`repro.conformance`; exit 1 on any failure;
- ``mesh-demo`` — assemble a sharded, federated broker mesh, drive
  cross-shard traffic through a join/leave rebalance, and audit mesh-wide
  message conservation (see :mod:`repro.mesh`); exit 1 if any book fails;
- ``store-demo`` — crash an event-sourced broker mid-workload, rebuild it
  from its log alone, and verify subscription identity, parked obligations
  and conservation survive (see :mod:`repro.store`); exit 1 on any failure.
"""

from __future__ import annotations

import sys


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "obs-report":
        from repro.obs.report import obs_report_main

        return obs_report_main(argv[1:])
    if argv and argv[0] == "obs-audit":
        from repro.obs.audit import obs_audit_main

        return obs_audit_main(argv[1:])
    if argv and argv[0] == "obs-health":
        from repro.obs.health import obs_health_main

        return obs_health_main(argv[1:])
    if argv and argv[0] == "obs-top":
        from repro.obs.health import obs_top_main

        return obs_top_main(argv[1:])
    if argv and argv[0] == "conformance":
        from repro.conformance.cli import conformance_main

        return conformance_main(argv[1:])
    if argv and argv[0] == "mesh-demo":
        from repro.mesh.demo import mesh_demo_main

        return mesh_demo_main(argv[1:])
    if argv and argv[0] == "store-demo":
        from repro.store.demo import store_demo_main

        return store_demo_main(argv[1:])
    if argv:
        print(
            f"unknown subcommand {argv[0]!r}; try: obs-report, obs-audit,"
            " obs-health, obs-top, conformance, mesh-demo, store-demo",
            file=sys.stderr,
        )
        return 2
    from repro.comparison import EXPERIMENTS, STUDY, trace_wse_architecture, trace_wsn_architecture
    from repro.comparison.experiments import TITLE
    from repro.comparison.tables import render_cell
    from repro.convergence import converged_table_column

    failures = 0
    for build, paper, widths in STUDY:
        measured = build()
        print(measured.render(**widths))
        diff = measured.diff(paper)
        print()
        print("vs paper:", diff.summary())
        print("\n" + "#" * 100 + "\n")
        if not diff.clean:
            failures += 1

    print(trace_wse_architecture().render())
    print("\n" + "#" * 100 + "\n")
    print(trace_wsn_architecture().render())
    print("\n" + "#" * 100 + "\n")

    print("WS-EventNotification prototype (the convergence the paper anticipates):")
    for label, value in converged_table_column().items():
        print(f"  {label:52s} {render_cell(value)}")
    print("\n" + "#" * 100 + "\n")

    print(TITLE + "\n" + "=" * len(TITLE))
    for row in EXPERIMENTS:
        text, held = row.result()
        print(f"{row.id:18s}{row.claim}\n{'':18s}{text}")
        failures += not held
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
