"""Regenerate the paper's comparative study as a text report.

Prints the measured Tables 1-3 (each cell determined by probing the live
implementations), the traced architecture diagrams of Figs. 1-2, and the
diff of every table against the published cells.

Run:  python examples/spec_evolution_report.py
"""

from repro.comparison import STUDY, trace_wse_architecture, trace_wsn_architecture
from repro.wse.versions import WseVersion


def main() -> None:
    for build, paper, widths in STUDY:
        measured = build()
        print(measured.render(**widths))
        print()
        print("vs paper:", measured.diff(paper).summary())
        print("\n" + "#" * 100 + "\n")

    print(trace_wse_architecture(WseVersion.V2004_08).render())
    print("\n" + "#" * 100 + "\n")
    print(trace_wse_architecture(WseVersion.V2004_01).render())
    print("\n" + "#" * 100 + "\n")
    print(trace_wsn_architecture().render())


if __name__ == "__main__":
    main()
