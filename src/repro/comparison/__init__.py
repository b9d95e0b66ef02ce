"""The comparative-study engine: the paper's evaluation, executable.

The paper's contribution *is* a comparison; this package makes that
comparison reproducible against the live implementations:

- :mod:`repro.comparison.tables` -- a small table model with ASCII
  rendering and expected-vs-measured diffing.
- :mod:`repro.comparison.probes` -- runtime probes that determine each
  feature cell *empirically* where possible (e.g. "Support Pull delivery
  mode" is decided by actually attempting a pull-mode subscription against
  that spec version), falling back to version-profile flags for purely
  structural facts (namespace bindings, release dates).
- :mod:`repro.comparison.table1` / :mod:`table2` / :mod:`table3` --
  the paper's three tables, each stated once: Tables 1 and 3 are one row
  list apiece whose rows carry the published cells and how each is
  measured, so ``build_table*`` and ``PAPER_TABLE*`` read the same rows.
- :mod:`repro.comparison.figures` -- trace a full subscribe/notify/manage
  lifecycle on the wire and render the entity/interaction diagrams of
  Fig. 1 (WS-Eventing) and Fig. 2 (WS-BaseNotification).
- :mod:`repro.comparison.experiments` -- experiments E6-E10, one row per
  claim, measured in requests, bytes and Python calls.
"""

from repro.comparison.tables import ComparisonTable, TableDiff
from repro.comparison.table1 import build_table1, PAPER_TABLE1
from repro.comparison.table2 import build_table2, PAPER_TABLE2
from repro.comparison.table3 import build_table3, PAPER_TABLE3
from repro.comparison.figures import trace_wse_architecture, trace_wsn_architecture
from repro.comparison.experiments import EXPERIMENTS, Experiment, python_calls

#: the study as ``python -m repro`` prints it: each table's builder, the
#: published table its diff is against, and its render widths
STUDY = [
    (build_table1, PAPER_TABLE1, dict(label_width=52, cell_width=14)),
    (build_table2, PAPER_TABLE2, dict(label_width=28, cell_width=52)),
    (build_table3, PAPER_TABLE3, dict(label_width=22, cell_width=26)),
]

__all__ = [
    "STUDY",
    "EXPERIMENTS",
    "Experiment",
    "python_calls",
    "ComparisonTable",
    "TableDiff",
    "build_table1",
    "build_table2",
    "build_table3",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "trace_wse_architecture",
    "trace_wsn_architecture",
]
