"""The comparative study, pinned byte for byte.

``golden/study.txt`` is the stdout of ``python -m repro`` (Tables 1-3 with
their diffs against the paper, Figs. 1-2 and the converged column) and
``golden/table1_extended.txt`` is ``build_table1_extended().render()``, both
recorded before the tables were restated as row lists.  A golden is a record
of what the study printed; it is not re-recorded to make a cell pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.comparison.table1 import build_table1_extended

GOLDEN = Path(__file__).parent / "golden"


def test_python_m_repro_prints_the_recorded_study():
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONIOENCODING": "utf-8"}
    run = subprocess.run(
        [sys.executable, "-m", "repro"], capture_output=True, encoding="utf-8", env=env
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / "study.txt").read_text(encoding="utf-8")


def test_extended_table1_renders_as_recorded():
    recorded = (GOLDEN / "table1_extended.txt").read_text(encoding="utf-8")
    assert build_table1_extended().render() == recorded
