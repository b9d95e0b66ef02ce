"""Experiments E6-E10 as rows: a failed row fails the study, and the one
call counter counts no garbage collection and every comprehension frame
unless told to leave them out.

What each row measures is pinned in ``golden/study.txt``.
"""

from __future__ import annotations

import gc
import sys

import pytest

import repro.comparison
from repro.__main__ import main
from repro.comparison import Experiment, python_calls


def _raises():
    raise RuntimeError("no broker")


@pytest.mark.parametrize(
    "measure, shown",
    [(lambda: ("3 requests", False), "FAILED: 3 requests"), (_raises, "FAILED: no broker")],
    ids=["claim-not-held", "measurement-raised"],
)
def test_a_failed_row_renders_failed_and_the_study_exits_1(monkeypatch, capsys, measure, shown):
    row = Experiment("E0", "a claim", measure)
    assert row.result() == (shown, False)
    monkeypatch.setattr(repro.comparison, "EXPERIMENTS", [row])
    assert main([]) == 1
    assert capsys.readouterr().out.endswith(f"E0                a claim\n{'':18s}{shown}\n")


class _Cycle:
    def __init__(self):
        self.me = self

    def __del__(self):
        pass


def _drop_a_cycle_then_allocate():
    _Cycle()
    return list(map(list, "allocate"))  # eight lists, and no Python call


def test_a_collection_inside_the_window_runs_no_counted_finalizer():
    # with the collector on, the allocation collects the dropped cycle and
    # its __del__ is counted as a third call
    threshold = gc.get_threshold()
    gc.collect()
    gc.set_threshold(1)
    try:
        calls, _ = python_calls(_drop_a_cycle_then_allocate)
    finally:
        gc.set_threshold(*threshold)
        gc.collect()
    assert calls == 2  # the function and _Cycle.__init__


@pytest.mark.parametrize("collecting", [True, False])
def test_the_counter_restores_the_collector(collecting):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert python_calls(gc.isenabled) == (0, False)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def _comprehend():
    return [c for c in "ab"]


def test_comprehension_frames_are_counted_unless_left_out():
    # CPython 3.12 inlines a comprehension (PEP 709); earlier versions call it
    framed = sys.version_info < (3, 12)
    assert python_calls(_comprehend) == (1 + framed, ["a", "b"])
    assert python_calls(_comprehend, comprehensions=False) == (1, ["a", "b"])
