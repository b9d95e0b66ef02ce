"""The host-speed yardstick that timing metrics are normalised by.

This box slows down by up to half for seconds to minutes at a time (other
tenants on the same cores and caches), and a spell can outlast a whole run,
so neither a median nor a floor of raw wall time repeats within a tenth.
What does repeat is the *ratio* of a sample's wall time to a fixed,
program-independent loop timed right before and after it: both slow down
together.  Every timing metric is therefore::

    median over samples of  sample wall / (adjacent calibration / REFERENCE_SECONDS)

that is, wall time at the host's reference speed.  The loop touches no
``repro`` code, so no change to the program can move the yardstick.
"""

from __future__ import annotations

import statistics
import time

#: what ``calibrate()`` takes on this box when nothing disturbs it (1st
#: percentile of 5 minutes of calls); a constant, so that runs compare
REFERENCE_SECONDS = 1.64e-3

_perf = time.perf_counter


class _Node:
    __slots__ = ("name", "attrs", "children")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.children: list = []


def _tree(depth: int) -> _Node:
    node = _Node("n%d" % depth, {"depth": depth})
    if depth:
        node.children.append(_tree(depth - 1))
        node.children.append(_tree(depth - 1))
    return node


def _walk(node: _Node) -> int:
    return len(node.name) + sum(_walk(child) for child in node.children)


def calibrate() -> float:
    """Seconds for a fixed mix of what the program does all day: string
    building, dict updates, small-object allocation, recursive calls."""
    started = _perf()
    table: dict[int, str] = {}
    total = 0
    for i in range(8000):
        table[i & 1023] = str(i)
        total += len(table[i & 1023])
    total += _walk(_tree(9))
    return _perf() - started


def normalised(samples: list[tuple[float, int]], calibrations: list[float]) -> list[float]:
    """Each (wall, index of the calibration before it) at reference speed."""
    return [
        wall * REFERENCE_SECONDS * 2 / (calibrations[index] + calibrations[index + 1])
        for wall, index in samples
    ]


def typical(samples: list[tuple[float, int]], calibrations: list[float]) -> float:
    """The metric estimator: median of the normalised samples."""
    return statistics.median(normalised(samples, calibrations))
