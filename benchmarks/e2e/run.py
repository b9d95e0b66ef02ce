"""Entry point: ``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``.

Puts the checkout root and ``src/`` on the path (the program is pure Python:
nothing to build) and pins ``PYTHONHASHSEED=0`` by re-executing itself, so
set and dict iteration order - and with it every count - repeats exactly.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bootstrap() -> None:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.stderr.write(f"benchmarks/e2e: no program to measure: {ROOT}/src/repro is missing\n")
        raise SystemExit(2)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.orig_argv[1:]], env)
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
