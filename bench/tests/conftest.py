"""Run with ``pytest bench/tests`` from the repository root.

The benchmark modules are scripts that import each other by bare name
(``python3 bench/run.py`` puts ``bench/`` on ``sys.path``); the tests
get the same view, plus ``src/`` for the program itself.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
