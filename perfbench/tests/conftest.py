"""Make the benchmark's modules and the program importable for its tests.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent
for path in (BENCH_DIR, REPO_ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
