"""The benchmark of record: host time, simulated cycles and per-layer cost.

Run it from the repository root with ``python3 -m bench.run``; see
``bench/README.md`` for the workloads, the metrics and how to read them.

Importing the package puts the checkout's ``src/`` first on ``sys.path``,
so the benchmark always measures the program it ships beside, never an
installed copy; without that directory the import fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    raise ImportError(f"no program sources at {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
