#!/usr/bin/env python
"""Regenerate the golden regression fixtures under ``tests/golden/``.

Run this (from the repository root) after an *intentional* change to
simulated timing or statistics, review the resulting JSON diff, and
commit it alongside the change that caused it:

    python scripts/update_goldens.py

The scenarios themselves are defined in ``repro.eval.goldens``; the
fixtures pin the dense and event-engine executions alike, so a diff
here means observable simulator behaviour moved.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.eval.goldens import SCENARIOS, collect  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"


def main() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(SCENARIOS):
        data = collect(name)
        if "chrome_trace_sha256" in data:
            # Chrome traces differ by engine: pin one digest for each.
            for engine in ("dense", "event"):
                data["chrome_trace_sha256"].update(
                    collect(name, engine=engine)["chrome_trace_sha256"]
                )
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(ROOT)} ({data['cycles']} cycles)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
