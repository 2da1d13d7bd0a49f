"""Golden-trace regression: fixed-seed runs must reproduce exactly.

Each fixture in ``tests/golden/`` pins one scenario's final cycle count,
full stats digest, (stall-filtered) trace profile, stall-profiler
accounting and token-ledger digest.  Both engines —
dense and the idle-skipping event engine — are checked against the
*same* fixture, so this suite doubles as a standing cycle-exactness pin
for the event engine, across graph (BFS/SSSP) and host-fed
(COOR-LU/DMR) applications.  One scenario additionally pins its Chrome
trace bytes, one digest per engine.

On an intentional timing/statistics change, regenerate the fixtures via
``python scripts/update_goldens.py`` and commit the JSON diff.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.eval.goldens import SCENARIOS, collect

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"

REGEN = ("regenerate via `python scripts/update_goldens.py` and commit "
         "the diff if the change is intentional")


def _load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), f"missing golden fixture {path}; {REGEN}"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("engine", ["dense", "event"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_run_matches_fixture(name: str, engine: str) -> None:
    expected = _load(name)
    actual = collect(name, engine=engine)
    if "chrome_trace_sha256" in expected:
        assert actual.pop("chrome_trace_sha256")[engine] == \
            expected.pop("chrome_trace_sha256")[engine], (
                f"golden {name!r} ({engine}) Chrome trace drifted; {REGEN}"
            )
    assert actual["cycles"] == expected["cycles"], (
        f"golden {name!r} ({engine}) cycle count drifted: "
        f"{actual['cycles']} != {expected['cycles']}; {REGEN}"
    )
    for section in ("stats", "trace", "profile", "ledger_sha256"):
        assert actual[section] == expected[section], (
            f"golden {name!r} ({engine}) {section} drifted; {REGEN}"
        )
    assert actual == expected, f"golden {name!r} ({engine}) drifted; {REGEN}"


def test_fixtures_cover_every_scenario() -> None:
    """No stale or missing fixtures relative to the scenario table."""
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(SCENARIOS), (
        f"fixtures {sorted(on_disk)} != scenarios {sorted(SCENARIOS)}; "
        f"{REGEN}"
    )
