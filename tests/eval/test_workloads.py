"""Input recipes: one app's source builds only that app's input, and every
recipe builds the input it always has (pinned before the recipes were
rewritten, so a change to any generator argument fails here)."""

import dataclasses
import functools
import hashlib
import json
import subprocess
import sys

import pytest

from repro.apps.registry import APP_BUILDERS, app_builder
from repro.errors import InputError
from repro.eval.workloads import (
    ORDERED_CONFIG,
    WIDE_CONFIG,
    app_input,
    default_workloads,
)
from repro.exec import WorkloadSource
from repro.substrates.graphs import CSRGraph

LU_INPUT = "block_size=24, density=0.3, grid=8, seed=7"

# build_app arguments of every app's CLI input (WorkloadSource(app, 0.5)):
# graphs by the first 16 hex digits of their CSR digest.
CLI_INPUTS = {
    "COOR-BFS": "csr:141a8d95080127f0, 0",
    "COOR-LU": LU_INPUT,
    "COOR-SSSP": "csr:3ade23d1dc179a4f",
    "SPEC-BFS": "csr:141a8d95080127f0, 0",
    "SPEC-CC": "csr:3ade23d1dc179a4f",
    "SPEC-DMR": "n_points=70, seed=3",
    "SPEC-MST": "csr:0478951431d27652",
    "SPEC-SSSP": "csr:141a8d95080127f0, 0",
}

# default_workloads rows: (input, params, profile digest) per scale, and
# (replicas, config) per app, the same at every scale.
ROWS = {
    (0.3, "SPEC-BFS"): (
        "csr:141a8d95080127f0, 0", {"graph": "rmat 2^8"}, "16d5e16f9f12fdda"),
    (0.3, "COOR-BFS"): (
        "csr:141a8d95080127f0, 0", {"graph": "rmat 2^8"}, "16d5e16f9f12fdda"),
    (0.3, "SPEC-SSSP"): (
        "csr:141a8d95080127f0, 0", {"graph": "rmat 2^8"}, "f16f72b574d14987"),
    (0.3, "SPEC-MST"): (
        "csr:37430917616d8688", {"graph": "random 180v"}, "11a099333686d6a6"),
    (0.3, "SPEC-DMR"): (
        "n_points=42, seed=3", {"points": 42}, "d6315db6d8f965a2"),
    (0.3, "COOR-LU"): (
        LU_INPUT, {"grid": 8, "block": 24}, "d27a0ad944dc0006"),
    (0.5, "SPEC-BFS"): (
        "csr:141a8d95080127f0, 0", {"graph": "rmat 2^8"}, "16d5e16f9f12fdda"),
    (0.5, "COOR-BFS"): (
        "csr:141a8d95080127f0, 0", {"graph": "rmat 2^8"}, "16d5e16f9f12fdda"),
    (0.5, "SPEC-SSSP"): (
        "csr:141a8d95080127f0, 0", {"graph": "rmat 2^8"}, "f16f72b574d14987"),
    (0.5, "SPEC-MST"): (
        "csr:0478951431d27652", {"graph": "random 300v"}, "a39e9677f0622df1"),
    (0.5, "SPEC-DMR"): (
        "n_points=70, seed=3", {"points": 70}, "f4a68e91a6f76b83"),
    (0.5, "COOR-LU"): (
        LU_INPUT, {"grid": 8, "block": 24}, "d27a0ad944dc0006"),
    (1.0, "SPEC-BFS"): (
        "csr:25591b3e1c1521ba, 0", {"graph": "rmat 2^9"}, "58bb4678a77516da"),
    (1.0, "COOR-BFS"): (
        "csr:25591b3e1c1521ba, 0", {"graph": "rmat 2^9"}, "58bb4678a77516da"),
    (1.0, "SPEC-SSSP"): (
        "csr:25591b3e1c1521ba, 0", {"graph": "rmat 2^9"}, "88f3efae4a3e99a7"),
    (1.0, "SPEC-MST"): (
        "csr:75987f10ff42897b", {"graph": "random 600v"}, "5b29fdda48135b2e"),
    (1.0, "SPEC-DMR"): (
        "n_points=140, seed=3", {"points": 140}, "59f50d038c1614c5"),
    (1.0, "COOR-LU"): (
        LU_INPUT, {"grid": 8, "block": 24}, "d27a0ad944dc0006"),
}
SETTINGS = {
    "SPEC-BFS": ({"visit": 4, "update": 2}, "WIDE"),
    "COOR-BFS": ({"visit": 4}, "WIDE"),
    "SPEC-SSSP": ({"relax": 4}, "WIDE"),
    "SPEC-MST": ({"mstedge": 2}, "ORDERED"),
    "SPEC-DMR": ({"refine": 2}, "ORDERED"),
    "COOR-LU": ({"lutask": 2}, "ORDERED"),
}


def _canonical(args, kwargs) -> str:
    parts = [f"csr:{a.digest()[:16]}" if isinstance(a, CSRGraph) else repr(a)
             for a in args]
    parts += [f"{k}={v!r}" for k, v in sorted(kwargs.items())]
    return ", ".join(parts)


def _builder_arguments(monkeypatch, app, build) -> str:
    """The arguments ``build()`` hands ``app``'s registered builder."""
    real = app_builder(app)
    seen = []

    def recording(*args, **kwargs):
        seen.append(_canonical(args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setitem(APP_BUILDERS, app, recording)
    assert build().name == app
    [arguments] = seen
    return arguments


def _profile_digest(profile) -> str:
    blob = json.dumps(dataclasses.asdict(profile), sort_keys=True,
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def _table(scale):
    return default_workloads(scale)


@pytest.mark.parametrize("app", sorted(CLI_INPUTS))
def test_cli_input_is_pinned(monkeypatch, app):
    source = WorkloadSource(app, 0.5)
    assert _builder_arguments(monkeypatch, app, source.build) \
        == CLI_INPUTS[app]


@pytest.mark.parametrize("scale, app", list(ROWS))
def test_default_workload_row_is_pinned(monkeypatch, scale, app):
    workload = _table(scale)[app]
    arguments, params, profile = ROWS[scale, app]
    replicas, config = SETTINGS[app]
    assert _builder_arguments(monkeypatch, app, workload.build_spec) \
        == arguments
    assert workload.params == params
    assert workload.replicas == replicas
    assert workload.config == {"WIDE": WIDE_CONFIG,
                               "ORDERED": ORDERED_CONFIG}[config]
    assert _profile_digest(workload.profile) == profile
    assert workload.source == WorkloadSource(app, max(0.25, scale))


def test_graph_apps_share_one_memoized_graph():
    graphs = [app_input(app, 1.0)[0][0]
              for app in ("SPEC-BFS", "COOR-BFS", "SPEC-SSSP")]
    assert graphs[0] is graphs[1] is graphs[2]


# Counts the generator and profile calls of each source's build in a fresh
# interpreter, where no earlier build has memoized an input.
_COUNT_CALLS = """
import sys
import repro.eval.workloads as workloads
from repro.exec import WorkloadSource

calls = []
def counting(name, real):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapper
for name in dir(workloads):
    if name.endswith("_profile") or name in (
            "rmat_graph", "random_graph", "road_network",
            "make_sparselu_instance"):
        setattr(workloads, name, counting(name, getattr(workloads, name)))
for app in sys.argv[1:]:
    calls.clear()
    WorkloadSource(app, 0.5).build()
    print(app, *calls)
"""


def test_a_source_generates_only_its_own_input():
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_CALLS, "SPEC-BFS", "SPEC-CC"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.splitlines() == [
        "SPEC-BFS rmat_graph",
        "SPEC-CC random_graph",
    ]


def test_unknown_app_raises_the_registry_error():
    with pytest.raises(InputError,
                       match=r"^unknown benchmark 'NOPE'; known: \["):
        WorkloadSource("NOPE", 0.5).build()
