"""Default evaluation workloads: one input recipe per benchmark.

The paper evaluates BFS/SSSP on the DIMACS USA road network (23.9M
vertices), MST on road-class graphs, DMR on Kulkarni et al.'s meshes and LU
on BOTS matrices.  At laptop scale no single graph can reproduce both
properties the USA input has — thousands of BFS levels *and* thousands of
vertices of parallel work per level — so the harness splits them:

* Table 1 uses a narrow road lattice (the level count is what kills the
  host-coordinated OpenCL schedule; ``run_table1`` generates it);
* Figures 9/10 use a wide scale-free (RMAT) graph for BFS/SSSP so the
  accelerator runs in the bandwidth-bound regime the full-size road input
  creates (see EXPERIMENTS.md for the substitution argument).

:func:`app_input` is the one recipe for every registered app's input: the
``build_app`` arguments at a scale.  Each generated graph or matrix is
built once per process, so the three graph apps share one R-MAT graph and
a forked pool worker inherits what its parent built; specs only read
their inputs.  :class:`~repro.exec.WorkloadSource` builds one app's spec
from it, and :func:`default_workloads` adds the CPU profile and the
accelerator configuration the heuristic tuner would pick at evaluation
scale: pipeline replicas and rule lanes for the wide graph applications,
the deterministic-reservation window for the ordered ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.spec import ApplicationSpec
from repro.exec.job import WorkloadSource
from repro.cpu.counters import (
    WorkloadProfile,
    bfs_profile,
    dmr_profile,
    lu_profile,
    mst_profile,
    sssp_profile,
)
from repro.sim.accelerator import SimConfig
from repro.substrates.graphs.generators import random_graph, rmat_graph
from repro.substrates.sparse.block import make_sparselu_instance

# Wide graph applications: many pipelines, lanes sized so lane occupancy
# across the ~40-cycle load shadow does not throttle issue.
WIDE_CONFIG = SimConfig(station_depth=16, rule_lanes=128)
# Ordered applications: the rule-lane count doubles as the deterministic-
# reservation window.
ORDERED_CONFIG = SimConfig(station_depth=8, rule_lanes=32,
                           minimum_broadcast_interval=6)

# The Figure 9 apps' simulator settings: (config, pipeline replicas).
_SETTINGS = {
    "SPEC-BFS": (WIDE_CONFIG, {"visit": 4, "update": 2}),
    "COOR-BFS": (WIDE_CONFIG, {"visit": 4}),
    "SPEC-SSSP": (WIDE_CONFIG, {"relax": 4}),
    "SPEC-MST": (ORDERED_CONFIG, {"mstedge": 2}),
    "SPEC-DMR": (ORDERED_CONFIG, {"refine": 2}),
    "COOR-LU": (ORDERED_CONFIG, {"lutask": 2}),
}
APP_NAMES = tuple(_SETTINGS)

_RMAT_APPS = ("SPEC-BFS", "COOR-BFS", "SPEC-SSSP")
_LU_ARGS = {"grid": 8, "block_size": 24, "density": 0.30, "seed": 7}


@functools.cache
def _rmat(scale: int):
    return rmat_graph(scale, edge_factor=8, seed=4)


@functools.cache
def _random(vertices: int, edges: int, seed: int):
    return random_graph(vertices, edges, seed=seed)


@functools.cache
def _lu_matrix():
    return make_sparselu_instance(_LU_ARGS["grid"], _LU_ARGS["block_size"],
                                  _LU_ARGS["density"], seed=_LU_ARGS["seed"])


def _rmat_scale(s: float) -> int:
    return 9 if s >= 0.75 else 8


def app_input(app: str, scale: float = 1.0) -> tuple[tuple, dict[str, Any]]:
    """``app``'s input at ``scale`` as ``build_app`` arguments.

    Scales below 0.25 are clamped to 0.25.  An unknown app gets no
    arguments, and ``build_app`` raises the registry's ``InputError``.
    """
    s = max(0.25, scale)
    if app in _RMAT_APPS:
        return (_rmat(_rmat_scale(s)), 0), {}
    if app == "SPEC-MST":
        return (_random(int(600 * s), int(1800 * s), 5),), {}
    if app == "SPEC-DMR":
        return (), {"n_points": int(140 * s), "seed": 3}
    if app == "COOR-LU":
        return (), dict(_LU_ARGS)
    if app in ("SPEC-CC", "COOR-SSSP"):
        return (_random(200, 500, 1),), {}
    return (), {}


@dataclass
class Workload:
    """An application spec plus its matched CPU profile and sim settings."""

    app: str
    spec_builder: Callable[[], ApplicationSpec]
    profile: WorkloadProfile
    params: dict[str, Any]
    config: SimConfig = field(default_factory=SimConfig)
    replicas: dict[str, int] | None = None
    # Declarative, picklable recipe for spec_builder (same spec, rebuilt
    # inside a pool worker); every sweep job of this workload runs it.
    source: Any = None

    def build_spec(self) -> ApplicationSpec:
        return self.spec_builder()


def _profile_and_params(app: str, s: float) -> tuple[WorkloadProfile, dict]:
    """The CPU profile of ``app``'s input and its table parameters."""
    args, kwargs = app_input(app, s)
    if app in _RMAT_APPS:
        profile = sssp_profile if app == "SPEC-SSSP" else bfs_profile
        return profile(*args), {"graph": f"rmat 2^{_rmat_scale(s)}"}
    if app == "SPEC-MST":
        graph = args[0]
        return mst_profile(graph), {"graph": f"random {graph.num_vertices}v"}
    if app == "SPEC-DMR":
        points = kwargs["n_points"]
        return dmr_profile(points, kwargs["seed"]), {"points": points}
    return lu_profile(_lu_matrix()), {"grid": kwargs["grid"],
                                      "block": kwargs["block_size"]}


def default_workloads(scale: float = 1.0) -> dict[str, Workload]:
    """The default per-benchmark inputs, optionally scaled."""
    s = max(0.25, scale)
    table = {}
    for app, (config, replicas) in _SETTINGS.items():
        source = WorkloadSource(app, s)
        profile, params = _profile_and_params(app, s)
        table[app] = Workload(app, source.build, profile, params,
                              config=config, replicas=dict(replicas),
                              source=source)
    return table
