"""Seeded benchmark inputs, built from the program's public generators.

``make_workloads(seed, scale)`` returns the same ``Workload`` table that
:func:`repro.eval.workloads.default_workloads` does, except that every
input is drawn from ``seed``.  Seed 0 reproduces the defaults exactly
(the generator seeds below are the ones ``default_workloads`` hard-codes);
any other seed shifts the generator seeds, so the graphs, meshes and
matrices change while their sizes and the accelerator settings do not.
SPEC-SSSP is the exception: it keeps its seed-0 graph (see
:func:`input_seeds`).

The simulator settings (``SimConfig`` and pipeline replicas) are borrowed
from ``default_workloads`` unchanged, so a change to the program's
defaults shows up in the benchmark.  The input sizes are repeated here
because ``default_workloads`` does not expose them; the seed-0 test in
``bench/tests`` fails if the two drift apart.

As in ``default_workloads``, a workload's ``spec_builder`` closes over
inputs generated once, up front.  Its ``source`` is a
:class:`~repro.exec.CallableSource` around :func:`build_spec` with a key
naming the input, so a sweep point pickles into a pool worker, generates
its input there and caches like the program's own ``WorkloadSource``.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Any

import bench  # noqa: F401  (puts the checkout's src/ on sys.path)
from repro.apps.registry import build_app
from repro.core.spec import ApplicationSpec
from repro.cpu.counters import (
    WorkloadProfile,
    bfs_profile,
    dmr_profile,
    lu_profile,
    mst_profile,
    sssp_profile,
)
from repro.eval.workloads import Workload, default_workloads
from repro.exec import CallableSource
from repro.substrates.graphs.generators import random_graph, rmat_graph
from repro.substrates.sparse.block import make_sparselu_instance

# The generator seeds default_workloads uses; seed n adds n * SEED_STRIDE.
BASE_SEEDS = {"rmat": 4, "mst": 5, "dmr": 3, "lu": 7}
SEED_STRIDE = 1009

GRAPH_APPS = ("SPEC-BFS", "COOR-BFS", "SPEC-SSSP")
LU_GRID, LU_BLOCK, LU_DENSITY = 8, 24, 0.30


def input_seeds(seed: int) -> dict[str, int]:
    """Per-generator seeds for benchmark seed ``seed`` (at least 0)."""
    if seed < 0:
        raise ValueError(f"benchmark seeds are non-negative, got {seed}")
    seeds = {name: base + SEED_STRIDE * seed
             for name, base in BASE_SEEDS.items()}
    # SPEC-SSSP keeps the seed-0 graph at every seed: at its workload
    # settings the simulator deadlocks on 5 of 12 other rmat graphs tried
    # (and from 5 of 6 other source vertices of this one), and no
    # benchmark input may fail.  bench/README.md, "Seed policy".
    seeds["sssp"] = BASE_SEEDS["rmat"]
    return seeds


def _graph_seed(app: str, seed: int) -> int:
    return input_seeds(seed)["sssp" if app == "SPEC-SSSP" else "rmat"]


def generate_input(app: str, scale: float, seed: int) -> Any:
    """``app``'s generated input: a graph, a point count or a matrix."""
    s = max(0.25, scale)
    seeds = input_seeds(seed)
    if app in GRAPH_APPS:
        return rmat_graph(9 if s >= 0.75 else 8, edge_factor=8,
                          seed=_graph_seed(app, seed))
    if app == "SPEC-MST":
        return random_graph(int(600 * s), int(1800 * s), seed=seeds["mst"])
    if app == "SPEC-DMR":
        return int(140 * s)
    if app == "COOR-LU":
        return make_sparselu_instance(LU_GRID, LU_BLOCK, LU_DENSITY,
                                      seed=seeds["lu"])
    raise KeyError(f"no benchmark input for {app!r}")


def spec_from_input(app: str, data: Any, seed: int) -> ApplicationSpec:
    """Build ``app``'s spec over an input from :func:`generate_input`."""
    if app in GRAPH_APPS:
        return build_app(app, data, 0)
    if app == "SPEC-MST":
        return build_app(app, data)
    if app == "SPEC-DMR":
        return build_app(app, n_points=data, seed=input_seeds(seed)["dmr"])
    # COOR-LU regenerates its matrix from the seed, as default_workloads'.
    return build_app(app, grid=LU_GRID, block_size=LU_BLOCK,
                     density=LU_DENSITY, seed=input_seeds(seed)["lu"])


def build_spec(app: str, scale: float, seed: int) -> ApplicationSpec:
    """Generate the input and build the spec (module-level: picklable)."""
    return spec_from_input(app, generate_input(app, scale, seed), seed)


def _profile(app: str, data: Any, seed: int) -> WorkloadProfile:
    if app in ("SPEC-BFS", "COOR-BFS"):
        return bfs_profile(data, 0)
    if app == "SPEC-SSSP":
        return sssp_profile(data, 0)
    if app == "SPEC-MST":
        return mst_profile(data)
    if app == "SPEC-DMR":
        return dmr_profile(data, input_seeds(seed)["dmr"])
    return lu_profile(data)


def make_workloads(seed: int, scale: float = 1.0,
                   apps: tuple[str, ...] | None = None) -> dict[str, Workload]:
    """The Figure 9/10 workload table with every input drawn from ``seed``."""
    defaults = default_workloads(scale)
    table = {}
    graphs: dict[int, Any] = {}
    for app in apps or tuple(defaults):
        if app in GRAPH_APPS:
            # Graph apps on the same generator seed share one input, as
            # the three do in default_workloads.
            key = _graph_seed(app, seed)
            if key not in graphs:
                graphs[key] = generate_input(app, scale, seed)
            data = graphs[key]
        else:
            data = generate_input(app, scale, seed)
        table[app] = replace(
            defaults[app],
            spec_builder=functools.partial(spec_from_input, app, data, seed),
            profile=_profile(app, data, seed),
            params={**defaults[app].params, "seed": seed},
            source=CallableSource(
                functools.partial(build_spec, app, scale, seed),
                key=f"bench:{app}:{scale:g}:{seed}",
            ),
        )
    return table
