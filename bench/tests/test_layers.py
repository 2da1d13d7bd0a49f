"""The module->layer map covers the simulator, and sampled shares add up."""

from __future__ import annotations

import pytest

from bench import SRC
from bench.layers import (
    FUNCTION_LAYERS,
    LAYERS,
    MODULE_LAYERS,
    Sampler,
    layer_of,
)
from bench.workloads import make_workloads
from repro.eval.platforms import EVAL_HARP
from repro.sim.accelerator import AcceleratorSim, simulate_app


def _modules() -> set[str]:
    modules = set()
    for package in ("sim", "obs", "apps", "core"):
        for path in (SRC / "repro" / package).glob("*.py"):
            stem = "" if path.stem == "__init__" else f".{path.stem}"
            modules.add(f"repro.{package}{stem}")
    return modules


def test_every_sim_obs_apps_core_module_has_a_named_layer():
    modules = _modules()
    assert modules - MODULE_LAYERS.keys() == set(), "give new modules a layer"
    assert MODULE_LAYERS.keys() - modules == set(), "drop stale entries"
    named = set(MODULE_LAYERS.values()) | set(FUNCTION_LAYERS.values())
    assert named <= set(LAYERS) - {"other"}


def test_function_overrides_name_existing_methods():
    for module, function in FUNCTION_LAYERS:
        assert module == "repro.sim.accelerator"
        assert callable(getattr(AcceleratorSim, function))


def test_layer_lookup():
    assert layer_of("numpy.core.numeric") is None
    assert layer_of("repro.exec.runner") == "other"
    assert layer_of("repro.sim.stages", "tick") == "sim.stages"
    assert layer_of("repro.sim.accelerator", "step") == "sim.loop"
    assert layer_of("repro.sim.accelerator", "_work_remaining") \
        == "sim.scheduler"


def test_sampled_shares_cover_every_layer_and_sum_to_one():
    workload = make_workloads(0, scale=0.5, apps=("SPEC-MST",))["SPEC-MST"]
    sampler = Sampler()
    sampler.start()
    try:
        simulate_app(workload.build_spec(), platform=EVAL_HARP,
                     config=workload.config, replicas=workload.replicas)
    finally:
        sampler.stop()
    shares = sampler.shares()
    assert list(shares) == list(LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert sum(sampler.counts.values()) >= 20
    assert shares["sim.stages"] > 0
