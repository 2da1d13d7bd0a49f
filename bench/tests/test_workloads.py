"""Seeded inputs: seed 0 is the program's default input; other seeds differ."""

from __future__ import annotations

import pickle

import pytest

from bench.workloads import input_seeds, make_workloads
from repro.eval.platforms import EVAL_HARP
from repro.eval.workloads import default_workloads
from repro.exec import SimJob
from repro.sim.accelerator import simulate_app


def _cycles(workload) -> int:
    return simulate_app(workload.build_spec(), platform=EVAL_HARP,
                        config=workload.config,
                        replicas=workload.replicas).cycles


@pytest.mark.parametrize("app", ["SPEC-MST", "COOR-LU"])
def test_seed_zero_reproduces_default_cycles_and_seed_one_differs(app):
    default = _cycles(default_workloads()[app])
    assert _cycles(make_workloads(0, apps=(app,))[app]) == default
    assert _cycles(make_workloads(1, apps=(app,))[app]) != default


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_seed_zero_inputs_and_settings_match_the_defaults(scale):
    # Profiles are counted over the generated inputs, so equal profiles
    # mean equal inputs; this covers the apps the cycle test skips.
    defaults, ours = default_workloads(scale), make_workloads(0, scale)
    assert ours.keys() == defaults.keys()
    for app, workload in ours.items():
        assert workload.profile == defaults[app].profile, app
        assert workload.config == defaults[app].config, app
        assert workload.replicas == defaults[app].replicas, app


def test_spec_sssp_keeps_its_seed_zero_graph():
    default = default_workloads()["SPEC-SSSP"].profile
    assert make_workloads(3, apps=("SPEC-SSSP",))["SPEC-SSSP"].profile \
        == default
    assert make_workloads(3, apps=("SPEC-BFS",))["SPEC-BFS"].profile \
        != default_workloads()["SPEC-BFS"].profile


def test_sources_pickle_and_cache_per_seed():
    first = make_workloads(0, apps=("SPEC-MST",))["SPEC-MST"].source
    second = make_workloads(1, apps=("SPEC-MST",))["SPEC-MST"].source
    digests = {SimJob(source=s).digest() for s in (first, second)}
    assert None not in digests and len(digests) == 2
    assert pickle.loads(pickle.dumps(first)).build().name == "SPEC-MST"


def test_negative_seeds_are_rejected():
    with pytest.raises(ValueError):
        input_seeds(-1)
