"""SimJob digests: stable, and sensitive to every simulation input."""

import dataclasses

import pytest

from repro.eval.platforms import HARP
from repro.exec import (
    CallableSource,
    CliAppSource,
    FaultSpec,
    GraphAppSource,
    JobOutcome,
    SimJob,
    WorkloadSource,
    execute_job,
)
from repro.sim.accelerator import SimConfig


def tiny_job(**overrides) -> SimJob:
    defaults = dict(
        source=GraphAppSource("SPEC-BFS", 60, 180, seed=7, start=0),
        platform=HARP,
        config=SimConfig(),
    )
    defaults.update(overrides)
    return SimJob(**defaults)


class TestDigest:
    def test_stable_across_instances(self):
        assert tiny_job().digest() == tiny_job().digest()

    def test_digest_is_short_hex(self):
        digest = tiny_job().digest()
        assert len(digest) == 16
        int(digest, 16)

    @pytest.mark.parametrize("field_name, value", [
        ("rule_lanes", 64),
        ("station_depth", 4),
        ("queue_banks", 8),
        ("engine", "dense"),
        ("max_cycles", 123_456),
        ("minimum_broadcast_interval", 5),
    ])
    def test_every_config_field_changes_digest(self, field_name, value):
        base = tiny_job()
        changed = tiny_job(
            config=dataclasses.replace(SimConfig(), **{field_name: value})
        )
        assert base.digest() != changed.digest(), field_name

    def test_all_config_fields_enter_canonical_payload(self):
        payload = tiny_job().canonical()
        config_fields = {f.name for f in dataclasses.fields(SimConfig)}
        assert set(payload["config"]) == config_fields

    def test_platform_changes_digest(self):
        assert tiny_job().digest() != \
            tiny_job(platform=HARP.scaled(2.0)).digest()

    def test_source_changes_digest(self):
        base = tiny_job()
        assert base.digest() != tiny_job(
            source=GraphAppSource("SPEC-BFS", 60, 180, seed=8, start=0)
        ).digest()
        assert base.digest() != tiny_job(
            source=GraphAppSource("SPEC-SSSP", 60, 180, seed=7)
        ).digest()
        assert base.digest() != tiny_job(
            source=WorkloadSource("SPEC-BFS", "default", 0.5)
        ).digest()
        assert base.digest() != tiny_job(
            source=CliAppSource("SPEC-BFS")
        ).digest()

    @pytest.mark.parametrize("fault", [
        FaultSpec(seed=8, horizon=1000),
        FaultSpec(seed=7, horizon=1001),
        FaultSpec(seed=7, horizon=1000, intensity=2.0),
    ])
    def test_every_fault_field_changes_digest(self, fault):
        base = tiny_job(fault=FaultSpec(seed=7, horizon=1000))
        assert base.digest() != tiny_job(fault=fault).digest()
        assert tiny_job().digest() != base.digest()

    def test_execution_mode_changes_digest(self):
        base = tiny_job()
        assert base.digest() != tiny_job(resilient=True).digest()
        assert base.digest() != tiny_job(check_interval=512).digest()
        assert base.digest() != tiny_job(checkpoint_interval=99).digest()
        assert base.digest() != tiny_job(verify=False).digest()
        assert base.digest() != \
            tiny_job(replicas={"visit": 2}).digest()

    def test_replica_order_does_not_change_digest(self):
        a = tiny_job(replicas={"visit": 2, "update": 3})
        b = tiny_job(replicas={"update": 3, "visit": 2})
        assert a.digest() == b.digest()

    def test_informational_fields_do_not_change_digest(self):
        base = tiny_job()
        assert base.digest() == tiny_job(seed=99).digest()
        assert base.digest() == tiny_job(tag="anything").digest()

    def test_callable_source_uncacheable_without_key(self):
        job = tiny_job(source=CallableSource(lambda: None))
        assert job.canonical() is None
        assert job.digest() is None

    def test_callable_source_with_key_is_cacheable(self):
        a = tiny_job(source=CallableSource(lambda: None, key="bfs-v1"))
        b = tiny_job(source=CallableSource(lambda: None, key="bfs-v2"))
        assert a.digest() is not None
        assert a.digest() != b.digest()


class TestExecute:
    def test_outcome_fields(self):
        outcome = execute_job(tiny_job())
        assert outcome.error == ""
        assert outcome.app == "SPEC-BFS"
        assert outcome.cycles > 0
        assert outcome.verified
        assert outcome.app_mode == "speculative"
        assert outcome.stats["cycles"] == outcome.cycles
        assert outcome.wall_seconds > 0

    def test_failure_folds_into_outcome(self):
        def boom():
            raise ValueError("no spec for you")

        outcome = execute_job(tiny_job(source=CallableSource(boom),
                                       tag="boom"))
        assert outcome.error == "ValueError: no spec for you"
        assert outcome.app == "boom"
        assert outcome.cycles == 0

    def test_outcome_round_trips_through_dict(self):
        outcome = execute_job(tiny_job())
        clone = JobOutcome.from_dict(outcome.to_dict())
        assert clone.to_dict() == outcome.to_dict()
        # Unknown keys from a future schema are dropped, not fatal.
        data = outcome.to_dict()
        data["from_the_future"] = 1
        assert JobOutcome.from_dict(data).to_dict() == outcome.to_dict()

    def test_resilient_job_reports_recovery_block(self):
        base = execute_job(tiny_job(verify=False))
        outcome = execute_job(tiny_job(
            fault=FaultSpec(seed=3, horizon=base.cycles),
            resilient=True,
            check_interval=256,
        ))
        assert outcome.error == ""
        assert outcome.resilient is not None
        assert outcome.resilient["attempts"] >= 1
        assert outcome.resilient["recovered"] in (True, False)
