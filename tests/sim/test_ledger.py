"""Tests for the opt-in TokenLedger: its content, and that it is identical
across engines and checkpoint/rollback (zero cost when absent is part of
tests/sim/test_consumers.py)."""

import pytest

from repro.apps.registry import build_app
from repro.eval.platforms import EVAL_HARP, HARP
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.checkpoint import revive, snapshot
from repro.sim.ledger import (
    BORN,
    FORK,
    ISSUE,
    READY,
    RELEASE,
    RETIRE,
    TokenLedger,
)
from repro.sim.trace import ScheduleTracer
from repro.substrates.graphs import random_graph

GRAPH = random_graph(200, 600, seed=7)


def _spec(app="SPEC-BFS"):
    return build_app(app, GRAPH, 0) if app == "SPEC-BFS" \
        else build_app(app, GRAPH)


def _run(app="SPEC-BFS", platform=HARP, *, engine="dense", ledger=False):
    return AcceleratorSim(
        _spec(app), platform=platform,
        config=SimConfig(engine=engine),
        ledger=TokenLedger() if ledger else None,
    ).run()


class TestLedgerContent:
    def test_every_token_born_and_terminated_in_order(self):
        ledger = _run(ledger=True).ledger
        assert ledger.tokens
        for uid, events in ledger.tokens.items():
            kinds = [event[0] for event in events]
            # A token enters the pipeline freshly minted or forked off a
            # parent, and leaves retired (commit/squash/drop) or
            # released into its children at a forking stage.
            assert kinds[0] in (BORN, FORK), uid
            assert kinds[-1] in (RETIRE, RELEASE), uid
            cycles = [event[1] for event in events]
            assert cycles == sorted(cycles), uid

    def test_issue_ready_pairs_nest(self):
        ledger = _run(platform=EVAL_HARP.scaled(0.2), ledger=True).ledger
        paired = 0
        for events in ledger.tokens.values():
            pending = None
            for event in events:
                if event[0] == ISSUE:
                    assert pending is None
                    pending = event[1]
                elif event[0] == READY:
                    assert pending is not None
                    assert event[1] >= pending
                    pending = None
                    paired += 1
        assert paired  # a starved channel must produce waits

    def test_final_retirement_is_the_last_cycle_event(self):
        result = _run(ledger=True)
        cycle, uid = result.ledger.final
        assert uid in result.ledger.tokens
        assert cycle <= result.cycles
        assert max(events[-1][1]
                   for events in result.ledger.tokens.values()) == cycle

    def test_wasted_speculation_counts_squashed_tokens(self):
        ledger = _run(ledger=True).ledger
        waste = ledger.wasted_speculation()
        doomed = sum(
            1 for events in ledger.tokens.values()
            if events[-1][0] == RETIRE and events[-1][2] in
            ("squash", "drop")
        )
        assert waste["tokens"] == doomed
        assert waste["cycles"] >= waste["tokens"]


class TestEngineInvariance:
    @pytest.mark.parametrize("app", ["SPEC-BFS", "SPEC-SSSP"])
    def test_ledger_identical_across_engines(self, app):
        docs = {
            engine: _run(app, EVAL_HARP.scaled(0.2), engine=engine,
                         ledger=True).ledger.to_dict()
            for engine in ("dense", "event")
        }
        assert docs["event"] == docs["dense"]


class TestCheckpointSafety:
    def test_ledger_survives_snapshot_and_rollback(self):
        reference = _run(ledger=True).ledger.to_dict()

        sim = AcceleratorSim(_spec(), platform=HARP,
                             ledger=TokenLedger())
        sim.host.start()
        sim._started = True
        for _ in range(500):
            sim.step()
        frozen = snapshot(sim)
        # Finish the original run, then roll back and finish again:
        # both completions must record the exact same history.
        assert sim.run().ledger.to_dict() == reference
        assert revive(frozen).run().ledger.to_dict() == reference

    def test_snapshot_is_isolated_from_the_live_ledger(self):
        sim = AcceleratorSim(_spec(), platform=HARP,
                             ledger=TokenLedger())
        sim.host.start()
        sim._started = True
        for _ in range(300):
            sim.step()
        frozen = snapshot(sim)
        before = len(sim.ledger.tokens)
        sim.run()
        assert len(sim.ledger.tokens) > before
        assert len(revive(frozen).ledger.tokens) == before

    def test_schedule_tracer_rolls_back_with_the_simulator(self):
        # The tracer is a probe consumer inside the checkpointed graph
        # (no longer a shared root), so a revived clone owns a copy that
        # finishes with exactly the uninterrupted run's schedule.
        def tracer():
            return ScheduleTracer(max_cycles=1 << 30)

        reference = AcceleratorSim(_spec(), platform=HARP,
                                   tracer=tracer()).run().tracer
        sim = AcceleratorSim(_spec(), platform=HARP, tracer=tracer())
        sim.host.start()
        sim._started = True
        for _ in range(500):
            sim.step()
        frozen = snapshot(sim)
        before = {name: set(cycles)
                  for name, cycles in sim.tracer.activity.items()}
        assert dict(sim.run().tracer.activity) == dict(reference.activity)
        revived = revive(frozen)
        assert revived.tracer is not sim.tracer
        assert dict(revived.tracer.activity) == before
        assert dict(revived.run().tracer.activity) == \
            dict(reference.activity)
