"""Checkpoint and rollback recovery for the accelerator simulator.

A checkpoint is a deep clone of the whole simulation context taken at a
cycle boundary — functional memory state, queues, rule-engine lanes,
in-flight tokens, the event heap, the cache and channel model — with the
immutable build artifacts (spec, datapath, platform, config, kernel ops)
shared by reference.  Restoring produces a *fresh runnable simulator*
rolled back to the checkpoint cycle, while the checkpoint itself stays
pristine so the same snapshot can absorb repeated rollbacks.

Nothing in the copied graph is keyed by object identity, which a deep
copy changes: a rule lane is the instance its token holds, and the
engine's kept orders sort on parent positions and an allocation sequence
number, which a copy preserves.  One object-graph subtlety makes this
more than ``copy.deepcopy(sim)``: a host feed is a live generator (not
copyable).  The host adapter logs every batch it pulls, and a restored
run first *replays* the logged batches past its cursor before touching
the shared generator — see
:meth:`repro.sim.host.HostAdapter.enable_replay`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field


def _shared_roots(sim) -> list:
    """Objects shared (not copied) between a simulator and its clones.

    These are either immutable build artifacts, diagnostics that should
    keep observing the live run, or objects that cannot be deep-copied
    (the host-feed generator).
    """
    shared = [sim.spec, sim.platform, sim.config, sim.datapath]
    for extra in (sim.faults, sim.checker, sim.checkpoints):
        if extra is not None:
            shared.append(extra)
    host = sim.host
    if host._batches is not None:
        shared.append(host._batches)
    if host._batch_log is not None:
        shared.append(host._batch_log)
    for pipeline in sim.pipelines:
        for stage in pipeline.stages:
            if stage.op is not None:
                shared.append(stage.op)
    for engine in sim.engines.values():
        shared.append(engine.rule_type)
    return shared


def _identity_memo(shared: list) -> dict:
    return {id(obj): obj for obj in shared}


def snapshot(sim):
    """A frozen deep clone of ``sim`` (not runnable until revived)."""
    clone = copy.deepcopy(sim, _identity_memo(_shared_roots(sim)))
    # The copy shares ``sim``'s generated stage pass, which ticks
    # ``sim``'s stages; drop it so the clone never holds them.
    clone._compiled_ticks = clone._compiled_commits = None
    return clone


def revive(clone):
    """A fresh runnable simulator restored from a checkpoint clone."""
    sim = copy.deepcopy(clone, _identity_memo(_shared_roots(clone)))
    # Function objects are copied by reference: the copied pass would
    # tick the clone's stages, so compile one over the revived ones.
    sim.bind_stage_pass()
    if sim.checker is not None:
        # The checker is shared by the memo and still bound to the old
        # context; give the revived simulator its own.
        from repro.sim.invariants import InvariantChecker

        sim.checker = InvariantChecker(sim, interval=sim.checker.interval)
    return sim


@dataclass
class Checkpoint:
    """One snapshot: the capture cycle plus the frozen clone."""

    cycle: int
    clone: object = field(repr=False)


class CheckpointManager:
    """Periodic snapshots plus the rollback policy.

    Keeps at most ``keep`` checkpoints: always the earliest (cycle of the
    first capture, effectively the initial state) plus the most recent
    ones, so repeated failures can fall back progressively further and
    ultimately rerun from the start.
    """

    def __init__(self, sim, interval: int = 20_000, keep: int = 4) -> None:
        if interval < 1:
            interval = 1
        self.sim = sim
        self.interval = interval
        self.keep = max(2, keep)
        self.checkpoints: list[Checkpoint] = []
        self.captures = 0
        self.rollbacks = 0
        self._next_capture = 0
        sim.host.enable_replay()

    # -- capture --------------------------------------------------------------

    def maybe_capture(self) -> None:
        if self.sim.cycle >= self._next_capture:
            self.capture()

    def next_event_cycle(self, now: int) -> int:
        """Next scheduled capture — an event-engine wake-up, so snapshots
        land on exactly the same cycles as a dense run."""
        return max(self._next_capture, now + 1)

    def capture(self) -> Checkpoint:
        checkpoint = Checkpoint(self.sim.cycle, snapshot(self.sim))
        self.checkpoints.append(checkpoint)
        if len(self.checkpoints) > self.keep:
            # Retain the earliest capture as the rollback of last resort.
            del self.checkpoints[1]
        self.captures += 1
        self._next_capture = self.sim.cycle + self.interval
        if self.sim.probe is not None:
            # Recorded *after* the snapshot, so a restored run re-emits
            # the marker when it re-captures — the trace always reflects
            # the executed timeline.
            self.sim.probe.checkpoint(self.sim.cycle, self.captures)
        return checkpoint

    # -- rollback -------------------------------------------------------------

    def rollback(self, drop_latest: bool = False):
        """Restore the most recent checkpoint (or, with ``drop_latest``,
        discard it first and fall back to the one before)."""
        if not self.checkpoints:
            raise RuntimeError("no checkpoint to roll back to")
        if drop_latest and len(self.checkpoints) > 1:
            self.checkpoints.pop()
        checkpoint = self.checkpoints[-1]
        sim = revive(checkpoint.clone)
        sim.checkpoints = self
        self.sim = sim
        self.rollbacks += 1
        self._next_capture = checkpoint.cycle + self.interval
        if sim.faults is not None:
            # Force the plan's cached view to recompute at the rolled-back
            # cycle (the clock just moved backwards).  Fired faults were
            # disarmed since the snapshot, so no sleeping stage may keep
            # the lane and bank verdicts it slept on.
            sim.faults.advance(max(0, checkpoint.cycle))
            for stage in sim._stages:
                stage.wake()
        if sim.probe is not None:
            # The probe and its consumers are not shared roots: they were
            # restored with the simulator, so replay cannot double-count.
            # Stamp the rollback on the restored timeline.
            sim.probe.rollback(checkpoint.cycle)
        return sim
