"""Top-level accelerator simulation: Figure 7 assembled and clocked.

Builds every component from an :class:`ApplicationSpec` and a synthesized
:class:`Datapath`, runs the cycle loop to completion, verifies the
functional result against the application's oracle, and reports cycles,
utilization, squash rates and memory statistics.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.core.events import Event, EventKind
from repro.core.indexing import TaskIndex
from repro.core.spec import ApplicationSpec
from repro.errors import (
    DeadlockError,
    RecoveryExhaustedError,
    ReproError,
    SimulationError,
    SpecificationError,
)
from repro.eval.platforms import HARP, HarpPlatform
from repro.obs import MetricsRegistry, Observability, Probe
from repro.sim.fastpath import EventScheduler
from repro.sim.events import wake_all
from repro.sim.faults import FaultPlan
from repro.sim.host import HostAdapter
from repro.sim.invariants import DEFAULT_CHECK_INTERVAL, InvariantChecker
from repro.sim.ledger import TokenLedger
from repro.sim.live import LiveIndexTracker
from repro.sim.memory import MemorySystem
from repro.sim.pipeline import PipelineInstance, compile_stage_pass
from repro.sim.rule_engine import RuleEngineSim
from repro.sim.stats import SimCounters, SimStats
from repro.sim.taskqueue import MultiBankTaskQueue
from repro.sim.token import SimToken
from repro.sim.trace import ScheduleTracer
from repro.synthesis.datapath import Datapath, build_datapath

ACTIVATE = EventKind.ACTIVATE  # bound once, as in sim/stages.py


@dataclass(frozen=True)
class SimConfig:
    """Microarchitectural knobs (ablation levers)."""

    out_of_order: bool = True      # Section 5.2's dynamic dataflow reordering
    station_depth: int = 8
    fifo_depth: int = 4
    queue_banks: int = 4
    queue_depth_per_bank: int = 4096
    rule_lanes: int = 32
    # Next-line prefetch on load misses (extension; off = paper baseline).
    prefetch: bool = False
    # Computing the minimum waiting index across all pipelines is a
    # comparator-tree reduction plus a broadcast — a multi-cycle path in
    # hardware (Figure 8(c)(4)), modelled as a refresh interval.
    minimum_broadcast_interval: int = 4
    max_cycles: int = 30_000_000
    deadlock_window: int = 200_000
    # Simulation engine: "event" (the default) lets stalled stages sleep
    # and jumps idle spans to the earliest alarm or other pending wake-up
    # (sim/fastpath.py); "dense" ticks every component every cycle and
    # is the oracle.  Both are cycle-exact (see docs/simulator.md).
    engine: str = "event"

    def __post_init__(self) -> None:
        for name in (
            "station_depth", "fifo_depth", "queue_banks",
            "queue_depth_per_bank", "rule_lanes",
            "minimum_broadcast_interval", "max_cycles", "deadlock_window",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise SpecificationError(
                    f"SimConfig.{name} must be a positive integer, "
                    f"got {value!r}"
                )
        if self.engine not in ("dense", "event"):
            raise SpecificationError(
                f"SimConfig.engine must be 'dense' or 'event', "
                f"got {self.engine!r}"
            )


@dataclass
class SimResult:
    """Outcome of one accelerator run."""

    app: str
    cycles: int
    seconds: float
    stats: SimStats
    memory_bytes: int
    memory_loads: int
    memory_hit_rate: float
    utilization: float
    squash_fraction: float
    bandwidth_scale: float
    # Observability: the run's metrics registry, and — when the run was
    # observed — the Observability bundle (like `ledger` and `tracer`
    # below) of the *finishing* simulator (under rollback recovery that
    # is a revived clone, not the caller's original instance).
    metrics: MetricsRegistry | None = None
    obs: Observability | None = None
    # Idle-skip telemetry (zero for dense runs).  Deliberately kept
    # out of SimStats so dense and event statistics stay bit-identical.
    ff_jumps: int = 0
    ff_cycles_skipped: int = 0
    # Which engine produced the run: "dense" | "event".
    engine: str = "dense"
    # Per-token provenance record (None unless a TokenLedger was
    # attached); obs/critpath.py turns it into a critical path.
    ledger: TokenLedger | None = None
    tracer: ScheduleTracer | None = None


class AcceleratorSim:
    """The simulation context plus the cycle loop."""

    def __init__(
        self,
        spec: ApplicationSpec,
        datapath: Datapath | None = None,
        platform: HarpPlatform = HARP,
        config: SimConfig = SimConfig(),
        replicas: dict[str, int] | None = None,
        tracer: ScheduleTracer | None = None,
        faults: FaultPlan | None = None,
        check_interval: int | None = None,
        obs: Observability | None = None,
        ledger: TokenLedger | None = None,
    ) -> None:
        self.spec = spec
        self.platform = platform
        self.config = config
        self.faults = faults
        # The tracer, obs bundle and ledger choose the probe's consumers.
        self.tracer = tracer
        self.obs = obs
        self.ledger = ledger
        consumers = [c for c in (tracer, ledger) if c is not None]
        if obs is not None:
            consumers += obs.consumers
        self.probe = Probe(consumers) if consumers else None
        # Per-instance token uid counter: ledgers/traces/goldens get the
        # same uids no matter how many sims ran earlier in the process.
        # itertools.count deep-copies, so a rollback replays identically.
        self._token_uids = itertools.count()
        # Hot-path counters live in a metrics registry; when an
        # Observability bundle is attached its registry is used directly
        # so traces and metrics describe the same run.
        self.metrics = obs.registry if obs is not None else MetricsRegistry()
        self.counters = SimCounters.register(self.metrics)
        self.cycle = 0
        self.stats = SimStats()
        self.state = spec.make_state()
        self.minter = spec.make_loop_nest()
        self.tracker = LiveIndexTracker()
        self.memory = MemorySystem(platform, prefetch=config.prefetch,
                                   faults=faults, probe=self.probe)
        self.active_stages_this_cycle = 0
        # Robustness machinery: an invariant sanitizer (None = disabled)
        # and a checkpoint manager attached by run_resilient.
        self.checker = (
            InvariantChecker(self, interval=check_interval)
            if check_interval is not None else None
        )
        self.checkpoints = None
        self._started = False

        if datapath is None:
            datapath = build_datapath(
                spec,
                replicas=replicas or {name: 2 for name in spec.task_sets},
                rule_lanes=config.rule_lanes,
                queue_banks=config.queue_banks,
                station_depth=config.station_depth,
            )
        self.datapath = datapath

        self.queues: dict[str, MultiBankTaskQueue] = {
            name: MultiBankTaskQueue(
                name, config.queue_banks, config.queue_depth_per_bank,
                pop_policy=(
                    "priority" if name in spec.priority_fields else "fifo"
                ),
                faults=faults,
            )
            for name in spec.task_sets
        }
        # Ordered admission: a credit counter between each queue and its
        # pipelines caps in-flight tasks at the rule-lane count, so the
        # minimum task can always reach its rendezvous (the hardware
        # equivalent of a deterministic-reservation window).
        self.admission_credits: dict[str, int] | None = (
            {name: config.rule_lanes for name in spec.task_sets}
            if spec.ordered_admission else None
        )
        # Event engine: stages asleep until a verdict is set (rendezvous
        # stations) or an admission credit returns (source ports), and
        # the alarms of stages asleep until a cycle, as (cycle, order).
        self.verdict_sleepers: list = []
        self.credit_sleepers: dict[str, list] = {
            name: [] for name in spec.task_sets
        }
        self.alarms: list[tuple[int, int]] = []
        # Tokens in the pipelines: a source pop or Expand fork adds one,
        # a retirement or an Expand parent's last child takes one away.
        self.live_tokens = 0
        self.engines: dict[str, RuleEngineSim] = {
            name: RuleEngineSim(name, rule_type, config.rule_lanes,
                                faults=faults, probe=self.probe,
                                verdict_sleepers=self.verdict_sleepers)
            for name, rule_type in spec.rules.items()
        }
        self.pipelines: list[PipelineInstance] = []
        for task_set, program in datapath.programs.items():
            for replica in range(datapath.replicas[task_set]):
                self.pipelines.append(
                    PipelineInstance(self, program, replica)
                )
        self.stats.total_stages = sum(
            p.stage_count() for p in self.pipelines
        )
        self.host = HostAdapter(self, spec)
        self._event_heap: list[tuple[int, int, Event, int]] = []
        self._event_seq = 0
        self._last_progress_cycle = 0
        # Precomputed topology: the cycle loop walks these flat lists
        # instead of chasing pipeline/dict indirections every cycle.
        self._stages = [s for p in self.pipelines for s in p.stages]
        for order, stage in enumerate(self._stages):
            stage.order = order
        self._fifos = [s.input for s in self._stages]
        self._engine_list = list(self.engines.values())
        # Bound methods, resolved once: the per-cycle loop is pure
        # dispatch, with no attribute chasing.  Checkpoint deepcopies
        # rebind these to the revived copies via the shared memo.
        self._stage_ticks = [s.tick for s in self._stages]
        self._fifo_commits = [f.commit for f in self._fifos]
        self._queue_list = list(self.queues.values())
        # Idle skipping: `quiet` is cleared by every state mutation that
        # is not a stage firing (firings are counted in
        # active_stages_this_cycle); a cycle that ends quiet with no
        # firing is provably a repeat.
        self.quiet = True
        self.engine = config.engine
        self.ff = EventScheduler(self) if self.engine == "event" else None
        self.bind_stage_pass()

    def bind_stage_pass(self) -> None:
        """Bind the event engine's stage pass to this simulator's own
        stages (again after a deep copy: the generated functions are
        shared by a copy, not rebound).  Dense, and a pass-less copy,
        tick through the interpreted lists: dense is the oracle."""
        self._compiled_ticks = self._compiled_commits = None
        if self.ff is not None:
            self._compiled_ticks, self._compiled_commits = \
                compile_stage_pass(self._stages)

    # -- services stages call ---------------------------------------------------

    def activate(
        self, task_set: str, fields: dict[str, Any],
        parent: TaskIndex | None,
        cause: str = "seed", cause_uid: int = -1,
    ) -> None:
        """Mint an index, register liveness, enqueue, broadcast ACTIVATE."""
        self.quiet = False
        index = self.minter.mint(task_set, fields, parent)
        handle = self.tracker.register(index)
        queue = self.queues[task_set]
        queue.push(index, fields, handle)
        if self.probe is not None:
            self.probe.activate(self.cycle, handle, cause, cause_uid,
                                task_set, queue._size)
        self.counters.tasks_activated.value += 1
        self.emit_at(
            self.cycle + 1,
            Event(ACTIVATE, task_set, "", index, dict(fields)),
            source_uid=-1,
        )

    def retire(self, token: SimToken, outcome: str) -> str:
        """Token leaves the datapath: free liveness and leftover lanes.
        Returns ``outcome``, which the retiring stage reports in its
        firing's probe emission."""
        if outcome == "commit":
            self.counters.commits.value += 1
        self.live_tokens -= 1
        for engine, instance in token.lanes:
            engine.release(instance)
        token.lanes.clear()
        if token.live_handle >= 0:
            self.tracker.release(token.live_handle)
            token.live_handle = -1
        if self.admission_credits is not None and token.task_uid == token.uid:
            # Only the root token of a task returns the admission credit
            # (Expand siblings share their parent's).
            self.admission_credits[token.task_set] += 1
            sleepers = self.credit_sleepers[token.task_set]
            if sleepers:
                wake_all(sleepers)
        return outcome

    def emit_at(self, when: int, event: Event, source_uid: int) -> None:
        heapq.heappush(
            self._event_heap, (when, self._event_seq, event, source_uid)
        )
        self._event_seq += 1

    # -- cycle loop ------------------------------------------------------------

    def _deliver_events(self) -> None:
        heap = self._event_heap
        engines = self._engine_list
        pop = heapq.heappop
        delivered = self.counters.events_delivered
        cycle = self.cycle
        while heap and heap[0][0] <= cycle:
            _, _, event, source_uid = pop(heap)
            delivered.value += 1
            self.quiet = False
            for engine in engines:
                engine.deliver(event, source_uid)

    def _work_remaining(self) -> bool:
        for queue in self._queue_list:
            if queue._size:
                return True
        if self.live_tokens:
            return True
        if self.host.busy() or not self.host.exhausted:
            return True
        if self._event_heap:
            return True
        return False

    def step(self) -> None:
        """Advance one cycle."""
        if self.probe is not None:
            # Components without a cycle argument (rule engines, request
            # retirement) timestamp their emissions off this.
            self.probe.now = self.cycle
        if self.faults is not None and self.faults.advance(self.cycle):
            # A fault window opened or closed: lane and bank verdicts may
            # change, so every sleeping stage ticks again.
            for stage in self._stages:
                stage.wake()
        alarms = self.alarms
        while alarms and alarms[0][0] <= self.cycle:
            self._stages[heapq.heappop(alarms)[1]].wake()
        if self.checkpoints is not None:
            self.checkpoints.maybe_capture()
        if self.checker is not None:
            self.checker.maybe_check()
        self.active_stages_this_cycle = 0
        self.quiet = True
        if self._event_heap:
            self._deliver_events()
        self.host.tick()
        if self._compiled_ticks is None:
            for tick in self._stage_ticks:
                tick()
        else:
            self._compiled_ticks()
        if self.cycle % self.config.minimum_broadcast_interval == 0:
            if self.spec.otherwise_scope == "global":
                minimum = self.tracker.minimum()
                for engine in self._engine_list:
                    if engine.broadcast_minimum(minimum):
                        self.quiet = False
            else:
                # Lane scope (Figure 8): each engine broadcasts the minimum
                # parent index over its own allocated lanes.
                for engine in self._engine_list:
                    if engine.broadcast_minimum(
                        engine.min_allocated_index()
                    ):
                        self.quiet = False
        if self._compiled_commits is None:
            for commit in self._fifo_commits:
                commit()
        else:
            self._compiled_commits()
        self.counters.active_stage_cycles.value += \
            self.active_stages_this_cycle
        if self.active_stages_this_cycle or self.memory.pending(self.cycle):
            self._last_progress_cycle = self.cycle
        self.cycle += 1
        self.stats.cycles = self.cycle

    def credit_runs(self) -> None:
        """Credit every sleeping stage's stalls up to the current cycle
        (its run goes on), so per-stage accounting can be read."""
        cycle = self.cycle
        for stage in self._stages:
            if stage.wait:
                stage.credit_run(cycle)

    def _release(self) -> None:
        """Drop the references from components back to this finished
        simulator, its stage pass and the stages' sleep registrations,
        so it and its components are freed as soon as its last outside
        reference goes instead of waiting for the cyclic collector.
        What a caller reads after a run stays: the state, stats,
        components and stage names and counters."""
        for pipeline in self.pipelines:
            pipeline.ctx = None
        for stage in self._stages:
            stage.ctx = None
        for fifo in self._fifos:
            fifo.sleeper = None
        for queue in self._queue_list:
            queue.ports.clear()
            queue.sleepers.clear()
        self.host.ctx = None
        if self.ff is not None:
            self.ff.sim = None
        if self.checker is not None:
            self.checker.sim = None
        self._compiled_ticks = self._compiled_commits = None
        self._stage_ticks, self._fifo_commits = [], []

    def _check_limits(self) -> None:
        """Runaway and deadlock guards, shared by both run loops.

        The event loop calls this after a skip as well, so both errors
        raise at exactly the cycle a dense run would raise them at.
        """
        if self.cycle >= self.config.max_cycles:
            raise SimulationError(
                f"{self.spec.name}: exceeded {self.config.max_cycles} "
                "cycles"
            )
        if (
            self.cycle - self._last_progress_cycle
            > self.config.deadlock_window
        ):
            report = []
            for pipeline in self.pipelines:
                report.extend(pipeline.stuck_report())
            raise DeadlockError(self.cycle, "; ".join(report[:8]))

    def _run_fast(self) -> None:
        """The event-engine loop: sleeping stages skipped, idle spans too.

        Every executed cycle is a :meth:`step` whose pass skips sleeping
        stages; when one ends quiet (no stage fired, no silent mutation,
        no event delivered, no otherwise triggered), the machine is
        stationary and the clock jumps to the scheduler's earliest
        wake-up.  The stages that stalled sleep, so their stall runs
        span the jump.
        """
        ff = self.ff
        while self._work_remaining():
            self.step()
            self._check_limits()
            if self.quiet and self.active_stages_this_cycle == 0:
                target = ff.jump_target()
                if target > self.cycle:
                    ff.skip_to(target)
                    self._check_limits()

    def run(self, verify: bool = True) -> SimResult:
        """Clock the accelerator until all work drains; verify the answer."""
        if not self._started:
            self.host.start()
            self._started = True
        try:
            if self.ff is not None:
                self._run_fast()
            else:
                while self._work_remaining():
                    self.step()
                    self._check_limits()
        finally:
            self.credit_runs()
        self.stats.sync_from(self.metrics)
        for pipeline in self.pipelines:
            for stage in pipeline.stages:
                self.stats.per_stage_active[stage.name] = \
                    stage.active_cycles
                self.stats.per_stage_stalls[stage.name] = \
                    stage.stall_cycles
        if self.checker is not None:
            self.checker.check(at_drain=True)
        if self.faults is not None:
            self.stats.faults_injected = self.faults.fired_count
            self.stats.events_dropped = sum(
                e.stats.events_dropped for e in self.engines.values()
            )
            self.stats.events_duplicated = sum(
                e.stats.events_duplicated for e in self.engines.values()
            )
        if verify:
            self.spec.verify(self.state)
        self._release()
        mem = self.memory.stats
        hit_rate = mem.load_hits / mem.loads if mem.loads else 0.0
        return SimResult(
            app=self.spec.name,
            cycles=self.cycle,
            seconds=self.cycle / self.platform.clock_hz,
            stats=self.stats,
            memory_bytes=mem.bytes_transferred,
            memory_loads=mem.loads,
            memory_hit_rate=hit_rate,
            utilization=self.stats.pipeline_utilization,
            squash_fraction=self.stats.squash_fraction,
            bandwidth_scale=self.platform.bandwidth_scale,
            metrics=self.metrics,
            obs=self.obs,
            ff_jumps=self.ff.jumps if self.ff is not None else 0,
            ff_cycles_skipped=(
                self.ff.cycles_skipped if self.ff is not None else 0
            ),
            engine=self.engine,
            ledger=self.ledger,
            tracer=self.tracer,
        )


def simulate_app(
    spec: ApplicationSpec,
    platform: HarpPlatform = HARP,
    config: SimConfig = SimConfig(),
    replicas: dict[str, int] | None = None,
    verify: bool = True,
    obs: Observability | None = None,
    ledger: TokenLedger | None = None,
) -> SimResult:
    """Convenience wrapper: build, run, verify, report."""
    sim = AcceleratorSim(
        spec, platform=platform, config=config, replicas=replicas, obs=obs,
        ledger=ledger,
    )
    return sim.run(verify=verify)


# -- checkpoint/rollback recovery ------------------------------------------


@dataclass
class FailureRecord:
    """One failure the resilient driver recovered from."""

    cycle: int
    attempt: int
    error: str


@dataclass
class ResilientResult:
    """Outcome of a :func:`run_resilient` execution."""

    result: SimResult
    attempts: int
    rollbacks: int
    degradations: int
    failures: list[FailureRecord] = field(default_factory=list)

    @property
    def recovered(self) -> int:
        return len(self.failures)


def _degrade(sim: AcceleratorSim, level: int) -> None:
    """Graceful degradation after repeated failures at the same point:
    halve the channel bandwidth and shrink every rule engine's lanes."""
    for _ in range(level):
        channel = sim.memory.channel
        channel.bytes_per_cycle = max(1.0, channel.bytes_per_cycle / 2)
        for engine in sim.engines.values():
            engine.max_lanes = max(1, engine.max_lanes // 2)


def run_resilient(
    spec: ApplicationSpec,
    platform: HarpPlatform = HARP,
    config: SimConfig = SimConfig(),
    *,
    replicas: dict[str, int] | None = None,
    faults: FaultPlan | None = None,
    check_interval: int | None = DEFAULT_CHECK_INTERVAL,
    checkpoint_interval: int = 20_000,
    max_attempts: int = 8,
    degrade: bool = True,
    verify: bool = True,
    obs: Observability | None = None,
    ledger: TokenLedger | None = None,
    tracer: ScheduleTracer | None = None,
) -> ResilientResult:
    """Run under checkpoint/rollback recovery.

    The simulator takes a snapshot every ``checkpoint_interval`` cycles
    and runs the invariant sanitizer every ``check_interval`` cycles.  On
    any failure — an invariant trip, a deadlock, a simulation error, or a
    failed functional verification — the driver rolls back to the last
    good checkpoint, disarms the transient faults that already fired, and
    retries.  When a retry fails at the same point again it backs off:
    the newest checkpoint is discarded (falling back toward the initial
    snapshot) and, with ``degrade``, the accelerator re-runs in a
    degraded mode (half bandwidth, half rule lanes per level).

    A rollback revives copies of the attached ``obs``, ``ledger`` and
    ``tracer``: read them from the returned :class:`SimResult`.
    """
    from repro.sim.checkpoint import CheckpointManager

    sim = AcceleratorSim(
        spec, platform=platform, config=config, replicas=replicas,
        faults=faults, check_interval=check_interval, obs=obs,
        ledger=ledger, tracer=tracer,
    )
    manager = CheckpointManager(sim, interval=checkpoint_interval)
    sim.checkpoints = manager
    failures: list[FailureRecord] = []
    degradations = 0
    last_failure_cycle: int | None = None
    for attempt in range(1, max_attempts + 1):
        try:
            result = sim.run(verify=verify)
        except SpecificationError:
            raise  # a configuration no retry can run
        except (ReproError, AssertionError) as exc:
            failure = FailureRecord(
                cycle=sim.cycle, attempt=attempt,
                error=f"{type(exc).__name__}: {exc}",
            )
            failures.append(failure)
            if attempt == max_attempts:
                raise RecoveryExhaustedError(
                    attempt, [f.error for f in failures]
                ) from exc
            if faults is not None:
                faults.disarm_fired()
            repeated = (
                last_failure_cycle is not None
                and failure.cycle <= last_failure_cycle
            )
            last_failure_cycle = failure.cycle
            sim = manager.rollback(drop_latest=repeated)
            if degrade and repeated:
                degradations += 1
            # Degradation mutates component state the checkpoint predates,
            # so the accumulated level is re-applied after every rollback.
            _degrade(sim, degradations)
            continue
        result.stats.rollbacks = manager.rollbacks
        result.stats.checkpoints_taken = manager.captures
        if faults is not None:
            result.stats.faults_injected = faults.fired_count
        return ResilientResult(
            result=result,
            attempts=attempt,
            rollbacks=manager.rollbacks,
            degradations=degradations,
            failures=failures,
        )
    raise RecoveryExhaustedError(max_attempts, [f.error for f in failures])
