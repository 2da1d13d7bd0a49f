"""Pipeline stage machinery: one simulated module per BDFG actor.

Stages process at most one token per cycle (the templates' initiation
interval), communicate through registered FIFOs, and stall on backpressure.
The two out-of-order kinds — load units and rendezvous — hold tokens in
small matching stations and release completions in any order, so blocked
tasks are bypassed (the dynamic dataflow reordering of Section 5.2).
Everything else is in-order with frugal dual-port FIFO interfaces.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from repro.core.events import Event, EventKind
from repro.core.kernel import (
    AllocRule,
    Alu,
    Call,
    Const,
    Enqueue,
    Expand,
    Guard,
    Label,
    Load,
    Rendezvous,
    Store,
)
from repro.errors import SimulationError
from repro.obs.events import StallReason
from repro.sim.events import NEVER, arm, wake_all
from repro.sim.fifo import Fifo
from repro.sim.token import SimToken

# Enum members bound once: a member lookup on an Enum class costs a
# descriptor call (about 150 ns on CPython 3.11), and a stall site runs
# on most executed cycles.
REACH = EventKind.REACH
BACKPRESSURE = StallReason.BACKPRESSURE
MEMORY = StallReason.MEMORY
QUEUE = StallReason.QUEUE
RULE = StallReason.RULE


def _value(spec: Callable | int, env: dict[str, Any]) -> int:
    return spec(env) if callable(spec) else spec


class Stage:
    """Base simulated pipeline stage.

    Under the event engine a stage whose tick changes nothing sleeps:
    ``wait`` is 1 while it sleeps and 2 once something woke it, and the
    generated stage pass (sim/pipeline.py) skips its ticks until then.
    Every skipped cycle would have repeated the tick it slept on, so the
    stalls of that tick (``reasons``) are credited in bulk from cycle
    ``since``, as one run, when it next ticks.  Dense never sleeps.
    """

    __slots__ = ("ctx", "op", "name", "input", "output", "on_retire",
                 "active_cycles", "stall_cycles", "order", "wait", "since",
                 "reasons")

    def __init__(self, ctx, op, name: str) -> None:
        self.ctx = ctx
        self.op = op
        self.name = name
        self.input: Fifo[SimToken] = Fifo(
            capacity=ctx.config.fifo_depth, name=f"{name}.in"
        )
        self.output: Fifo[SimToken] | None = None  # wired by the pipeline
        self.on_retire: str = "commit"             # outcome at chain end
        self.active_cycles = 0
        self.stall_cycles = 0
        self.order = -1  # position in the simulator's stage pass
        self.wait = 0
        self.since = 0
        self.reasons: tuple[StallReason, ...] = ()

    # -- wiring ----------------------------------------------------------------

    def send(self, token: SimToken) -> str | None:
        """Pass ``token`` on, or retire it; returns the retire outcome."""
        if self.output is not None:
            self.output.push(token)
            return None
        self.ctx.retire(token, self.on_retire)
        return self.on_retire

    def can_send(self) -> bool:
        output = self.output
        return output is None or \
            len(output._items) + len(output._staged) < output.capacity

    # -- per-cycle -----------------------------------------------------------

    # The event engine's generated stage pass (sim/pipeline.py) calls
    # tick() only while this expression is true.  Each {path} names an
    # attribute of the stage, bound once when the pass is built, so it
    # must never be rebound.  The expression must be false only where
    # tick() returns without effect: here, while no input is visible;
    # kinds holding private work (stations) also tick while it is held.
    tick_guard = "{input._items}"
    # Whether an input commit can change what a sleeping tick would do
    # (stations admit while they have room); in-order kinds sleep only
    # with input visible, so more input changes nothing.
    wakes_on_input = False

    def tick(self) -> None:
        """Default in-order single-cycle behaviour."""
        if not self.input._items:
            return
        if not self.can_send():
            self._stall(BACKPRESSURE)
            self._sleep((BACKPRESSURE,), self.output)
            return
        token = self.input.pop()
        retired = self.process(token)
        if self.ctx.probe is not None:
            self.ctx.probe.fire(self.ctx.cycle, self.name, token.uid, retired)
        self.mark_active()

    def process(self, token: SimToken) -> str | None:  # pragma: no cover
        """Apply the op to ``token`` and return :meth:`send`'s result."""
        raise NotImplementedError

    def mark_active(self) -> None:
        """Account one firing; the firing site emits its probe kind."""
        self.active_cycles += 1
        self.ctx.active_stages_this_cycle += 1

    def _stall(self, reason: StallReason) -> None:
        """One stalled cycle, attributed to the blocking resource."""
        self.stall_cycles += 1
        ctx = self.ctx
        if ctx.probe is not None:
            ctx.probe.stall(ctx.cycle, self.name, reason, 1)

    # -- sleeping (event engine) -------------------------------------------------

    def _sleep(self, reasons: tuple[StallReason, ...],
               fifo: Fifo | None = None, waiters: list | None = None,
               alarm: int = NEVER) -> None:
        """Sleep from the next cycle, when a tick would only record the
        stalls ``reasons`` (or do nothing), as would every later tick
        until something that can change it wakes the stage: a pop from
        ``fifo`` (room downstream), a wake of ``waiters``, or cycle
        ``alarm``.  Only the event engine sleeps; dense ticks every cycle.
        """
        ctx = self.ctx
        if ctx.wakes is None:
            return
        self.wait = 1
        self.since = ctx.cycle + 1
        self.reasons = reasons
        if fifo is not None:
            fifo.sleeper = self
        if waiters is not None:
            waiters.append(self)
        if alarm != NEVER:
            heappush(ctx.alarms, (alarm, self.order))

    def wake(self) -> None:
        """Something this stage sleeps on changed: tick at its next turn."""
        if self.wait == 1:
            self.wait = 2

    def resume(self) -> None:
        """The pass's call for a woken stage: close the run, then tick."""
        self.wait = 0
        self.credit_run(self.ctx.cycle)
        self.tick()

    def credit_run(self, end: int) -> None:
        """Credit the open run's stalls for cycles ``since`` .. ``end - 1``
        (each repeats the tick it slept on), and restart it at ``end``."""
        count = end - self.since
        if count > 0 and self.reasons:
            self.stall_cycles += count * len(self.reasons)
            probe = self.ctx.probe
            if probe is not None:
                for reason in self.reasons:
                    probe.stall(self.since, self.name, reason, count)
        self.since = end

    def busy(self) -> bool:
        return len(self.input) > 0

    def drain_tokens(self) -> list[SimToken]:
        """Diagnostics: tokens stuck in this stage."""
        return self.input.drain()


class ConstStage(Stage):
    __slots__ = ()

    def process(self, token: SimToken) -> str | None:
        op: Const = self.op
        token.env[op.dst] = op.value
        return self.send(token)


class AluStage(Stage):
    __slots__ = ()

    def process(self, token: SimToken) -> str | None:
        op: Alu = self.op
        token.env[op.dst] = op.fn(token.env)
        return self.send(token)


class LabelStage(Stage):
    __slots__ = ()

    def process(self, token: SimToken) -> str | None:
        op: Label = self.op
        payload = (
            {name: token.env[name] for name in op.payload}
            if op.payload else dict(token.env)
        )
        self.ctx.emit_at(
            self.ctx.cycle + 1,
            Event(REACH, token.task_set, op.label, token.index,
                  payload),
            token.task_uid,
        )
        return self.send(token)


class LoadStage(Stage):
    """Out-of-order load unit: a station of in-flight cache requests."""

    __slots__ = ("station", "depth", "in_order", "earliest")

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        # (token, request id, completion cycle) per in-flight load.
        self.station: list[tuple[SimToken, int, int]] = []
        self.depth = ctx.config.station_depth
        self.in_order = not ctx.config.out_of_order
        # Earliest completion over the station (NEVER when empty).  A
        # request's completion cycle is fixed at issue, so before this
        # cycle no entry can be ready and the release scan is skipped.
        self.earliest = NEVER

    tick_guard = "{station} or {input._items}"
    wakes_on_input = True

    def tick(self) -> None:
        ctx = self.ctx
        station = self.station
        # 1) release one completed request (head-only when in-order).
        released = blocked = False
        if station and not self.can_send():
            self._stall(BACKPRESSURE)
            blocked = True
        elif station and ctx.cycle >= self.earliest:
            candidates = station[:1] if self.in_order else station
            for position, (token, req, done_at) in enumerate(candidates):
                if done_at <= ctx.cycle:
                    op: Load = self.op
                    token.env[op.dst] = ctx.state.load(
                        op.region, op.addr(token.env)
                    )
                    ctx.memory.retire(req)
                    del station[position]
                    self.earliest = min(
                        [entry[2] for entry in station], default=NEVER
                    )
                    retired = self.send(token)
                    if ctx.probe is not None:
                        ctx.probe.release(ctx.cycle, self.name, token.uid,
                                          retired)
                    self.mark_active()
                    released = True
                    break
        # 2) issue one new request.
        if self.input._items and len(station) < self.depth:
            ctx.quiet = False  # silent mutation: station + cache state
            token = self.input.pop()
            op = self.op
            addr = self.ctx.state.address(op.region, op.addr(token.env))
            req = ctx.memory.issue_load(ctx.cycle, addr)
            if ctx.probe is not None:
                ctx.probe.issue(ctx.cycle, self.name, token.uid, req, -1)
            done_at = ctx.memory.done_at(req)
            station.append((token, req, done_at))
            if done_at < self.earliest:
                self.earliest = done_at
        elif self.input._items:
            self._stall(MEMORY)
        # Sleep from the next cycle when that tick can release nothing and
        # issue nothing: the stalls it records repeat until room
        # downstream (only this stage fills it), or else until a request
        # completes; an input commit wakes it while it has room.
        if not station or self.input._items and len(station) < self.depth:
            return
        if released:
            blocked = not self.can_send()
        ready_at = station[0][2] if self.in_order else self.earliest
        if blocked or ready_at > ctx.cycle + 1:
            reasons = (BACKPRESSURE,) if blocked else ()
            if self.input._items:
                reasons += (MEMORY,)
            if blocked:
                self._sleep(reasons, self.output)
            else:
                self._sleep(reasons, alarm=ready_at)

    def busy(self) -> bool:
        return bool(self.station) or len(self.input) > 0


class StoreStage(Stage):
    """Commit unit: functional write-through plus event broadcast."""

    __slots__ = ()

    def process(self, token: SimToken) -> str | None:
        op: Store = self.op
        ctx = self.ctx
        env = token.env
        addr_idx = op.addr(env)
        value = op.value(env)
        if op.combine is not None or op.dst:
            old = ctx.state.load(op.region, addr_idx)
            if op.dst:
                env[op.dst] = old
            if op.combine is not None:
                value = op.combine(old, value)
        ctx.state.store(op.region, addr_idx, value)
        flat = ctx.state.address(op.region, addr_idx)
        ctx.memory.issue_store(ctx.cycle, flat)
        payload = {"addr": flat, "value": value}
        for name in op.extra_payload:
            payload[name] = env[name]
        ctx.emit_at(
            ctx.cycle + 2,
            Event(REACH, token.task_set,
                  op.label or op.region, token.index, payload),
            token.task_uid,
        )
        return self.send(token)


class SwitchStage(Stage):
    """Guard steering: predicate true continues, false takes the epilogue."""

    __slots__ = ("epilogue_entry",)

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        self.epilogue_entry: Fifo[SimToken] | None = None

    def tick(self) -> None:
        if not self.input._items:
            return
        token = self.input.peek()
        op: Guard = self.op
        ctx = self.ctx
        if op.pred(token.env):
            if not self.can_send():
                self._stall(BACKPRESSURE)
                self._sleep((BACKPRESSURE,), self.output)
                return
            self.input.pop()
            retired = self.send(token)
        elif self.epilogue_entry is not None:
            if not self.epilogue_entry.can_push():
                self._stall(BACKPRESSURE)
                self._sleep((BACKPRESSURE,), self.epilogue_entry)
                return
            self.input.pop()
            ctx.counters.guard_drops.inc()
            self.epilogue_entry.push(token)
            retired = None
        else:
            self.input.pop()
            ctx.counters.guard_drops.inc()
            retired = "drop"
            ctx.retire(token, retired)
        if ctx.probe is not None:
            ctx.probe.fire(ctx.cycle, self.name, token.uid, retired)
        self.mark_active()


class ExpandStage(Stage):
    """Dynamic-rate expansion with overlapped row fetches.

    Several expansions stream their rows concurrently (a small fetch
    station, like the load units); children are emitted in arrival order,
    one per cycle, from the head expansion once its stream has landed.
    """

    __slots__ = ("_inflight", "depth")

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        # FIFO of in-flight expansions:
        # [token, items, emitted, stream_req or None]
        self._inflight: list[list] = []
        self.depth = ctx.config.station_depth

    tick_guard = "{_inflight} or {input._items}"
    wakes_on_input = True

    def tick(self) -> None:
        ctx = self.ctx
        op: Expand = self.op
        # 1) emit one child from the head expansion.
        acted = blocked = False
        stream_req = None
        if self._inflight:
            entry = self._inflight[0]
            token, items, emitted, stream_req = entry
            if stream_req is not None and \
                    ctx.memory.ready(ctx.cycle, stream_req):
                ctx.quiet = False  # silent mutation: stream retired
                ctx.memory.retire(stream_req)
                entry[3] = stream_req = None
                acted = True
            if stream_req is None:
                if self.can_send():
                    child = token.fork(
                        items[emitted], uid=ctx.next_token_uid()
                    )
                    ctx.live_tokens += 1
                    entry[2] += 1
                    retired = self.send(child)
                    last = entry[2] >= len(items)
                    if last:
                        self._inflight.pop(0)
                        ctx.live_tokens -= 1
                    if ctx.probe is not None:
                        ctx.probe.fork(ctx.cycle, self.name, child.uid,
                                       retired, token.uid, last)
                    self.mark_active()
                    acted = True
                else:
                    self._stall(BACKPRESSURE)
                    blocked = True
        # 2) accept one new expansion (issue its row fetch).
        if self.input._items and len(self._inflight) < self.depth:
            ctx.quiet = False  # silent mutation: expansion accepted
            token = self.input.pop()
            items = list(op.items(token.env, ctx.state))
            if not items:
                ctx.retire(token, "commit")
                if ctx.probe is not None:
                    ctx.probe.fire(ctx.cycle, self.name, token.uid, "commit")
                self.mark_active()
                return
            if len(items) > 1:
                ctx.tracker.retain(token.live_handle, len(items) - 1)
            traffic = op.traffic(token.env, ctx.state) if op.traffic else 0
            stream_req = (
                ctx.memory.issue_stream(ctx.cycle, traffic)
                if traffic else None
            )
            if ctx.probe is not None:
                ctx.probe.issue(ctx.cycle, self.name, token.uid, stream_req,
                                -1)
            self._inflight.append([token, items, 0, stream_req])
            return
        reasons = (BACKPRESSURE,) if blocked else ()
        if self.input._items:
            self._stall(MEMORY)
            reasons += (MEMORY,)
        if self._inflight and not acted:
            # The head's stream is in flight, or its child is blocked.
            if blocked:
                self._sleep(reasons, self.output)
            else:
                self._sleep(reasons, alarm=ctx.memory.done_at(stream_req))

    def busy(self) -> bool:
        return bool(self._inflight) or len(self.input) > 0


class AllocRuleStage(Stage):
    """Rule-lane allocation; stalls the pipeline while the engine is full."""

    __slots__ = ()

    def tick(self) -> None:
        if not self.input._items:
            return
        if not self.can_send():
            self._stall(BACKPRESSURE)
            self._sleep((BACKPRESSURE,), self.output)
            return
        token = self.input.peek()
        op: AllocRule = self.op
        engine = self.ctx.engines[op.resolve(token.env)]
        instance = engine.try_alloc(
            token.index, op.args(token.env), token.task_uid
        )
        if instance is None:
            self._stall(RULE)
            self._sleep((RULE,), waiters=engine.sleepers)
            return
        self.input.pop()
        token.lanes.append((engine, instance))
        retired = self.send(token)
        if self.ctx.probe is not None:
            self.ctx.probe.alloc(self.ctx.cycle, self.name, token.uid,
                                 retired, engine.name, engine.occupancy)
        self.mark_active()


class RendezvousStage(Stage):
    """Out-of-order rendezvous: tokens wait for verdicts in a station."""

    __slots__ = ("station", "depth", "epilogue_entry", "in_order")

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        # The waiting station is sized to the rule-lane count: every lane
        # holder can reach its rendezvous, which the deadlock-freedom
        # argument (and the global-scope ordering argument) both require.
        self.station: list[SimToken] = []
        self.depth = max(ctx.config.station_depth, ctx.config.rule_lanes)
        self.epilogue_entry: Fifo[SimToken] | None = None
        self.in_order = not ctx.config.out_of_order

    tick_guard = "{station} or {input._items}"
    wakes_on_input = True

    def tick(self) -> None:
        ctx = self.ctx
        station = self.station
        # 1) release one decided token.  Nothing downstream changes
        # before the first release, so each exit's readiness is read at
        # most once per walk.
        released = False
        held_pass = held_squash = False
        pass_ok = squash_ok = None
        for position, token in enumerate(
            station[:1] if self.in_order else station
        ):
            engine, instance = token.lanes[0]
            value = instance.value
            if value is None:
                continue
            if value:
                if pass_ok is None:
                    pass_ok = self.can_send()
                if not pass_ok:
                    held_pass = True
                    continue
            else:
                if squash_ok is None:
                    squash_ok = self.epilogue_entry is None or \
                        self.epilogue_entry.can_push()
                if not squash_ok:
                    held_squash = True
                    continue
            del station[position]
            token.lanes.pop(0)
            engine.release(instance)
            if value:
                outcome = "pass"
                retired = self.send(token)
            else:
                ctx.counters.squashes.inc()
                if self.epilogue_entry is not None:
                    outcome, retired = "epilogue", None
                    self.epilogue_entry.push(token)
                else:
                    outcome = retired = "squash"
                    ctx.retire(token, retired)
            if ctx.probe is not None:
                ctx.probe.verdict(ctx.cycle, self.name, token.uid, retired,
                                  engine.name, instance, outcome)
            self.mark_active()
            released = True
            break
        reasons = ()
        if not released and (held_pass or held_squash):
            # A decided token could not leave: downstream backpressure
            # (previously unaccounted — the cycle showed up as idle).
            self._stall(BACKPRESSURE)
            reasons = (BACKPRESSURE,)
        # 2) admit one waiting token into the station.
        if self.input._items and len(station) < self.depth:
            ctx.quiet = False  # silent mutation: admission arms otherwise
            token = self.input.pop()
            if not token.lanes:
                raise SimulationError(
                    f"{self.name}: token reached rendezvous with no rule"
                )
            engine, instance = token.lanes[0]
            if ctx.probe is not None:
                ctx.probe.awaited(ctx.cycle, self.name, token.uid,
                                  engine.name)
            if instance.rule_type.immediate and instance.value is None:
                # Optimistic speculation: the promise resolves on arrival
                # with whatever the inspection has accumulated so far.
                instance.trigger_otherwise()
                instance.decided_cycle = ctx.cycle
                wake_all(ctx.verdict_sleepers)
            engine.mark_awaited(instance)
            station.append(token)
            return
        if self.input._items:
            self._stall(RULE)
            reasons += (RULE,)
        if station and not released:
            # Every held token waits for a verdict (set by any engine or
            # rendezvous admission) or for room at the exit it is held at.
            self._sleep(reasons, self.output if held_pass else None,
                        ctx.verdict_sleepers)
            if held_squash:
                self.epilogue_entry.sleeper = self

    def busy(self) -> bool:
        return bool(self.station) or len(self.input) > 0


class EnqueueStage(Stage):
    """Task activation: a push port into a workset queue."""

    __slots__ = ()

    def tick(self) -> None:
        if not self.input._items:
            return
        if not self.can_send():
            self._stall(BACKPRESSURE)
            self._sleep((BACKPRESSURE,), self.output)
            return
        token = self.input.peek()
        op: Enqueue = self.op
        if op.when is None or op.when(token.env):
            queue = self.ctx.queues[op.task_set]
            if not queue.can_push():
                self._stall(QUEUE)
                self.ctx.counters.queue_full_stalls.inc()
                self._sleep((QUEUE,), waiters=queue.sleepers)
                return
            self.input.pop()
            self.ctx.activate(
                op.task_set, dict(op.fields(token.env)), token.index,
                cause="task", cause_uid=token.uid,
            )
        else:
            self.input.pop()
        retired = self.send(token)
        if self.ctx.probe is not None:
            self.ctx.probe.fire(self.ctx.cycle, self.name, token.uid, retired)
        self.mark_active()

    def credit_run(self, end: int) -> None:
        if self.reasons == (QUEUE,) and end > self.since:
            self.ctx.counters.queue_full_stalls.inc(end - self.since)
        super().credit_run(end)


class CallStage(Stage):
    """Pipelined problem-specific function unit.

    The functional effect is applied atomically at issue (so shared-state
    mutations are serialized by issue order); the token is held for the
    unit's latency and its operand traffic, and the REACH event is
    broadcast at completion.
    """

    __slots__ = ("in_flight", "depth")

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        # (token, latency expiry, operand stream) per issued token; the
        # stream is (request id, completion cycle), fixed at issue.
        self.in_flight: list[
            tuple[SimToken, int, tuple[int, int] | None]
        ] = []
        self.depth = ctx.config.station_depth

    tick_guard = "{in_flight} or {input._items}"
    wakes_on_input = True

    def tick(self) -> None:
        ctx = self.ctx
        op: Call = self.op
        in_flight = self.in_flight
        # 1) complete one token.
        released = blocked = False
        if in_flight and not self.can_send():
            self._stall(BACKPRESSURE)
            blocked = True
        elif in_flight:
            cycle = ctx.cycle
            for position, (token, done_at, stream) in enumerate(in_flight):
                if done_at > cycle:
                    continue
                if stream is not None:
                    if stream[1] > cycle:
                        continue
                    ctx.memory.retire(stream[0])
                if op.label:
                    ctx.emit_at(
                        ctx.cycle + 1,
                        Event(REACH, token.task_set, op.label,
                              token.index, dict(token.env)),
                        token.task_uid,
                    )
                del in_flight[position]
                retired = self.send(token)
                if ctx.probe is not None:
                    ctx.probe.release(ctx.cycle, self.name, token.uid, retired)
                self.mark_active()
                released = True
                break
        # 2) issue one token.
        if self.input._items and len(in_flight) < self.depth:
            ctx.quiet = False  # silent mutation: issue applies op.fn
            token = self.input.pop()
            updates = op.fn(token.env, ctx.state)
            if updates:
                token.env.update(updates)
            if op.completes_task and token.live_handle >= 0:
                ctx.tracker.release(token.live_handle)
                token.live_handle = -1
            latency = max(1, _value(op.cycles, token.env))
            traffic = _value(op.traffic, token.env)
            stream_req = (
                ctx.memory.issue_stream(ctx.cycle, traffic)
                if traffic > 0 else None
            )
            done_at = ctx.cycle + latency
            if ctx.probe is not None:
                ctx.probe.issue(ctx.cycle, self.name, token.uid, stream_req,
                                done_at)
            in_flight.append((
                token, done_at,
                None if stream_req is None
                else (stream_req, ctx.memory.done_at(stream_req)),
            ))
            if ctx.wakes is not None:
                # Event engine: the latency timer is the one stage-private
                # clock, so its expiry is armed at issue.
                arm(ctx.wakes, done_at, ctx.cycle)
            return
        reasons = (BACKPRESSURE,) if blocked else ()
        if self.input._items:
            self._stall(MEMORY)
            reasons += (MEMORY,)
        if in_flight and not released:
            # In-flight work only: sleep until room downstream, or else
            # until the first token's timer and operand stream are done.
            if blocked:
                self._sleep(reasons, self.output)
            else:
                self._sleep(reasons, alarm=min(
                    done_at if stream is None else max(done_at, stream[1])
                    for _token, done_at, stream in in_flight
                ))

    def busy(self) -> bool:
        return bool(self.in_flight) or len(self.input) > 0


_STAGE_CLASSES = {
    Const: ConstStage,
    Alu: AluStage,
    Label: LabelStage,
    Load: LoadStage,
    Store: StoreStage,
    Guard: SwitchStage,
    Expand: ExpandStage,
    AllocRule: AllocRuleStage,
    Rendezvous: RendezvousStage,
    Enqueue: EnqueueStage,
    Call: CallStage,
}


def make_stage(ctx, op, name: str) -> Stage:
    """Instantiate the simulated stage for a kernel primitive op."""
    for op_type, stage_cls in _STAGE_CLASSES.items():
        if isinstance(op, op_type):
            return stage_cls(ctx, op, name)
    raise SimulationError(f"no stage template for op {op!r}")
