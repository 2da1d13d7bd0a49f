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
from repro.sim.events import NEVER, wake_all
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
                 "reasons", "heard")

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
        # Whether a rule hears the REACH event this stage broadcasts
        # (Label, Store, labelled Call): decided at its first broadcast,
        # since the shape is fixed per stage.  Unheard, it sends None.
        self.heard: bool | None = None

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
        """Default in-order single-cycle behaviour.  Like every firing
        site, it spells the FIFO handshake in place (see sim/fifo.py);
        a stage with no output retires its tokens."""
        inp = self.input
        if not inp._items:
            return
        out = self.output
        if out is not None and not out.free:
            self._stall(BACKPRESSURE, out)
            return
        token = inp._items.popleft()
        inp.free += 1
        if inp.sleeper is not None:
            inp.sleeper.wake()
            inp.sleeper = None
        self.process(token)
        ctx = self.ctx
        if out is None:
            retired = ctx.retire(token, self.on_retire)
        else:
            out._staged.append(token)
            out.free -= 1
            retired = None
        if ctx.probe is not None:
            ctx.probe.fire(ctx.cycle, self.name, token.uid, retired)
        self.active_cycles += 1
        ctx.active_stages_this_cycle += 1

    def process(self, token: SimToken) -> None:  # pragma: no cover
        """Apply the op to ``token``; :meth:`tick` passes it on."""
        raise NotImplementedError

    def _stall(self, reason: StallReason, fifo: Fifo | None = None,
               waiters: list | None = None) -> None:
        """One stalled cycle, attributed to the blocking resource.  Given
        what ends it, a pop from ``fifo`` or a wake of ``waiters``, the
        stage also sleeps on it alone (:meth:`_sleep`)."""
        self.stall_cycles += 1
        ctx = self.ctx
        if ctx.probe is not None:
            ctx.probe.stall(ctx.cycle, self.name, reason, 1)
        if fifo is not None or waiters is not None:
            self._sleep((reason,), fifo, waiters)

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
        if ctx.ff is None:
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

    def process(self, token: SimToken) -> None:
        op: Const = self.op
        token.env[op.dst] = op.value


class AluStage(Stage):
    __slots__ = ()

    def process(self, token: SimToken) -> None:
        op: Alu = self.op
        token.env[op.dst] = op.fn(token.env)


class LabelStage(Stage):
    __slots__ = ()

    def process(self, token: SimToken) -> None:
        op: Label = self.op
        ctx = self.ctx
        heard = self.heard
        if heard is None:
            heard = self.heard = ctx.hears(REACH, token.task_set, op.label)
        if heard:
            payload = (
                {name: token.env[name] for name in op.payload}
                if op.payload else dict(token.env)
            )
            event = Event(REACH, token.task_set, op.label, token.index,
                          payload)
        else:
            event = None
        ctx.emit_at(ctx.cycle + 1, event, token.task_uid)


class LoadStage(Stage):
    """Out-of-order load unit: a station of in-flight cache requests."""

    __slots__ = ("station", "depth", "in_order", "earliest", "region")

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        # (token, request id, completion cycle, element index) per
        # in-flight load: the element is computed once, at issue.
        self.station: list[tuple[SimToken, int, int, int]] = []
        # The loaded region, resolved once (None only for a bare stage).
        self.region = None if op is None else ctx.state.region(op.region)
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
        inp, out = self.input, self.output
        # 1) release one completed request (head-only when in-order).
        released = blocked = False
        if station and out is not None and not out.free:
            self._stall(BACKPRESSURE)
            blocked = True
        elif station and ctx.cycle >= self.earliest:
            candidates = station[:1] if self.in_order else station
            for position, (token, req, done_at, element) in \
                    enumerate(candidates):
                if done_at <= ctx.cycle:
                    token.env[self.op.dst] = self.region.storage[element]
                    ctx.memory.retire(req)
                    del station[position]
                    if done_at == self.earliest:
                        self.earliest = min(
                            [entry[2] for entry in station], default=NEVER
                        )
                    if out is None:
                        retired = ctx.retire(token, self.on_retire)
                    else:
                        out._staged.append(token)
                        out.free -= 1
                        retired = None
                    if ctx.probe is not None:
                        ctx.probe.release(ctx.cycle, self.name, token.uid,
                                          retired)
                    self.active_cycles += 1
                    ctx.active_stages_this_cycle += 1
                    released = True
                    break
        # 2) issue one new request.
        if inp._items and len(station) < self.depth:
            ctx.quiet = False  # silent mutation: station + cache state
            token = inp._items.popleft()
            inp.free += 1
            if inp.sleeper is not None:
                inp.sleeper.wake()
                inp.sleeper = None
            region = self.region
            element = int(self.op.addr(token.env))
            req = ctx.memory.issue_load(
                ctx.cycle, region.base + element * region.element_bytes
            )
            if ctx.probe is not None:
                ctx.probe.issue(ctx.cycle, self.name, token.uid, req, -1)
            done_at = ctx.memory.done_at(req)
            station.append((token, req, done_at, element))
            if done_at < self.earliest:
                self.earliest = done_at
        elif inp._items:
            self._stall(MEMORY)
        # Sleep from the next cycle when that tick can release nothing and
        # issue nothing: the stalls it records repeat until room
        # downstream (only this stage fills it), or else until a request
        # completes (an alarm, even at the next cycle: the jump reads
        # only alarms); an input commit wakes it while it has room.
        if not station or inp._items and len(station) < self.depth:
            return
        if released:
            blocked = out is not None and not out.free
        ready_at = station[0][2] if self.in_order else self.earliest
        if blocked or ready_at > ctx.cycle:
            reasons = (BACKPRESSURE,) if blocked else ()
            if inp._items:
                reasons += (MEMORY,)
            if blocked:
                self._sleep(reasons, out)
            else:
                self._sleep(reasons, alarm=ready_at)

    def busy(self) -> bool:
        return bool(self.station) or len(self.input) > 0


class StoreStage(Stage):
    """Commit unit: functional write-through plus event broadcast."""

    __slots__ = ()

    def process(self, token: SimToken) -> None:
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
        heard = self.heard
        if heard is None:
            heard = self.heard = ctx.hears(REACH, token.task_set,
                                           op.label or op.region)
        if heard:
            payload = {"addr": flat, "value": value}
            for name in op.extra_payload:
                payload[name] = env[name]
            event = Event(REACH, token.task_set, op.label or op.region,
                          token.index, payload)
        else:
            event = None
        ctx.emit_at(ctx.cycle + 2, event, token.task_uid)


class SwitchStage(Stage):
    """Guard steering: predicate true continues, false takes the epilogue."""

    __slots__ = ("epilogue_entry",)

    def __init__(self, ctx, op, name: str) -> None:
        super().__init__(ctx, op, name)
        self.epilogue_entry: Fifo[SimToken] | None = None

    def tick(self) -> None:
        inp = self.input
        if not inp._items:
            return
        token = inp._items[0]
        op: Guard = self.op
        ctx = self.ctx
        passed = op.pred(token.env)
        out = self.output if passed else self.epilogue_entry
        if out is not None and not out.free:
            self._stall(BACKPRESSURE, out)
            return
        inp._items.popleft()
        inp.free += 1
        if inp.sleeper is not None:
            inp.sleeper.wake()
            inp.sleeper = None
        if not passed:
            ctx.counters.guard_drops.value += 1
        if out is None:
            retired = ctx.retire(token, self.on_retire if passed else "drop")
        else:
            out._staged.append(token)
            out.free -= 1
            retired = None
        if ctx.probe is not None:
            ctx.probe.fire(ctx.cycle, self.name, token.uid, retired)
        self.active_cycles += 1
        ctx.active_stages_this_cycle += 1


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
        inflight = self._inflight
        if inflight:
            entry = inflight[0]
            token, items, emitted, stream_req = entry
            if stream_req is not None and \
                    ctx.memory.ready(ctx.cycle, stream_req):
                ctx.quiet = False  # silent mutation: stream retired
                ctx.memory.retire(stream_req)
                entry[3] = stream_req = None
                acted = True
            if stream_req is None:
                out = self.output
                if out is None or out.free:
                    child = token.fork(
                        items[emitted], uid=next(ctx._token_uids)
                    )
                    ctx.live_tokens += 1
                    entry[2] += 1
                    if out is None:
                        retired = ctx.retire(child, self.on_retire)
                    else:
                        out._staged.append(child)
                        out.free -= 1
                        retired = None
                    last = entry[2] >= len(items)
                    if last:
                        inflight.pop(0)
                        ctx.live_tokens -= 1
                    if ctx.probe is not None:
                        ctx.probe.fork(ctx.cycle, self.name, child.uid,
                                       retired, token.uid, last)
                    self.active_cycles += 1
                    ctx.active_stages_this_cycle += 1
                    acted = True
                else:
                    self._stall(BACKPRESSURE)
                    blocked = True
        # 2) accept one new expansion (issue its row fetch).
        inp = self.input
        if inp._items and len(inflight) < self.depth:
            ctx.quiet = False  # silent mutation: expansion accepted
            token = inp._items.popleft()
            inp.free += 1
            if inp.sleeper is not None:
                inp.sleeper.wake()
                inp.sleeper = None
            items = list(op.items(token.env, ctx.state))
            if not items:
                ctx.retire(token, "commit")
                if ctx.probe is not None:
                    ctx.probe.fire(ctx.cycle, self.name, token.uid, "commit")
                self.active_cycles += 1
                ctx.active_stages_this_cycle += 1
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
            inflight.append([token, items, 0, stream_req])
            return
        reasons = (BACKPRESSURE,) if blocked else ()
        if inp._items:
            self._stall(MEMORY)
            reasons += (MEMORY,)
        if inflight and not acted:
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
        inp = self.input
        if not inp._items:
            return
        out = self.output
        if out is not None and not out.free:
            self._stall(BACKPRESSURE, out)
            return
        token = inp._items[0]
        op: AllocRule = self.op
        ctx = self.ctx
        engine = ctx.engines[op.resolve(token.env)]
        instance = engine.try_alloc(
            token.index, op.args(token.env), token.task_uid
        )
        if instance is None:
            self._stall(RULE, waiters=engine.sleepers)
            return
        inp._items.popleft()
        inp.free += 1
        if inp.sleeper is not None:
            inp.sleeper.wake()
            inp.sleeper = None
        token.lanes.append((engine, instance))
        if out is None:
            retired = ctx.retire(token, self.on_retire)
        else:
            out._staged.append(token)
            out.free -= 1
            retired = None
        if ctx.probe is not None:
            ctx.probe.alloc(ctx.cycle, self.name, token.uid, retired,
                            engine.name, engine.occupancy)
        self.active_cycles += 1
        ctx.active_stages_this_cycle += 1


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
        # 1) release one decided token, through the exit its verdict
        # takes: the output on pass, the epilogue on squash (no FIFO:
        # it retires).
        out, epilogue = self.output, self.epilogue_entry
        released = held_pass = held_squash = False
        for position, token in enumerate(
            station[:1] if self.in_order else station
        ):
            engine, instance = token.lanes[0]
            value = instance.value
            if value is None:
                continue
            dest = out if value else epilogue
            if dest is not None and not dest.free:
                if value:
                    held_pass = True
                else:
                    held_squash = True
                continue
            del station[position]
            token.lanes.pop(0)
            engine.release(instance)
            if not value:
                ctx.counters.squashes.value += 1
            if dest is not None:
                dest._staged.append(token)
                dest.free -= 1
                outcome, retired = "pass" if value else "epilogue", None
            else:
                outcome = "pass" if value else "squash"
                retired = ctx.retire(token,
                                     self.on_retire if value else "squash")
            if ctx.probe is not None:
                ctx.probe.verdict(ctx.cycle, self.name, token.uid, retired,
                                  engine.name, instance, outcome)
            self.active_cycles += 1
            ctx.active_stages_this_cycle += 1
            released = True
            break
        reasons = ()
        if not released and (held_pass or held_squash):
            # A decided token could not leave: downstream backpressure
            # (previously unaccounted — the cycle showed up as idle).
            self._stall(BACKPRESSURE)
            reasons = (BACKPRESSURE,)
        # 2) admit one waiting token into the station.
        inp = self.input
        if inp._items and len(station) < self.depth:
            ctx.quiet = False  # silent mutation: admission arms otherwise
            token = inp._items.popleft()
            inp.free += 1
            if inp.sleeper is not None:
                inp.sleeper.wake()
                inp.sleeper = None
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
        if inp._items:
            self._stall(RULE)
            reasons += (RULE,)
        if station and not released:
            # Every held token waits for a verdict (set by any engine or
            # rendezvous admission) or for room at the exit it is held at.
            self._sleep(reasons, out if held_pass else None,
                        ctx.verdict_sleepers)
            if held_squash:
                epilogue.sleeper = self

    def busy(self) -> bool:
        return bool(self.station) or len(self.input) > 0


class EnqueueStage(Stage):
    """Task activation: a push port into a workset queue."""

    __slots__ = ()

    def tick(self) -> None:
        inp = self.input
        if not inp._items:
            return
        out = self.output
        if out is not None and not out.free:
            self._stall(BACKPRESSURE, out)
            return
        token = inp._items[0]
        op: Enqueue = self.op
        ctx = self.ctx
        enqueue = op.when is None or op.when(token.env)
        if enqueue and not ctx.queues[op.task_set].can_push():
            self._stall(QUEUE, waiters=ctx.queues[op.task_set].sleepers)
            ctx.counters.queue_full_stalls.value += 1
            return
        inp._items.popleft()
        inp.free += 1
        if inp.sleeper is not None:
            inp.sleeper.wake()
            inp.sleeper = None
        if enqueue:
            ctx.activate(
                op.task_set, dict(op.fields(token.env)), token.index,
                cause="task", cause_uid=token.uid,
            )
        if out is None:
            retired = ctx.retire(token, self.on_retire)
        else:
            out._staged.append(token)
            out.free -= 1
            retired = None
        if ctx.probe is not None:
            ctx.probe.fire(ctx.cycle, self.name, token.uid, retired)
        self.active_cycles += 1
        ctx.active_stages_this_cycle += 1

    def credit_run(self, end: int) -> None:
        if self.reasons == (QUEUE,) and end > self.since:
            self.ctx.counters.queue_full_stalls.value += end - self.since
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
        inp, out = self.input, self.output
        # 1) complete one token.
        released = blocked = False
        if in_flight and out is not None and not out.free:
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
                    heard = self.heard
                    if heard is None:
                        heard = self.heard = ctx.hears(
                            REACH, token.task_set, op.label)
                    ctx.emit_at(
                        ctx.cycle + 1,
                        Event(REACH, token.task_set, op.label,
                              token.index, dict(token.env))
                        if heard else None,
                        token.task_uid,
                    )
                del in_flight[position]
                if out is None:
                    retired = ctx.retire(token, self.on_retire)
                else:
                    out._staged.append(token)
                    out.free -= 1
                    retired = None
                if ctx.probe is not None:
                    ctx.probe.release(ctx.cycle, self.name, token.uid, retired)
                self.active_cycles += 1
                ctx.active_stages_this_cycle += 1
                released = True
                break
        # 2) issue one token.
        if inp._items and len(in_flight) < self.depth:
            ctx.quiet = False  # silent mutation: issue applies op.fn
            token = inp._items.popleft()
            inp.free += 1
            if inp.sleeper is not None:
                inp.sleeper.wake()
                inp.sleeper = None
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
            return
        reasons = (BACKPRESSURE,) if blocked else ()
        if inp._items:
            self._stall(MEMORY)
            reasons += (MEMORY,)
        if in_flight and not released:
            # In-flight work only: sleep until room downstream, or else
            # until the first token's timer and operand stream are done.
            if blocked:
                self._sleep(reasons, out)
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
