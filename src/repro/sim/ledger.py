"""Per-token provenance ledger: the causal record behind critical paths.

A :class:`TokenLedger` is an opt-in recorder threaded through the sim
core the same way the fault and observability hooks are: every component
holds ``ledger = None`` by default and pays one identity test, so with
the ledger disabled the simulator's behaviour — cycles included — is
bit-identical (a tested invariant, see ``tests/sim/test_ledger.py``).

Per :class:`~repro.sim.token.SimToken` uid the ledger keeps a
time-ordered list of lifecycle events — birth from a queue grant, forks,
stage firings, station issue/ready/release pairs, retirement — each
stamped with the *causal edge* that released it: the parent fork, the
rule rendezvous answer (which token's event decided the promise), the
memory request completion, the queue grant, or the host batch launch.

Every cycle recorded is engine-independent by construction: events are
appended only when a token actually moves (the ``dense`` and ``event``
engines execute exactly the same non-quiescent cycles), and
resource readiness is stamped with the *scheduled* completion cycle
(``MemorySystem.done_at``, the rule instance's decision cycle) rather
than the cycle the completion happened to be observed on.  Ledgers are
therefore byte-identical across both engines.

Checkpoint/rollback safety comes for free from placement: the ledger is
an attribute of the simulator and deliberately *not* a shared checkpoint
root, so a snapshot deep-copies it and a rollback restores it — cycles
past the checkpoint are forgotten and re-recorded on replay, never
double-counted.  Tokens that retire with outcome ``squash``/``drop``
stay in the ledger as wasted-speculation chains.

The analysis layer that walks this record lives in
:mod:`repro.obs.critpath`.
"""

from __future__ import annotations

from typing import Any

# Event tuples, first element is the code:
#   ("born", cycle, act_cycle, cause_kind, cause_uid, source)
#       token minted at a source stage; act_cycle is when the task was
#       activated (queued); cause_kind is "seed" | "host" | "task" with
#       cause_uid the activating token's uid ("task"), the host batch
#       ordinal ("host"), or -1 ("seed"); source is the minting source
#       stage's name (critpath uses it to find the preceding grant).
#   ("fork", cycle, parent_uid)
#       Expand child creation; shares the parent's task identity.
#   ("fire", cycle, stage)
#       an in-order stage processed the token.
#   ("issue", cycle, stage)
#       the token entered an out-of-order station (load/expand/
#       rendezvous/call) and its resource request was issued.
#   ("ready", cycle, stage, cause_uid, kind)
#       the station's resource wait resolved.  kind is "mem_hit" |
#       "mem_miss" | "mem_stream" | "fu" | "clause" | "requires" |
#       "otherwise"; cause_uid names the token whose event decided a
#       rule promise (-1 otherwise).
#   ("release", cycle, stage, outcome)
#       the token left the station ("pass" | "squash" | "expand").
#   ("retire", cycle, outcome)
#       the token left the datapath ("commit" | "drop" | "squash" |
#       "end").
BORN = "born"
FORK = "fork"
FIRE = "fire"
ISSUE = "issue"
READY = "ready"
RELEASE = "release"
RETIRE = "retire"


class TokenLedger:
    """Opt-in per-token lifecycle and causal-edge recorder."""

    def __init__(self) -> None:
        # uid -> time-ordered event tuples (see module docstring).
        self.tokens: dict[int, list[tuple]] = {}
        # live_handle -> (act_cycle, cause_kind, cause_uid), pending
        # until the source stage mints the token (consumed by `born`).
        self.activations: dict[int, tuple[int, str, int]] = {}
        # memory request id -> (issue_cycle, done_at, kind); consumed
        # when the waiting station reports readiness.
        self._mem_reqs: dict[int, tuple[int, int, str]] = {}
        # Host batch DMA chain: [issue_cycle, done_at, injected_cycle,
        # nbytes] per batch, in launch order (injected_cycle is -1 while
        # the batch is in flight).
        self.host_batches: list[list[int]] = []
        # Queue grants per task set (the pop port handed work out).
        self.grants: dict[str, int] = {}
        # (cycle, uid) of the most recent retirement: deterministic
        # within-cycle order makes this *the* last-retiring token.
        self.final: tuple[int, int] | None = None
        # Refreshed by AcceleratorSim.step, like Observability.now;
        # hooks without a cycle of their own timestamp with it.
        self.now = 0

    # -- recording -----------------------------------------------------------

    def _append(self, uid: int, event: tuple) -> None:
        events = self.tokens.get(uid)
        if events is None:
            self.tokens[uid] = [event]
            return
        # Clamp to monotone per-token time so spans never go negative
        # (a rule may decide before its parent reaches the rendezvous).
        last = events[-1][1]
        if event[1] < last:
            event = (event[0], last) + event[2:]
        events.append(event)

    def activate(self, handle: int, cycle: int, cause: str,
                 cause_uid: int) -> None:
        self.activations[handle] = (cycle, cause, cause_uid)

    def queue_grant(self, task_set: str) -> None:
        self.grants[task_set] = self.grants.get(task_set, 0) + 1

    def born(self, uid: int, cycle: int, handle: int,
             source: str = "") -> None:
        act_cycle, cause, cause_uid = self.activations.pop(
            handle, (cycle, "seed", -1)
        )
        self._append(uid, (BORN, cycle, act_cycle, cause, cause_uid, source))

    def fork(self, uid: int, cycle: int, parent_uid: int) -> None:
        self._append(uid, (FORK, cycle, parent_uid))

    def fire(self, uid: int, cycle: int, stage: str) -> None:
        self._append(uid, (FIRE, cycle, stage))

    def issue(self, uid: int, cycle: int, stage: str) -> None:
        self._append(uid, (ISSUE, cycle, stage))

    def ready(self, uid: int, cycle: int, stage: str, cause_uid: int,
              kind: str) -> None:
        self._append(uid, (READY, cycle, stage, cause_uid, kind))

    def release(self, uid: int, cycle: int, stage: str,
                outcome: str) -> None:
        self._append(uid, (RELEASE, cycle, stage, outcome))

    def retire(self, uid: int, cycle: int, outcome: str) -> None:
        self._append(uid, (RETIRE, cycle, outcome))
        self.final = (cycle, uid)

    # -- memory causal edges ---------------------------------------------------

    def mem_issue(self, req_id: int, cycle: int, done_at: int,
                  kind: str) -> None:
        """A tracked transfer was issued (load hit/miss or bulk stream)."""
        self._mem_reqs[req_id] = (cycle, done_at, kind)

    def mem_ready(self, uid: int, stage: str, req_id: int) -> None:
        """The station holding ``uid`` saw its request complete."""
        issued, done, kind = self._mem_reqs.pop(
            req_id, (self.now, self.now, "mem_stream")
        )
        self.ready(uid, done, stage, -1, kind)

    def mem_take(self, req_id: int) -> int:
        """Consume a tracked request, returning its completion cycle."""
        record = self._mem_reqs.pop(req_id, None)
        return record[1] if record is not None else self.now

    # -- host launch chain ------------------------------------------------------

    def host_issue(self, cycle: int, done_at: int, nbytes: int) -> None:
        self.host_batches.append([cycle, done_at, -1, nbytes])

    def host_inject(self, ordinal: int, cycle: int) -> None:
        if 0 <= ordinal < len(self.host_batches):
            self.host_batches[ordinal][2] = cycle

    # -- summaries -------------------------------------------------------------

    def events_of(self, uid: int) -> list[tuple]:
        return self.tokens.get(uid, [])

    def token_span(self, uid: int) -> tuple[int, int]:
        """(first, last) recorded cycle for a token (activation included)."""
        events = self.tokens[uid]
        first = events[0][1]
        if events[0][0] == BORN:
            first = min(first, events[0][2])
        return first, events[-1][1]

    def wasted_speculation(self) -> dict[str, int]:
        """Cycles sunk into tokens that were squashed or dropped."""
        tokens = 0
        cycles = 0
        for uid, events in self.tokens.items():
            last = events[-1]
            if last[0] == RETIRE and last[2] in ("squash", "drop"):
                first, end = self.token_span(uid)
                tokens += 1
                cycles += end - first
        return {"tokens": tokens, "cycles": cycles}

    def to_dict(self) -> dict[str, Any]:
        """A JSON-able dump (testing/debugging aid, not a stable schema)."""
        return {
            "tokens": {str(uid): [list(e) for e in events]
                       for uid, events in sorted(self.tokens.items())},
            "host_batches": [list(b) for b in self.host_batches],
            "grants": dict(sorted(self.grants.items())),
            "final": list(self.final) if self.final else None,
        }
