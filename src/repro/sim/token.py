"""Task tokens flowing through simulated pipelines."""

from __future__ import annotations

import itertools
from typing import Any

from repro.core.indexing import TaskIndex

# Process-global fallback counter.  The simulator allocates uids from its
# own per-instance counter (``AcceleratorSim._token_uids``) so that
# token identities in ledgers, traces and goldens are reproducible no
# matter how many simulations ran earlier in the process; this global
# remains as a compatibility shim for tokens constructed outside a
# simulator (tests, ad-hoc tooling) that only need uniqueness.
_token_ids = itertools.count()


class SimToken:
    """One task token.

    ``live_handle`` ties the token to its live-index registration (the
    global minimum over live indices drives otherwise triggering);
    ``lanes`` holds rule-engine lanes allocated by this token, consumed in
    FIFO order by rendezvous stages.

    A plain slotted class: one is built per task and per Expand child, so
    its ``__init__`` assigns and nothing more.  Tokens compare by
    identity (each has its own uid).
    """

    __slots__ = ("env", "index", "task_set", "uid", "task_uid",
                 "live_handle", "lanes")

    def __init__(self, env: dict[str, Any], index: TaskIndex,
                 task_set: str, uid: int | None = None, task_uid: int = 0,
                 live_handle: int = -1) -> None:
        self.env = env
        self.index = index
        self.task_set = task_set
        self.uid = next(_token_ids) if uid is None else uid
        self.task_uid = task_uid
        self.live_handle = live_handle
        self.lanes: list = []

    def __repr__(self) -> str:
        return (f"SimToken(env={self.env!r}, index={self.index!r}, "
                f"task_set={self.task_set!r}, uid={self.uid!r}, "
                f"task_uid={self.task_uid!r}, "
                f"live_handle={self.live_handle!r}, lanes={self.lanes!r})")

    def fork(
        self, updates: dict[str, Any], uid: int | None = None
    ) -> "SimToken":
        """A sibling token (Expand): shares task identity and live handle.

        ``uid`` lets the simulator assign the child from its per-instance
        counter; omitted, the global shim counter is used.
        """
        env = dict(self.env)
        env.update(updates)
        return SimToken(env, self.index, self.task_set, uid,
                        self.task_uid, self.live_handle)
