"""Task tokens flowing through simulated pipelines."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.core.indexing import TaskIndex

# Process-global fallback counter.  The simulator allocates uids from its
# own per-instance counter (``AcceleratorSim._token_uids``) so that
# token identities in ledgers, traces and goldens are reproducible no
# matter how many simulations ran earlier in the process; this global
# remains as a compatibility shim for tokens constructed outside a
# simulator (tests, ad-hoc tooling) that only need uniqueness.
_token_ids = itertools.count()


@dataclass(slots=True)
class SimToken:
    """One task token.

    ``live_handle`` ties the token to its live-index registration (the
    global minimum over live indices drives otherwise triggering);
    ``lanes`` holds rule-engine lanes allocated by this token, consumed in
    FIFO order by rendezvous stages.
    """

    env: dict[str, Any]
    index: TaskIndex
    task_set: str
    uid: int = field(default_factory=lambda: next(_token_ids))
    task_uid: int = 0
    live_handle: int = -1
    lanes: list = field(default_factory=list)

    def fork(
        self, updates: dict[str, Any], uid: int | None = None
    ) -> "SimToken":
        """A sibling token (Expand): shares task identity and live handle.

        ``uid`` lets the simulator assign the child from its per-instance
        counter; omitted, the global shim counter is used.
        """
        env = dict(self.env)
        env.update(updates)
        if uid is None:
            uid = next(_token_ids)
        return SimToken(
            env=env,
            index=self.index,
            task_set=self.task_set,
            uid=uid,
            task_uid=self.task_uid,
            live_handle=self.live_handle,
        )
