"""The paper's abstraction (Section 4): well-ordered task sets plus rules.

An irregular application is specified as a collection of task sets — one per
loop construct, classified ``for-all`` or ``for-each`` — whose elements carry
M-tuple indices establishing a well-order, and a set of ECA rules that
aggressively parallelized executions evaluate at runtime to detect and
resolve the dependences that cannot be analyzed at compile time.
"""

from repro.core.indexing import LoopNest, TaskIndex
from repro.core.task import LoopKind, TaskInstance, TaskSetDecl
from repro.core.events import Event, EventKind
from repro.core.rule import RuleInstance, RuleType, RuleVerdict
from repro.core.eca import compile_rule, parse_rule
from repro.core.spec import ApplicationSpec
from repro.core.runtime import AggressiveRuntime, SequentialRuntime
from repro.core.futures_runtime import FuturesRuntime

__all__ = [
    "LoopNest",
    "TaskIndex",
    "LoopKind",
    "TaskInstance",
    "TaskSetDecl",
    "Event",
    "EventKind",
    "RuleInstance",
    "RuleType",
    "RuleVerdict",
    "compile_rule",
    "parse_rule",
    "ApplicationSpec",
    "SequentialRuntime",
    "AggressiveRuntime",
    "FuturesRuntime",
]
