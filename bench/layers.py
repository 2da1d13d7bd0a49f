"""Where the simulator's host time goes: a module->layer map and a sampler.

:class:`Sampler` is a stdlib ``SIGPROF`` profiler.  Every ``interval``
seconds of process CPU time it walks the interrupted Python stack to the
innermost frame of a ``repro`` module and counts one sample for that
module's layer, so time in built-ins and in library code counts toward
the ``repro`` code that called it.  A stack with no ``repro`` frame (the
benchmark itself) counts as ``other``.  Sampling costs one stack walk per
sample, about a microsecond, and nothing between samples, unlike
``cProfile``, which charges every call.

The timer counts this process's CPU time, so time it spends waiting (on
pool workers, say) is not sampled, and it does not follow pool workers
forked while it runs (``fork`` does not inherit interval timers).  Linux
delivers at most one sample per scheduler tick, 4 ms at the common
``HZ=250``.
"""

from __future__ import annotations

import signal
from collections import Counter

import bench  # noqa: F401  (puts the checkout's src/ on sys.path)

LAYERS = (
    "sim.stages",
    "sim.rule_engine",
    "sim.taskqueue",
    "sim.memory",
    "sim.scheduler",
    "sim.loop",
    "sim.host",
    "apps.kernel",
    "obs",
    "other",
)

# Every module of repro.sim, repro.obs, repro.apps and repro.core is named
# here; bench/tests fails when a new module is missing, so it cannot fall
# into "other" unnoticed.  Modules of the other packages map to "other".
MODULE_LAYERS = {
    # The stage pipelines: per-stage ticks, FIFOs and the tokens they move.
    "repro.sim.stages": "sim.stages",
    "repro.sim.pipeline": "sim.stages",
    "repro.sim.fifo": "sim.stages",
    "repro.sim.token": "sim.stages",
    # Rule lanes, event delivery, and the rule semantics they evaluate.
    "repro.sim.rule_engine": "sim.rule_engine",
    "repro.core.rule": "sim.rule_engine",
    "repro.core.events": "sim.rule_engine",
    "repro.sim.taskqueue": "sim.taskqueue",
    "repro.sim.memory": "sim.memory",
    # Which cycle runs next: the event and fast engines' wake-up logic.
    "repro.sim.events": "sim.scheduler",
    "repro.sim.fastpath": "sim.scheduler",
    # The cycle loop and its bookkeeping: liveness, index order, stats,
    # and the robustness hooks it calls (faults, invariants, checkpoints).
    "repro.sim.accelerator": "sim.loop",
    "repro.sim.live": "sim.loop",
    "repro.core.indexing": "sim.loop",
    "repro.sim.stats": "sim.loop",
    "repro.sim.faults": "sim.loop",
    "repro.sim.invariants": "sim.loop",
    "repro.sim.checkpoint": "sim.loop",
    "repro.sim": "sim.loop",
    "repro.sim.host": "sim.host",
    # The application model: builders, kernels, state and specs.
    "repro.apps": "apps.kernel",
    "repro.apps.registry": "apps.kernel",
    "repro.apps.bfs": "apps.kernel",
    "repro.apps.cc": "apps.kernel",
    "repro.apps.coor_sssp": "apps.kernel",
    "repro.apps.dmr": "apps.kernel",
    "repro.apps.mst": "apps.kernel",
    "repro.apps.sparselu": "apps.kernel",
    "repro.apps.sssp": "apps.kernel",
    "repro.core": "apps.kernel",
    "repro.core.kernel": "apps.kernel",
    "repro.core.state": "apps.kernel",
    "repro.core.spec": "apps.kernel",
    "repro.core.task": "apps.kernel",
    "repro.core.eca": "apps.kernel",
    "repro.core.eca_format": "apps.kernel",
    "repro.core.runtime": "apps.kernel",
    "repro.core.futures_runtime": "apps.kernel",
    # Instrumentation: tracer, metrics, profiler, ledger, critical path.
    "repro.obs": "obs",
    "repro.obs.critpath": "obs",
    "repro.obs.dashboard": "obs",
    "repro.obs.diagnose": "obs",
    "repro.obs.events": "obs",
    "repro.obs.fleet": "obs",
    "repro.obs.metrics": "obs",
    "repro.obs.profile": "obs",
    "repro.obs.regress": "obs",
    "repro.obs.runstore": "obs",
    "repro.obs.tracer": "obs",
    "repro.sim.ledger": "obs",
    "repro.sim.trace": "obs",
}

# The dense engine has no scheduler module: its "which cycle next" logic is
# the drain test and limit checks in the accelerator's run loop.
FUNCTION_LAYERS = {
    ("repro.sim.accelerator", "_work_remaining"): "sim.scheduler",
    ("repro.sim.accelerator", "_check_limits"): "sim.scheduler",
    ("repro.sim.accelerator", "_run_fast"): "sim.scheduler",
}


def layer_of(module: str, function: str = "") -> str | None:
    """The layer of code in ``module``; None outside ``repro``."""
    if module != "repro" and not module.startswith("repro."):
        return None
    layer = FUNCTION_LAYERS.get((module, function))
    return layer or MODULE_LAYERS.get(module, "other")


class Sampler:
    """Counts CPU-time samples per layer while started."""

    def __init__(self, interval: float = 0.004) -> None:
        self.interval = interval
        self.counts: Counter[str] = Counter()
        self._code_layers: dict = {}
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        layers = self._code_layers
        while frame is not None:
            code = frame.f_code
            layer = layers.get(code)
            if layer is None:
                layer = layers[code] = layer_of(
                    frame.f_globals.get("__name__", ""), code.co_name
                ) or ""
            if layer:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    def shares(self) -> dict[str, float]:
        """Each layer's share of the samples; the shares sum to 1."""
        total = sum(self.counts.values())
        if not total:
            return {layer: 0.0 for layer in LAYERS}
        return {layer: self.counts[layer] / total for layer in LAYERS}
