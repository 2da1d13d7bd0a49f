"""How fast the host runs this process right now, measured in-band.

On a shared host the same pass can take twice as long from one minute to
the next: other tenants take turns on the physical cores, and a guest
charges the lost time to whatever process was running, so neither wall
nor CPU time can tell a slow host from slow code.  :class:`SpeedProbe`
measures the host instead: every ``interval`` seconds a ``SIGALRM`` runs
a fixed pure-Python loop and records how long it took.  The timer counts
wall time, so a process waiting on pool workers keeps probing the host
they run on.  The loop's mean duration over a pass, divided by
:data:`REFERENCE_PROBE_S`, is the pass's slowdown; dividing a host time by
it gives the time the pass would take on the reference host.

The loop is the benchmark's own code, so a change to the program cannot
speed it up or slow it down.  The probe costs about 2% of the time it
runs, the same on every commit.  The program arms ``SIGALRM`` itself only
for sweep jobs with a timeout, which the benchmark never sets.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from pathlib import Path

# The loop's mean duration on the reference host (a 2-vCPU Intel Xeon
# VM, CPython 3.11) when no other tenant competes for its cores.
REFERENCE_PROBE_S = 0.00045
PROBE_ITERATIONS = 4000


def probe_loop(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds this interpreter takes for a fixed integer and dict loop."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(iterations):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 63] = acc
    return time.perf_counter() - start


def slowdown_of(durations: list[float]) -> float:
    """Mean probe time over the reference host's."""
    return statistics.fmean(durations) / REFERENCE_PROBE_S


def window_slowdown(samples: list[tuple[float, float]], start: float,
                    end: float) -> float | None:
    """The slowdown over the probes that started within [start, end].

    ``samples`` are (epoch start, seconds) pairs; None when no probe
    started in the window.
    """
    inside = [d for t, d in samples if start <= t <= end]
    return slowdown_of(inside) if inside else None


class SpeedProbe:
    """Times :func:`probe_loop` every ``interval`` seconds while on.

    ``samples`` holds (epoch start, seconds) for every probe.  With a
    ``log``, each is also appended to that file as one line.
    """

    def __init__(self, interval: float = 0.025,
                 log: Path | None = None) -> None:
        self.interval = interval
        self.log = log
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _probe(self, signum, frame) -> None:
        start = time.time()
        duration = probe_loop()
        self.samples.append((start, duration))
        if self.log is not None:
            with self.log.open("a", encoding="utf-8") as handle:
                handle.write(f"{start!r} {duration!r}\n")

    def mark(self) -> int:
        """A position to measure the slowdown from."""
        return len(self.samples)

    def slowdown(self, since: int = 0) -> float:
        """Mean probe time since ``since`` over the reference host's.

        With no probe in the window (a window shorter than one interval)
        the whole run's probes stand in; with none at all, 1.
        """
        window = self.samples[since:] or self.samples
        return slowdown_of([d for _, d in window]) if window else 1.0


# The probe each pool worker started, by pid; see ProbedBuilder.
_WORKER_PROBES: dict[int, SpeedProbe] = {}


class ProbedBuilder:
    """A sweep job's spec builder that makes its worker probe its speed.

    Pool workers are forked, and ``fork`` does not carry interval timers,
    so the first job a worker builds starts a probe in that worker.  It
    logs every sample to ``log_dir/<pid>``; the parent reads them with
    :func:`logged_samples` once the pool has shut down.  Built in the
    parent itself (a sweep that fell back to in-process), it only builds.
    """

    def __init__(self, builder, log_dir: Path) -> None:
        self.builder = builder
        self.log_dir = log_dir
        self.parent = os.getpid()

    def __call__(self):
        pid = os.getpid()
        if pid != self.parent and pid not in _WORKER_PROBES:
            probe = _WORKER_PROBES[pid] = SpeedProbe(
                log=self.log_dir / str(pid))
            probe.start()
        return self.builder()


def logged_samples(log_dir: Path) -> dict[int, list[tuple[float, float]]]:
    """Every worker's logged probe samples, by worker pid."""
    samples: dict[int, list[tuple[float, float]]] = {}
    for path in log_dir.iterdir():
        rows = samples.setdefault(int(path.name), [])
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                start, duration = map(float, line.split())
            except ValueError:
                continue   # a line cut short when the worker exited
            rows.append((start, duration))
    return samples
