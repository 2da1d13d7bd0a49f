"""The metrics registry: named counters, gauges, and log-scaled histograms.

Components register instruments against the registry instead of poking
fields on a stats dataclass; :class:`~repro.sim.stats.SimStats` is then
re-derived from the registry for backward compatibility.  Instruments are
bound once at construction (an increment is one attribute add, the same
cost as the ``dataclass.field += 1`` it replaces), and a registry
snapshot is a plain sorted dict that serializes deterministically.

Histograms use log2 buckets — bucket *k* holds values whose bit length
is *k*, i.e. ``2**(k-1) <= value < 2**k`` (bucket 0 holds zeros) — the
right shape for queue occupancies and memory latencies that span orders
of magnitude.
"""

from __future__ import annotations

from repro.errors import SimulationError


class Counter:
    """A monotonically increasing integer.

    ``value`` is public on purpose: per-cycle call sites add to it
    directly (``counter.value += n``), skipping the method dispatch that
    :meth:`inc` costs — profiled at ~8% of the dense cycle loop before
    the change.  ``inc`` remains for everything off the hot path.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Log2-bucketed distribution of non-negative integers."""

    __slots__ = ("name", "count", "total", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.buckets: list[int] = []

    def record(self, value) -> None:
        value = int(value)
        if value < 0:
            value = 0
        idx = value.bit_length()
        buckets = self.buckets
        if idx >= len(buckets):
            buckets.extend([0] * (idx + 1 - len(buckets)))
        buckets[idx] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """Estimate the ``fraction`` quantile (0 < fraction <= 1).

        The estimate walks the cumulative bucket counts to the bucket
        holding the target rank and interpolates linearly inside its
        value range ``[2**(k-1), 2**k)`` — exact for buckets 0 and 1
        (which hold a single value each), within one octave otherwise,
        and always deterministic, so snapshots stay diffable.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"percentile fraction must be in (0, 1], "
                             f"got {fraction!r}")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        cumulative = 0
        for k, bucket in enumerate(self.buckets):
            if bucket == 0:
                continue
            cumulative += bucket
            if cumulative >= rank:
                if k <= 1:
                    return float(k)  # bucket 0 holds 0s, bucket 1 holds 1s
                low, high = 1 << (k - 1), 1 << k
                within = (rank - (cumulative - bucket)) / bucket
                return low + within * (high - 1 - low)
        return float(1 << (len(self.buckets) - 1))  # pragma: no cover

    def percentiles(self) -> dict[str, float]:
        """The standard p50/p95/p99 summary used by snapshots."""
        return {
            "p50": round(self.percentile(0.50), 3),
            "p95": round(self.percentile(0.95), 3),
            "p99": round(self.percentile(0.99), 3),
        }

    def bucket_labels(self) -> list[str]:
        return ["0" if k == 0 else f"<{1 << k}"
                for k in range(len(self.buckets))]


class MetricsRegistry:
    """Get-or-create instrument store keyed by dotted metric names."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def _get(self, table: dict, cls, name: str):
        instrument = table.get(name)
        if instrument is None:
            for other in (self.counters, self.gauges, self.histograms):
                if other is not table and name in other:
                    raise SimulationError(
                        f"metric {name!r} already registered with a "
                        "different instrument type"
                    )
            instrument = table[name] = cls(name)
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(self.counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get(self.gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._get(self.histograms, Histogram, name)

    def counter_value(self, name: str, default: int = 0) -> int:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """A deterministic, JSON-serializable view of every instrument."""
        return {
            "counters": {
                name: c.value for name, c in sorted(self.counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "mean": round(h.mean, 6),
                    **h.percentiles(),
                    "buckets": dict(zip(h.bucket_labels(), h.buckets)),
                }
                for name, h in sorted(self.histograms.items())
            },
        }


class _Instruments(dict):
    """key -> the instrument named ``pattern.format(key)``, registered
    with ``register`` the first time a handler reads it (a snapshot
    lists only the instruments a run touched)."""

    def __init__(self, register, pattern: str = "{}") -> None:
        super().__init__()
        self.register = register
        self.pattern = pattern

    def __missing__(self, key: str):
        instrument = self[key] = self.register(self.pattern.format(key))
        return instrument


class EventMetrics:
    """Probe consumer recording issue, latency, occupancy and recovery
    metrics into ``registry``.

    The handlers read their instruments from maps keyed by engine, task
    set or name, so an emission costs no helper call, no name formatting
    and no registry lookup.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._counters = _Instruments(registry.counter)
        self._histograms = _Instruments(registry.histogram)
        self._lane_occupancy = _Instruments(registry.histogram,
                                            "rules.{}.lane_occupancy")
        self._queue_occupancy = _Instruments(registry.histogram,
                                             "queue.{}.occupancy")

    # -- probe consumer ---------------------------------------------------------

    def on_alloc(self, cycle, stage, uid, retired, engine, lanes):
        self._lane_occupancy[engine].record(lanes)

    def on_activate(self, cycle, handle, cause, cause_uid, task_set,
                    occupancy):
        self._queue_occupancy[task_set].record(occupancy)

    def on_load(self, cycle, addr, nbytes, hit, done_at):
        self._counters["mem.loads_issued"].value += 1
        self._histograms["mem.load_latency"].record(done_at - cycle)

    def on_store(self, cycle, nbytes):
        self._counters["mem.stores_issued"].value += 1

    def on_stream(self, cycle, nbytes, done_at):
        self._counters["mem.streams_issued"].value += 1

    def on_checkpoint(self, cycle, count):
        self._counters["recovery.checkpoints"].value += 1

    def on_rollback(self, cycle):
        self._counters["recovery.rollbacks"].value += 1
