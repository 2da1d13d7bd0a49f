"""The generic memory subsystem: 64 KB FPGA cache + QPI channel.

Models the problem-independent memory system of Section 5.2 with the
latencies of Choi et al. [14]: a direct read hit costs 14 FPGA cycles
(70 ns), a miss adds the QPI round trip (~200 ns) plus queueing behind the
~7 GB/s shared-memory channel.  Bulk transfers (CSR row streams, host task
batches, block operands — the Expand/Call/host traffic) go through the same
channel, so everything competes for the bandwidth Figure 10 sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.eval.platforms import HarpPlatform
from repro.errors import SimulationError


@dataclass
class MemoryStats:
    loads: int = 0
    load_hits: int = 0
    stores: int = 0
    streams: int = 0
    prefetches: int = 0
    bytes_transferred: int = 0


class QpiChannel:
    """A serialized transfer channel with latency and finite bandwidth.

    ``faults`` (a :class:`~repro.sim.faults.FaultPlan`, or None) lets an
    injected latency spike or bandwidth brownout perturb transfers; the
    hook costs one identity test when disabled.
    """

    def __init__(self, platform: HarpPlatform, latency_cycles: int,
                 faults=None) -> None:
        self.bytes_per_cycle = platform.qpi_bytes_per_cycle
        self.latency = latency_cycles
        self.faults = faults
        self._free_at = 0
        self.busy_cycles = 0

    def transfer(self, now: int, nbytes: int) -> int:
        """Schedule a transfer; returns its completion cycle."""
        if nbytes <= 0:
            return now
        bytes_per_cycle = self.bytes_per_cycle
        latency = self.latency
        if self.faults is not None:
            bytes_per_cycle = max(
                1e-9, bytes_per_cycle * self.faults.bandwidth_factor
            )
            latency += self.faults.latency_extra
        start = max(now, self._free_at)
        # Ceiling division: a transfer occupies the channel for every
        # cycle its bytes need — rounding down would under-charge small
        # transfers and let modelled bandwidth exceed the platform's.
        duration = max(1, math.ceil(nbytes / bytes_per_cycle))
        self._free_at = start + duration
        self.busy_cycles += duration
        return start + duration + latency


class Cache:
    """Set-associative cache with LRU replacement (tags only).

    Tracks hit/miss per line address; data correctness is handled by the
    functional MemorySpace, so the cache models timing alone.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int, ways: int) -> None:
        if capacity_bytes % (line_bytes * ways) != 0:
            raise SimulationError("cache geometry does not divide evenly")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (line_bytes * ways)
        # Per set: list of tags in LRU order (front = LRU).
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line

    def access(self, addr: int, allocate: bool = True) -> bool:
        """Touch ``addr``; returns True on hit."""
        set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        if allocate:
            if len(ways) >= self.ways:
                ways.pop(0)
            ways.append(tag)
        return False


class MemorySystem:
    """Front end the load/store units and DMA engines talk to.

    ``prefetch`` enables a simple next-line prefetcher on load misses — a
    problem-independent stand-in for the aggressive data movement the paper
    leaves to future work ("Handcrafted accelerators handle data transfer
    aggressively by prefetching or preprocessing in problem-specific
    ways").  Prefetches consume channel bandwidth like any other transfer.
    """

    def __init__(self, platform: HarpPlatform, prefetch: bool = False,
                 faults=None, probe=None) -> None:
        self.platform = platform
        self.prefetch = prefetch
        self.probe = probe  # the simulator's Probe (None = unobserved)
        self.cache = Cache(
            platform.cache_bytes, platform.cache_line_bytes,
            platform.cache_ways,
        )
        self.channel = QpiChannel(platform, platform.miss_extra_cycles,
                                  faults=faults)
        self.stats = MemoryStats()
        # Requests issued and not yet retired.  Each holder (a load
        # station entry, a Call or Expand stream, the host's batch DMA)
        # keeps its request's completion cycle and retires it once that
        # cycle has passed.
        self.in_flight = 0
        # Latest completion ever issued.  A request retires only once
        # its completion has passed, so while this lies in the future it
        # names a request still outstanding: ``pending`` is one compare.
        self.horizon = -1

    # -- issue ---------------------------------------------------------------

    def issue_load(self, now: int, addr: int, nbytes: int = 8) -> int:
        """A pipeline load; returns its completion cycle."""
        self.stats.loads += 1
        line = self.platform.cache_line_bytes
        hit = self.cache.access(addr)
        if hit:
            self.stats.load_hits += 1
            done = now + self.platform.cache_hit_cycles
        else:
            done = self.channel.transfer(now, line) + \
                self.platform.cache_hit_cycles
            self.stats.bytes_transferred += line
            if self.prefetch:
                next_line = (addr // line + 1) * line
                if not self.cache.access(next_line, allocate=False):
                    self.cache.access(next_line)  # install
                    self.channel.transfer(now, line)
                    self.stats.bytes_transferred += line
                    self.stats.prefetches += 1
        self.in_flight += 1
        if done > self.horizon:
            self.horizon = done
        if self.probe is not None:
            self.probe.load(now, addr, nbytes, hit, done)
        return done

    def issue_store(self, now: int, addr: int, nbytes: int = 8) -> None:
        """A commit-unit store (write-through, posted — no tracking)."""
        self.stats.stores += 1
        hit = self.cache.access(addr)
        if not hit:
            # The posted write still crosses the channel.
            self.channel.transfer(now, nbytes)
            self.stats.bytes_transferred += nbytes
        if self.probe is not None:
            self.probe.store(now, nbytes)

    def issue_stream(self, now: int, nbytes: int) -> int:
        """A bulk sequential transfer (CSR row, host batch, block
        operand); returns its completion cycle."""
        self.stats.streams += 1
        if nbytes <= 0:
            done = now + 1
        else:
            done = self.channel.transfer(now, nbytes)
            self.stats.bytes_transferred += nbytes
        self.in_flight += 1
        if done > self.horizon:
            self.horizon = done
        if self.probe is not None:
            self.probe.stream(now, nbytes, done)
        return done

    # -- completion ------------------------------------------------------------

    def retire(self) -> None:
        """A holder retires one request whose completion has passed
        (``horizon`` relies on that)."""
        if not self.in_flight:
            raise SimulationError("retire with no memory request outstanding")
        self.in_flight -= 1
        if self.probe is not None:
            self.probe.mem_done(self.probe.now)

    def pending(self, now: int) -> bool:
        """True while any outstanding request has not yet completed."""
        return self.horizon > now

    def quiescent(self, now: int) -> bool:
        return self.horizon <= now
