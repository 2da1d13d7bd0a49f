"""Tests for the cache + QPI channel memory model."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.eval.platforms import HarpPlatform
from repro.sim.memory import Cache, MemorySystem, QpiChannel

PLATFORM = HarpPlatform()


class TestCache:
    def test_first_access_misses(self):
        cache = Cache(1024, 64, 4)
        assert not cache.access(0)

    def test_second_access_hits(self):
        cache = Cache(1024, 64, 4)
        cache.access(0)
        assert cache.access(0)

    def test_same_line_hits(self):
        cache = Cache(1024, 64, 4)
        cache.access(0)
        assert cache.access(63)
        assert not cache.access(64)

    def test_lru_eviction(self):
        # 4 sets x 2 ways; addresses mapping to set 0: multiples of 256.
        cache = Cache(512, 64, 2)
        cache.access(0)
        cache.access(256)
        cache.access(0)       # 0 now MRU
        cache.access(512)     # evicts 256
        assert cache.access(0)
        assert not cache.access(256)

    def test_no_allocate_option(self):
        cache = Cache(1024, 64, 4)
        cache.access(0, allocate=False)
        assert not cache.access(0, allocate=False)

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            Cache(1000, 64, 4)


class TestChannel:
    def test_latency_added(self):
        channel = QpiChannel(PLATFORM, latency_cycles=40)
        done = channel.transfer(now=0, nbytes=35)
        assert done == 41  # 1 cycle duration + 40 latency

    def test_bandwidth_serializes(self):
        channel = QpiChannel(PLATFORM, latency_cycles=0)
        first = channel.transfer(0, 350)   # 10 cycles at 35 B/cycle
        second = channel.transfer(0, 350)  # queues behind the first
        assert first == 10
        assert second == 20

    def test_idle_gap_not_accumulated(self):
        channel = QpiChannel(PLATFORM, latency_cycles=0)
        channel.transfer(0, 35)
        done = channel.transfer(100, 35)
        assert done == 101

    def test_zero_bytes_is_free(self):
        channel = QpiChannel(PLATFORM, latency_cycles=40)
        assert channel.transfer(5, 0) == 5

    def test_bandwidth_scaling(self):
        fast = QpiChannel(PLATFORM.scaled(2.0), latency_cycles=0)
        slow = QpiChannel(PLATFORM, latency_cycles=0)
        assert fast.transfer(0, 700) < slow.transfer(0, 700)


class TestMemorySystem:
    def test_load_hit_latency(self):
        memory = MemorySystem(PLATFORM)
        memory.issue_load(0, 64)           # warm the line
        done = memory.issue_load(100, 64)  # hit
        assert done == 100 + PLATFORM.cache_hit_cycles

    def test_load_miss_slower_than_hit(self):
        memory = MemorySystem(PLATFORM)
        miss = memory.issue_load(0, 0)
        hit = memory.issue_load(1000, 0)
        assert miss - 0 > PLATFORM.cache_hit_cycles
        # The second load is to a different line and also misses.
        assert hit > PLATFORM.cache_hit_cycles

    def test_ready_and_retire(self):
        """The holder keeps the completion cycle; a retire frees one
        outstanding request, and a retire with none outstanding raises."""
        memory = MemorySystem(PLATFORM)
        done = memory.issue_load(0, 0)
        assert done > 0 and memory.in_flight == 1
        memory.retire()
        assert memory.in_flight == 0
        with pytest.raises(SimulationError):
            memory.retire()

    def test_stream_consumes_bandwidth(self):
        memory = MemorySystem(PLATFORM)
        done = memory.issue_stream(0, 3500)
        # 100 cycles transfer + 40 latency.
        assert done == 140
        assert memory.stats.bytes_transferred == 3500

    def test_store_posted_untracked(self):
        memory = MemorySystem(PLATFORM)
        memory.issue_store(0, 0)
        assert memory.in_flight == 0
        assert memory.stats.stores == 1

    def test_pending(self):
        memory = MemorySystem(PLATFORM)
        done = memory.issue_load(0, 0)
        assert memory.pending(0)
        assert not memory.pending(done)

    def test_hit_statistics(self):
        memory = MemorySystem(PLATFORM)
        memory.issue_load(0, 0)
        memory.issue_load(10, 0)
        assert memory.stats.loads == 2
        assert memory.stats.load_hits == 1


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
def test_cache_hit_rate_bounded(addresses):
    cache = Cache(2048, 64, 4)
    hits = sum(1 for a in addresses if cache.access(a))
    assert 0 <= hits < len(addresses) or len(set(
        a // 64 for a in addresses
    )) == 1


@given(st.lists(st.integers(1, 500), min_size=1, max_size=50))
def test_channel_busy_time_matches_bytes(sizes):
    channel = QpiChannel(PLATFORM, latency_cycles=0)
    for nbytes in sizes:
        channel.transfer(0, nbytes)
    expected = sum(max(1, math.ceil(n / PLATFORM.qpi_bytes_per_cycle))
                   for n in sizes)
    assert channel.busy_cycles == expected
