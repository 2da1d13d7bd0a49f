"""The host speed probe, in this process and in forked pool workers."""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from bench.speed import (
    REFERENCE_PROBE_S,
    ProbedBuilder,
    SpeedProbe,
    logged_samples,
    window_slowdown,
)


def _busy() -> str:
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        pass
    return "built"


def test_window_slowdown_uses_only_probes_inside_the_window():
    samples = [(1.0, REFERENCE_PROBE_S), (2.0, 3 * REFERENCE_PROBE_S)]
    assert window_slowdown(samples, 1.5, 2.5) == pytest.approx(3.0)
    assert window_slowdown(samples, 0.0, 3.0) == pytest.approx(2.0)
    assert window_slowdown(samples, 5.0, 6.0) is None


def test_probe_samples_while_started():
    probe = SpeedProbe(interval=0.01)
    probe.start()
    try:
        _busy()
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert probe.slowdown() > 0
    assert probe.slowdown(since=probe.mark()) == probe.slowdown()


def test_pool_workers_log_their_own_probes(tmp_path):
    builder = ProbedBuilder(_busy, tmp_path)
    assert pickle.loads(pickle.dumps(builder)).log_dir == tmp_path
    assert builder() == "built"   # in the parent it only builds
    assert not list(tmp_path.iterdir())
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        assert pool.submit(builder).result(timeout=60) == "built"
    samples = logged_samples(tmp_path)
    assert len(samples) == 1 and len(next(iter(samples.values()))) >= 3


def test_logged_samples_skip_a_torn_last_line(tmp_path):
    (tmp_path / "123").write_text("1.0 0.0005\n2.0")
    assert logged_samples(tmp_path) == {123: [(1.0, 0.0005)]}
