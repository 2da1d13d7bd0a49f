"""Sweep execution engine: parallel simulation jobs with result caching.

Every multi-point evaluation in the repo (figure sweeps, DSE grids,
fault campaigns) reduces to running many independent cycle-level
simulations.  This package gives them one execution path:

* :class:`~repro.exec.job.SimJob` — a picklable, digestable description
  of one simulation (input source, platform, config, fault plan, mode);
* :class:`~repro.exec.cache.ResultCache` — a digest-keyed JSONL cache so
  re-running a sweep never re-simulates a point it already has;
* :class:`~repro.exec.runner.SweepRunner` — serial or process-pool
  execution with deterministic input-order results, per-job timeout,
  supervised retries (seeded exponential backoff with jitter,
  poison-job quarantine), and cache hit/miss reporting;
* :class:`~repro.exec.journal.SweepJournal` — a durable progress
  journal so an interrupted sweep resumes, skipping completed digests
  (cache hits) and quarantined poison jobs;
* :mod:`~repro.exec.chaos` — deterministic infrastructure fault
  injection (worker crashes, torn writes, stale locks) for the chaos
  test harness and CI stress jobs.
"""

from repro.exec.cache import ResultCache
from repro.exec.chaos import ChaosConfig
from repro.exec.job import (
    CallableSource,
    FaultSpec,
    GraphAppSource,
    JobOutcome,
    SimJob,
    WorkloadSource,
    execute_job,
)
from repro.exec.journal import JournalState, SweepJournal
from repro.exec.runner import SweepError, SweepReport, SweepRunner

__all__ = [
    "CallableSource",
    "ChaosConfig",
    "JournalState",
    "SweepJournal",
    "FaultSpec",
    "GraphAppSource",
    "JobOutcome",
    "ResultCache",
    "SimJob",
    "SweepError",
    "SweepReport",
    "SweepRunner",
    "WorkloadSource",
    "execute_job",
]
