"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``        the registered benchmarks and their descriptions
``rules APP``   pretty-print an application's ECA rules
``run APP``     execute on the aggressive software (debug) runtime
``simulate APP``cycle-level accelerator simulation, optional schedule trace
``profile APP`` stall-attribution profile (see docs/observability.md)
``experiment``  regenerate table1 / figure9 / figure10 / resources
``dse APP``     design-space exploration (Pareto frontier)
``fault-campaign``  seeded fault injection with checkpoint/rollback recovery
``runs``        query the cross-run telemetry store (list / show / diff
                / compact)
``cache``       inspect and maintain the sweep result cache
                (stats / verify / compact / prune)
``diagnose``    rank a run's bottlenecks by its measured critical path
                (``--json`` for machine-readable findings)
``critpath``    per-token provenance: extract the measured critical
                path, its bucket decomposition, and what-if projections
                (``--json``; ``--trace-out`` adds the chain as a
                Perfetto flow-arrow track)
``dashboard``   write the self-contained HTML telemetry dashboard
``sweep-status``status of the running (or crashed) sweep in a store
``regress``     rule-based regression detection over the run store
``rtl APP``     emit the application's SystemVerilog skeleton

Sweep-running commands (``experiment``, ``dse``, ``fault-campaign``)
accept ``--jobs N`` (parallel workers), ``--cache/--no-cache``,
``--resume`` — an interrupted sweep restarts, skipping completed points
via the result cache and quarantined poison points via the sweep
journal (see docs/robustness.md) — plus the fleet observability flags
``--progress`` (live stderr heartbeat; a machine-readable
``sweep-status.json`` is always maintained in the store directory) and
``--fleet-trace FILE`` (merged cross-process Chrome trace, one lane per
worker pid; open in Perfetto).

``simulate``, ``profile``, ``fault-campaign``, ``experiment``,
``critpath`` and ``diagnose APP`` append
a :class:`~repro.obs.runstore.RunRecord` to the run store
(``.repro/runs.jsonl``; ``--no-store`` opts out, ``--store DIR``
relocates it), which ``runs`` / ``diagnose`` / ``dashboard`` consume.

``simulate`` accepts ``--inject SEED`` (seeded fault plan),
``--check-invariants`` (runtime sanitizer), ``--resilient``
(checkpoint/rollback recovery), and the observability exports
``--trace-out FILE`` (Chrome ``trace_event`` JSON, loadable in Perfetto)
and ``--metrics-out FILE`` (metrics-registry snapshot).  All commands
verify functional results where applicable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, NamedTuple

from repro.apps.registry import APP_BUILDERS, app_builder
from repro.core.runtime import AggressiveRuntime
from repro.core.eca import parse_rule
from repro.core.eca_format import format_rule
from repro.errors import InputError
from repro.eval.platforms import EVAL_HARP
from repro.obs import Observability
from repro.obs.profile import format_stall_report
from repro.obs.tracer import DEFAULT_TRACE_CAPACITY
from repro.obs.runstore import (
    DEFAULT_STORE_DIR,
    RunRecord,
    RunStore,
    diff_records,
    format_diff,
    format_record,
    format_records_table,
    golden_record,
    record_from_result,
)
from repro.sim.accelerator import AcceleratorSim, SimConfig
from repro.sim.trace import ScheduleTracer


def _source(app: str):
    """The input every command that takes an APP runs ``app`` on."""
    from repro.exec import WorkloadSource

    return WorkloadSource(app, 0.5)


def cmd_list(args: argparse.Namespace) -> int:
    from repro.apps.registry import _ensure_registered

    _ensure_registered()
    for name in sorted(APP_BUILDERS):
        spec = _source(name).build()
        print(f"{name:10s} [{spec.mode:12s}] {spec.description}")
    return 0


def cmd_rules(args: argparse.Namespace) -> int:
    spec = _source(args.app).build()
    print(f"# rules of {spec.name} ({spec.mode})")
    for name, rule in spec.rules.items():
        print()
        if rule.source:
            print(format_rule(parse_rule(rule.source)))
        else:
            print(f"rule {name}(...)  # compiled without source text")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = _source(args.app).build()
    if args.threaded:
        from repro.core.futures_runtime import FuturesRuntime

        stats = FuturesRuntime(spec, threads=args.workers).run()
        print(f"{spec.name}: {stats.tasks_executed} tasks on "
              f"{args.workers} OS threads, "
              f"{stats.tasks_squashed} squashed — VERIFIED")
        return 0
    runtime = AggressiveRuntime(spec, workers=args.workers)
    stats = runtime.run()
    print(f"{spec.name}: {stats.tasks_executed} tasks executed, "
          f"{stats.tasks_committed} committed, "
          f"{stats.tasks_squashed} squashed, "
          f"{stats.otherwise_fired} otherwise / "
          f"{stats.clause_fired} clause verdicts — VERIFIED")
    return 0


def _build_fault_plan(spec, config: SimConfig, seed: int,
                      horizon: int, intensity: float):
    from repro.sim.faults import FaultPlan

    return FaultPlan.generate(
        seed,
        horizon=horizon,
        engines=tuple(spec.rules),
        task_sets=tuple(spec.task_sets),
        banks=config.queue_banks,
        rule_lanes=config.rule_lanes,
        intensity=intensity,
    )


def _positive(kind: type) -> Callable[[str], float]:
    """An argparse ``type`` that parses with ``kind`` and rejects <= 0.

    A rejected value ends in argparse's usage error (exit 2), as a
    non-numeric one already does.
    """
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(
                f"must be positive, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # keeps "invalid int value: 'x'"
    return parse


_positive_int = _positive(int)
_positive_float = _positive(float)


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", choices=("dense", "event"),
                        default=SimConfig.engine,
                        help="simulation engine: event (skip idle cycles, "
                             "the default) or dense (tick everything, the "
                             "oracle) — both cycle-exact")


def _add_sim_options(parser: argparse.ArgumentParser,
                     app_help: str | None = None, *,
                     optional: bool = False) -> None:
    """The simulated-run group: ``app``, ``--bandwidth``, ``--engine``."""
    parser.add_argument("app", nargs="?" if optional else None,
                        help=app_help)
    parser.add_argument("--bandwidth", type=_positive_float, default=1.0,
                        help="QPI bandwidth multiplier (Figure 10 knob)")
    _add_engine_option(parser)


def _add_export_options(
    parser: argparse.ArgumentParser,
    trace: str | None = "write the Chrome trace_event JSON "
                        "(open in Perfetto)",
    metrics: str | None = "write the metrics-registry snapshot JSON",
) -> None:
    """``--trace-out`` / ``--metrics-out FILE``; None leaves a flag out."""
    if trace:
        parser.add_argument("--trace-out", metavar="FILE", help=trace)
    if metrics:
        parser.add_argument("--metrics-out", metavar="FILE", help=metrics)


def _store_from_args(args: argparse.Namespace) -> RunStore | None:
    """The run store this invocation appends to (None = ``--no-store``)."""
    if getattr(args, "no_store", False):
        return None
    return RunStore(getattr(args, "store", DEFAULT_STORE_DIR))


def _add_store_dir(parser: argparse.ArgumentParser,
                   holding: str = "the run store") -> None:
    parser.add_argument("--store", default=DEFAULT_STORE_DIR,
                        metavar="DIR",
                        help=f"directory holding {holding} (default .repro)")


def _add_store_options(parser: argparse.ArgumentParser) -> None:
    _add_store_dir(parser)
    parser.add_argument("--no-store", action="store_true",
                        help="do not record this run in the run store "
                             "(recording attaches the observability "
                             "consumers, so a stored simulate is an "
                             "observed run)")


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for sweep points "
                             "(default 1 = in-process)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="reuse cached results for already-simulated "
                             "sweep points (--no-cache forces "
                             "re-simulation; cache file lives in the "
                             "--store directory)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep: completed "
                             "points come back as cache hits and "
                             "quarantined (poison) points are skipped "
                             "via the sweep journal")
    parser.add_argument("--progress", action="store_true",
                        help="live sweep heartbeat on stderr (the "
                             "machine-readable sweep-status.json in the "
                             "store directory is always maintained; see "
                             "`repro sweep-status`)")
    parser.add_argument("--fleet-trace", metavar="FILE", default=None,
                        help="record per-worker job spans and write the "
                             "merged Chrome trace_event JSON here "
                             "(open in Perfetto; one lane per worker "
                             "pid)")


def _runner_from_args(args: argparse.Namespace, *, strict: bool = True,
                      retries: int = 1):
    """A :class:`~repro.exec.SweepRunner` configured from CLI flags.

    With caching on, a :class:`~repro.exec.SweepJournal` rides along in
    the same store directory so every CLI sweep is resumable after a
    crash; ``--no-cache`` disables both (resume is meaningless when
    completed points cannot be skipped).

    Fleet observability rides the same store directory: a
    :class:`~repro.obs.fleet.SweepProgress` always maintains
    ``sweep-status.json`` there (heartbeat on stderr only with
    ``--progress``), and ``--fleet-trace`` attaches a
    :class:`~repro.obs.fleet.FleetRecorder` whose merged Chrome trace
    :func:`_write_fleet_trace` exports once the command's sweeps are
    done.
    """
    from repro.exec import ResultCache, SweepJournal, SweepRunner
    from repro.obs.fleet import FleetRecorder, SweepProgress

    store_dir = getattr(args, "store", DEFAULT_STORE_DIR)
    cache = journal = None
    if getattr(args, "cache", True):
        cache = ResultCache(store_dir)
        journal = SweepJournal(store_dir)
    progress = SweepProgress(store_dir,
                             heartbeat=getattr(args, "progress", False))
    fleet = (FleetRecorder(store_dir)
             if getattr(args, "fleet_trace", None) else None)
    return SweepRunner(jobs=getattr(args, "jobs", 1), cache=cache,
                       strict=strict, retries=retries, journal=journal,
                       resume=getattr(args, "resume", False),
                       progress=progress, fleet=fleet)


def _write_fleet_trace(args: argparse.Namespace, runner) -> None:
    """Export the merged fleet trace if ``--fleet-trace`` asked for one.

    The confirmation goes to stderr: the stdout of every sweep-running
    command is byte-stable across ``--jobs`` values and diffed in CI.
    """
    path = getattr(args, "fleet_trace", None)
    if path is None or getattr(runner, "fleet", None) is None:
        return
    from repro.obs.fleet import write_fleet_trace

    doc = write_fleet_trace(path, runner.fleet)
    workers = doc["otherData"]["workers"]
    print(f"wrote {path} ({len(doc['traceEvents'])} events, "
          f"{len(workers)} workers)", file=sys.stderr)


def _store_sweep_record(args: argparse.Namespace, runner,
                        command: str, apps=()) -> None:
    """Append the sweep-level RunRecord (fleet page) to the run store.

    Silent on stdout for the same byte-stability reason as above; the
    run id differs between invocations.
    """
    store = _store_from_args(args)
    if store is None or runner.report.points == 0:
        return
    from repro.obs.runstore import record_from_sweep

    try:
        record = store.append(record_from_sweep(
            runner, command=command, apps=tuple(apps),
        ))
    except OSError as exc:
        print(f"error: could not store sweep record: {exc}",
              file=sys.stderr)
        return
    print(f"stored sweep record {record.run_id} -> {store.path}",
          file=sys.stderr)


# Missing, empty or corrupt store files (and unreadable golden: files)
# end in one ``error:`` line on stderr, never a traceback.
_STORE_ERRORS = (KeyError, OSError, ValueError)


def _resolve_run_ref(store: RunStore, ref: str):
    """A store run id, or ``golden:PATH`` for a golden fixture file."""
    if ref.startswith("golden:"):
        with open(ref[len("golden:"):], "r", encoding="utf-8") as handle:
            return golden_record(json.load(handle))
    return store.get(ref)


def _fail(exc: BaseException, hint: str = "") -> int:
    """Report ``exc`` on one ``error:`` line (KeyError unquoted)."""
    message = exc.args[0] if isinstance(exc, KeyError) and exc.args \
        else exc
    print(f"error: {message}{hint}", file=sys.stderr)
    return 1


class _Run(NamedTuple):
    """One timed simulation of a CLI app on the scaled eval platform."""

    spec: Any
    platform: Any
    config: SimConfig
    result: Any
    wall_seconds: float
    stage_names: list[str] | None

    def record(self, kind: str, **fields) -> RunRecord:
        return record_from_result(
            kind, self.spec, self.result, platform=self.platform,
            config=self.config, stage_names=self.stage_names,
            wall_seconds=self.wall_seconds, **fields,
        )


def _simulate(args: argparse.Namespace, *, spec=None,
              config: SimConfig | None = None, **consumers) -> _Run:
    """Simulate ``args.app`` at ``--bandwidth`` on ``--engine``.

    ``consumers`` (``obs``, ``ledger``, ``tracer``, ``faults``,
    ``check_interval``) go to :class:`AcceleratorSim`; only ``run()`` is
    timed.
    """
    spec = _source(args.app).build() if spec is None else spec
    platform = EVAL_HARP.scaled(args.bandwidth)
    config = SimConfig(engine=args.engine) if config is None else config
    sim = AcceleratorSim(spec, platform=platform, config=config, **consumers)
    wall_start = time.perf_counter()
    result = sim.run()
    return _Run(spec, platform, config, result,
                time.perf_counter() - wall_start,
                list(result.stats.per_stage_active))


def _observability(args: argparse.Namespace,
                   capacity: int = DEFAULT_TRACE_CAPACITY) -> Observability:
    """The run's probe consumers, with a trace ring of ``capacity``
    entries only when ``--trace-out`` exports it."""
    return Observability(capacity if args.trace_out else None)


def _write_observability(args: argparse.Namespace, result) -> None:
    """Export the run's trace / metrics snapshot where requested."""
    trace_out, metrics_out = args.trace_out, args.metrics_out
    if trace_out and result.obs is not None:
        result.obs.tracer.write_chrome_trace(trace_out)
        print(f"wrote {trace_out} "
              f"({result.obs.tracer.emitted} events, "
              f"{result.obs.tracer.evicted} evicted)")
    if metrics_out and result.metrics is not None:
        with open(metrics_out, "w", encoding="utf-8") as handle:
            json.dump(result.metrics.snapshot(), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {metrics_out}")


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.accelerator import run_resilient
    from repro.sim.invariants import DEFAULT_CHECK_INTERVAL

    spec = _source(args.app).build()
    store = _store_from_args(args)
    tracer = ScheduleTracer(max_cycles=args.trace_cycles) if args.trace \
        else None
    obs = _observability(args) if (args.trace_out or args.metrics_out
                                   or store is not None) else None
    platform = EVAL_HARP.scaled(args.bandwidth)
    config = SimConfig(prefetch=args.prefetch, engine=args.engine)
    check_interval = (
        args.check_interval
        if args.check_interval is not None
        else (DEFAULT_CHECK_INTERVAL if args.check_invariants else None)
    )

    faults = None
    if args.inject is not None:
        # Size the fault windows from a fault-free baseline run so that
        # every event lands inside the perturbed execution.
        baseline = AcceleratorSim(
            spec, platform=platform, config=config
        ).run(verify=False)
        faults = _build_fault_plan(
            spec, config, args.inject, baseline.cycles, args.intensity,
        )

    extra: dict = {}
    if args.resilient:
        wall_start = time.perf_counter()
        res = run_resilient(
            spec, platform=platform, config=config,
            faults=faults,
            check_interval=check_interval
            if check_interval is not None else DEFAULT_CHECK_INTERVAL,
            obs=obs, tracer=tracer,
        )
        result = res.result
        run = _Run(spec, platform, config, result,
                   time.perf_counter() - wall_start, None)
        extra = {"resilient": {"recovered": res.recovered,
                               "attempts": res.attempts,
                               "rollbacks": res.rollbacks,
                               "degradations": res.degradations}}
        print(f"{spec.name}: recovered={res.recovered} "
              f"attempts={res.attempts} rollbacks={res.rollbacks} "
              f"degradations={res.degradations} "
              f"faults={result.stats.faults_injected}")
    else:
        run = _simulate(args, spec=spec, config=config, tracer=tracer,
                        faults=faults, check_interval=check_interval,
                        obs=obs)
        result = run.result
    print(f"{spec.name}: {result.cycles} cycles "
          f"({result.seconds * 1e6:.1f} us at 200 MHz), "
          f"utilization {result.utilization * 100:.1f}%, "
          f"squash {result.squash_fraction * 100:.1f}%, "
          f"cache hit {result.memory_hit_rate * 100:.0f}%, "
          f"{result.memory_bytes} bytes over QPI — VERIFIED")
    if config.engine != "dense":
        print(f"{config.engine} engine: {result.ff_jumps} jumps skipped "
              f"{result.ff_cycles_skipped} idle cycles "
              f"({result.ff_cycles_skipped / max(1, result.cycles) * 100:.1f}%"
              " of total)")
    if result.tracer is not None:
        print()
        print(result.tracer.timeline(width=args.trace_width))
    if args.profile:
        print()
        print("top stages by stall cycles:")
        stalls = sorted(result.stats.per_stage_stalls.items(),
                        key=lambda kv: -kv[1])[:8]
        for name, count in stalls:
            active = result.stats.per_stage_active.get(name, 0)
            print(f"  {name:40s} stall={count:7d} active={active:7d}")
    _write_observability(args, result)
    if store is not None:
        record = store.append(run.record("simulate", seed=args.inject,
                                         extra=extra))
        print(f"stored run {record.run_id} -> {store.path}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Stall-attribution profile: where does every stage's time go?

    Runs the simulation with the stall profiler attached, which folds
    the probe stream into per-stage cycle accounting (active / stalled
    by reason / idle — each row sums exactly to the cycle count), and
    prints the most-stalled stages.  ``--trace-out`` additionally
    attaches the trace ring and exports the Chrome ``trace_event`` JSON
    for Perfetto.
    """
    store = _store_from_args(args)
    run = _simulate(args, obs=_observability(args, args.trace_capacity))
    result = run.result
    accounting = result.obs.profiler.accounting(run.stage_names,
                                                result.cycles)
    print(f"{run.spec.name}: {result.cycles} cycles, "
          f"utilization {result.utilization * 100:.1f}%, "
          f"squash {result.squash_fraction * 100:.1f}% — VERIFIED")
    print()
    print(format_stall_report(accounting, result.cycles, top=args.top))
    _write_observability(args, result)
    if store is not None:
        record = store.append(run.record("profile"))
        print(f"stored run {record.run_id} -> {store.path}")
    return 0


def cmd_fault_campaign(args: argparse.Namespace) -> int:
    """Seeded fault-injection campaign over a set of benchmarks.

    For each app: run a fault-free baseline to size the fault windows,
    generate a deterministic fault plan from the seed, then run under
    checkpoint/rollback recovery.  The summary is byte-identical across
    repeated invocations with the same seed.
    """
    from repro.eval.platforms import HARP
    from repro.exec import FaultSpec, SimJob
    from repro.obs.runstore import record_from_outcome
    from repro.sim.stats import SimStats

    config = SimConfig()
    store = _store_from_args(args)
    # Campaign failures (recovery exhaustion) are expected outcomes, and
    # deterministic — retrying would only re-derive them.  Sweep/cache
    # reports go to stderr so the campaign's stdout stays byte-identical
    # across repeated seeded invocations (CI diffs it).
    runner = _runner_from_args(args, strict=False, retries=0)
    all_ok = True
    runs: list[dict] = []
    aggregate = SimStats()
    print(f"fault campaign: seed={args.seed} trials={args.trials} "
          f"intensity={args.intensity}")

    baseline_jobs = [
        SimJob(source=_source(app), platform=HARP, config=config,
               verify=False, tag=f"campaign-baseline:{app}")
        for app in args.apps
    ]
    baselines = runner.run(baseline_jobs)
    print(runner.report.summary(), file=sys.stderr)
    for app, baseline in zip(args.apps, baselines):
        if baseline.error:
            print(f"  {app:10s} baseline — FAILED: {baseline.error}")
            all_ok = False

    grid = [
        (app, trial, baseline)
        for app, baseline in zip(args.apps, baselines)
        if not baseline.error
        for trial in range(args.trials)
    ]
    trial_jobs = [
        SimJob(
            source=_source(app),
            platform=HARP,
            config=config,
            fault=FaultSpec(seed=args.seed + trial,
                            horizon=baseline.cycles,
                            intensity=args.intensity),
            resilient=True,
            check_interval=args.check_interval,
            checkpoint_interval=args.checkpoint_interval,
            seed=args.seed + trial,
            tag=f"campaign:{app}#{trial}",
        )
        for app, trial, baseline in grid
    ]
    outcomes = runner.run(trial_jobs)
    print(runner.report.summary(), file=sys.stderr)
    # The merged trace covers both sweeps (baselines, then trials); no
    # sweep-level run record here — the campaign's store contents are
    # part of its byte-stability contract.
    _write_fleet_trace(args, runner)

    for (app, trial, baseline), outcome in zip(grid, outcomes):
        if outcome.error:
            all_ok = False
            print(f"  {app:10s} trial={trial} — FAILED: {outcome.error}")
            continue
        stats = SimStats(**outcome.stats)
        aggregate = aggregate.merge(stats)
        res = outcome.resilient or {}
        if store is not None:
            # Silent append: see the stdout note above.
            store.append(record_from_outcome(
                "fault-campaign", outcome,
                platform=HARP, config=config, seed=args.seed + trial,
                extra={"trial": trial,
                       "baseline_cycles": baseline.cycles,
                       "rollbacks": res.get("rollbacks", 0),
                       "degradations": res.get("degradations", 0)},
            ))
        runs.append({
            "app": app,
            "trial": trial,
            "seed": args.seed + trial,
            "cycles": outcome.cycles,
            "baseline_cycles": baseline.cycles,
            "rollbacks": res.get("rollbacks", 0),
            "metrics": outcome.metrics,
        })
        print(f"  {app:10s} trial={trial} "
              f"injected={stats.faults_injected} "
              f"dropped={stats.events_dropped} "
              f"duplicated={stats.events_duplicated} "
              f"rollbacks={res.get('rollbacks', 0)} "
              f"degradations={res.get('degradations', 0)} "
              f"attempts={res.get('attempts', 1)} "
              f"cycles={outcome.cycles} "
              f"(baseline {baseline.cycles}) — VERIFIED")
        for failure in res.get("failures", []):
            print(f"    recovered@{failure['cycle']}: "
                  f"{failure['error']}")
    if args.metrics_out:
        from dataclasses import asdict

        payload = {
            "seed": args.seed,
            "trials": args.trials,
            "intensity": args.intensity,
            "runs": runs,
            "aggregate": asdict(aggregate),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.metrics_out} ({len(runs)} run snapshots)")
    print("campaign: " + ("all runs VERIFIED" if all_ok
                          else "some runs FAILED"))
    return 0 if all_ok else 1


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval import experiments, reporting
    from repro.eval.export import export_all, store_experiment_results

    kind = args.kind
    exported = {}
    sweep_pending = None
    engine = args.engine
    sweeps = {
        "figure9": (experiments.run_figure9, reporting.format_figure9),
        "figure10": (experiments.run_figure10, reporting.format_figure10),
    }
    if kind == "table1":
        result = experiments.run_table1(engine=engine)
        print(reporting.format_table1(result))
        exported["table1"] = result
    elif kind in sweeps:
        run_sweep, format_result = sweeps[kind]
        apps = tuple(args.apps or experiments.APP_NAMES)
        runner = _runner_from_args(args)
        result = run_sweep(scale=args.scale, apps=apps, runner=runner,
                           engine=engine)
        print(format_result(result))
        print(runner.report.summary())
        _write_fleet_trace(args, runner)
        sweep_pending = (runner, f"experiment:{kind}", apps)
        exported[kind] = result
    elif kind == "resources":
        result = experiments.run_resources(scale=min(args.scale, 0.5))
        print(reporting.format_resources(result))
        exported["resources"] = result
    if args.json:
        path = export_all(args.json, **exported)
        print(f"\nwrote {path}")
    store = _store_from_args(args)
    if store is not None and exported:
        count = store_experiment_results(store, **exported)
        print(f"stored {count} experiment records -> {store.path}")
    # Stored last so `--run latest` features the sweep-level record
    # (the fleet page) rather than an arbitrary per-point record.
    if sweep_pending is not None:
        runner, command, sweep_apps = sweep_pending
        _store_sweep_record(args, runner, command, apps=sweep_apps)
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    """Query or compact the cross-run telemetry store."""
    store = RunStore(args.store)
    try:
        if args.runs_command == "list":
            # A store that was never written is fine to list (empty
            # table); one that exists but yields nothing readable is an
            # error worth a loud line.
            records = store.records()
            if not records and store.skipped:
                store.ensure_readable()
            if getattr(args, "json", False):
                print(json.dumps([r.to_dict() for r in records],
                                 indent=2, sort_keys=True))
            else:
                print(format_records_table(records))
        elif args.runs_command == "show":
            print(format_record(_resolve_run_ref(store, args.ref)))
        elif args.runs_command == "compact":
            if not store.path.exists():
                raise KeyError(f"run store {store.path} does not exist")
            result = store.compact()
            print(f"compacted {store.path}: "
                  f"{result['before_lines']} -> {result['after_lines']} "
                  f"lines, {result['dropped_corrupt']} corrupt dropped")
        else:  # diff
            a = _resolve_run_ref(store, args.a)
            b = _resolve_run_ref(store, args.b)
            print(format_diff(diff_records(a, b)))
    except _STORE_ERRORS as exc:
        return _fail(exc)
    return 0


def _cache_lock_info(cache) -> dict:
    """Holder info of the cache file's lock sidecar, if any."""
    from repro.io.safety import FileLock, pid_alive

    holder = FileLock(cache.path).holder()
    info: dict = {"holder_pid": holder.get("pid"),
                  "mode": holder.get("mode")}
    info["alive"] = pid_alive(holder.get("pid"))
    stamped = holder.get("time")
    info["age_seconds"] = (round(max(0.0, time.time() - stamped), 1)
                           if isinstance(stamped, (int, float)) else None)
    return info


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain the sweep result cache."""
    from repro.exec import ResultCache
    from repro.io.safety import lock_telemetry_snapshot

    cache = ResultCache(args.store)
    try:
        if args.cache_command in ("stats", "verify"):
            report = getattr(cache, args.cache_command)()
            if not report["exists"]:
                raise KeyError(f"result cache {cache.path} does not exist")
        if args.cache_command == "stats":
            lock = _cache_lock_info(cache)
            if getattr(args, "json", False):
                payload = dict(report)
                payload["path"] = str(report["path"])
                payload["lock"] = lock
                payload["lock_telemetry"] = lock_telemetry_snapshot()
                print(json.dumps(payload, indent=2, sort_keys=True))
                return 0
            print(f"result cache {report['path']}: "
                  f"{report['entries']} entries in {report['lines']} lines "
                  f"({report['bytes']} bytes)")
            print(f"  superseded: {report['superseded']}  "
                  f"stale-schema: {report['stale_schema']}  "
                  f"malformed: {report['malformed']}  "
                  f"corrupt: {report['corrupt']}")
            if lock["holder_pid"] is not None:
                state = "alive" if lock["alive"] else "dead"
                age = (f", stamped {lock['age_seconds']:.1f}s ago"
                       if lock["age_seconds"] is not None else "")
                print(f"  lock: last holder pid {lock['holder_pid']} "
                      f"({state}{age})")
            return 0
        if args.cache_command == "verify":
            status = "OK" if report["ok"] else "DAMAGED"
            print(f"verify {report['path']}: {status} — "
                  f"{report['entries']} entries, "
                  f"{report['corrupt']} corrupt lines"
                  + (f" (lines {report['corrupt_lines']})"
                     if report["corrupt_lines"] else "")
                  + f", {report['undecodable']} undecodable entries")
            if not report["ok"]:
                print("  run `repro cache compact` to drop the damage",
                      file=sys.stderr)
            return 0 if report["ok"] else 1
        if args.cache_command == "compact":
            result = cache.compact()
            print(f"compacted {cache.path}: "
                  f"{result['before_lines']} -> {result['after_lines']} "
                  f"lines ({result['dropped_corrupt']} corrupt, "
                  f"{result['dropped_superseded']} superseded dropped)")
            return 0
        # prune
        result = cache.prune(args.max_entries)
        print(f"pruned {cache.path}: "
              f"{result['before_lines']} -> {result['after_lines']} lines "
              f"({result['dropped_corrupt']} corrupt, "
              f"{result['dropped_superseded']} superseded, "
              f"{result['dropped_stale_schema']} stale-schema dropped"
              + (f", capped to {args.max_entries} entries"
                 if args.max_entries is not None else "")
              + ")")
        return 0
    except _STORE_ERRORS as exc:
        return _fail(exc)


def cmd_diagnose(args: argparse.Namespace) -> int:
    """Read a run's bottlenecks off its measured critical path."""
    from repro.obs.diagnose import (
        STORES_A_PATH,
        diagnose_record,
        format_findings,
    )
    from repro.sim.ledger import TokenLedger

    if args.run is not None:
        try:
            record = _resolve_run_ref(RunStore(args.store), args.run)
        except _STORE_ERRORS as exc:
            return _fail(exc)
        if record.critical_path is None:
            return _fail(ValueError(
                f"run {record.run_id} is a {record.kind} record and stores "
                f"no critical path; {STORES_A_PATH}"
            ))
    elif args.app is not None:
        record = _simulate(args, obs=Observability(),
                           ledger=TokenLedger()).record("diagnose")
        store = _store_from_args(args)
        if store is not None:
            record = store.append(record)
    else:
        print("error: give an APP to simulate or --run REF to diagnose "
              "a stored run", file=sys.stderr)
        return 1
    findings = diagnose_record(record)
    if getattr(args, "json", False):
        payload = {
            "app": record.app,
            "run_id": record.run_id,
            "cycles": record.cycles,
            "bandwidth_scale": record.platform.get("bandwidth_scale", 1.0),
            "utilization": round(record.utilization, 6),
            "findings": [finding.to_dict() for finding in findings],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(format_findings(record, findings))
    return 0


def cmd_critpath(args: argparse.Namespace) -> int:
    """Extract the measured critical path of a freshly simulated run.

    Runs the app with a :class:`~repro.sim.ledger.TokenLedger` attached,
    walks the per-token provenance record backwards from the last
    retirement (see :mod:`repro.obs.critpath`), and prints the bucket
    decomposition — which sums exactly to the cycle count — plus the
    what-if speedup bounds.  ``--json`` emits the stored summary block
    (engine-invariant: dense and event produce byte-identical output);
    ``--trace-out`` writes the run's Chrome trace with the chain
    appended as a Perfetto flow-arrow track.
    """
    from repro.obs.critpath import (
        critpath_trace_events,
        extract_critical_path,
        format_critpath,
        result_saturation,
        summary_block,
    )
    from repro.sim.ledger import TokenLedger

    store = _store_from_args(args)
    # Telemetry is always on here: the stored record carries the stall
    # table beside the path, and this is an analysis command — nobody
    # times it.
    run = _simulate(args, obs=_observability(args), ledger=TokenLedger())
    spec, result = run.spec, run.result
    critpath = extract_critical_path(
        result.ledger, result.cycles,
        rule_lanes=run.config.rule_lanes,
        top_segments=args.top,
        saturation=result_saturation(result, run.platform),
    )
    summary = summary_block(critpath)
    record = run.record("critpath", critical_path=summary)

    # Confirmations go to stderr in --json mode so stdout stays one
    # parseable document (and is byte-identical across engines).
    aside = sys.stderr if args.json else sys.stdout
    if args.json:
        payload = dict(summary)
        payload["app"] = spec.name
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_critpath(summary, app=spec.name))
    if args.trace_out:
        doc = result.obs.tracer.chrome_trace()
        doc["traceEvents"].extend(critpath_trace_events(critpath))
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=None, separators=(",", ":"))
        print(f"wrote {args.trace_out} ({len(doc['traceEvents'])} events, "
              f"{summary['path_segments']} path segments)", file=aside)
    if store is not None:
        record = store.append(record)
        print(f"stored run {record.run_id} -> {store.path}", file=aside)
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Render the self-contained HTML dashboard from the run store."""
    from repro.obs.dashboard import write_dashboard
    from repro.obs.diagnose import diagnose_record
    from repro.sim.ledger import TokenLedger

    store = RunStore(args.store)
    history = store.records()
    if args.app is not None:
        record = _simulate(args, obs=Observability(),
                           ledger=TokenLedger()).record("diagnose")
        if not args.no_store:
            record = store.append(record)
            history.append(record)
    else:
        try:
            record = _resolve_run_ref(store, args.run)
        except _STORE_ERRORS as exc:
            return _fail(exc, " — or pass an APP to simulate one now")
    write_dashboard(args.out, record, diagnose_record(record), history)
    print(f"wrote {args.out} (run {record.run_id or 'unsaved'}, "
          f"{len(history)} stored runs)")
    return 0


def cmd_sweep_status(args: argparse.Namespace) -> int:
    """Report the running / finished / crashed sweep in a store dir.

    Reads the atomically-rewritten ``sweep-status.json`` the runner
    maintains, so it works while the sweep runs *and* after a crash (a
    "running" status whose pid is gone is reported as crashed).
    """
    from repro.obs.fleet import format_status, load_status

    status = load_status(args.store)
    if status is None:
        print(f"error: no sweep status in {args.store} (no sweep has "
              "run there, or the status file is unreadable)",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(format_status(status))
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    """Rule-based regression detection (see docs/observability.md).

    Group the run store into comparable series and flag cycle drift
    (fail) and critical-path regime shifts (warn).  Exit 1 iff any
    *fail*-severity finding fired; warnings alone exit 0.
    """
    from repro.obs.regress import format_regressions, regress_store

    try:
        store = RunStore(args.store)
        records = store.records()
        findings = regress_store(records)
        source = f"{len(records)} runs in {store.path}"
    except (OSError, ValueError) as exc:
        return _fail(exc)
    fails = sum(1 for f in findings if f.severity == "fail")
    if args.json:
        print(json.dumps({
            "source": source,
            "fails": fails,
            "warnings": len(findings) - fails,
            "findings": [f.to_dict() for f in findings],
        }, indent=2, sort_keys=True))
    else:
        print(format_regressions(
            findings, quiet_message=f"no regressions found ({source})"
        ))
    return 1 if fails else 0


def cmd_dse(args: argparse.Namespace) -> int:
    from repro.synthesis.dse import explore, format_frontier

    runner = _runner_from_args(args)
    result = explore(
        _source(args.app),
        replica_options=tuple(args.replicas),
        lane_options=tuple(args.lanes),
        platform=EVAL_HARP,
        runner=runner,
    )
    print(format_frontier(result))
    print(runner.report.summary())
    _write_fleet_trace(args, runner)
    _store_sweep_record(args, runner, "dse", apps=(args.app,))
    best = result.best_performance()
    print(f"best performance: {best.label} at {best.cycles} cycles")
    return 0


def cmd_rtl(args: argparse.Namespace) -> int:
    from repro.synthesis.rtl import emit_rtl_for_spec

    text = emit_rtl_for_spec(_source(args.app).build())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.eval.workloads import APP_NAMES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aggressive pipelining of irregular applications "
                    "(ISCA 2017) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(
        handler=cmd_list
    )

    rules = sub.add_parser("rules", help="pretty-print an app's ECA rules")
    rules.add_argument("app")
    rules.set_defaults(handler=cmd_rules)

    run = sub.add_parser("run", help="execute on the software debug runtime")
    run.add_argument("app")
    run.add_argument("--workers", type=_positive_int, default=8)
    run.add_argument("--threaded", action="store_true",
                     help="use the futures/promises OS-thread runtime")
    run.set_defaults(handler=cmd_run)

    simulate = sub.add_parser("simulate",
                              help="cycle-level accelerator simulation")
    _add_sim_options(simulate)
    simulate.add_argument("--prefetch", action="store_true",
                          help="enable next-line prefetch (extension)")
    simulate.add_argument("--trace", action="store_true",
                          help="print an ASCII schedule timeline")
    simulate.add_argument("--trace-cycles", type=_positive_int, default=2000)
    simulate.add_argument("--trace-width", type=_positive_int, default=72)
    simulate.add_argument("--profile", action="store_true",
                          help="print the most-stalled stages")
    simulate.add_argument("--inject", type=int, metavar="SEED",
                          help="inject a seeded fault plan")
    simulate.add_argument("--intensity", type=float, default=1.0,
                          help="fault plan intensity multiplier")
    simulate.add_argument("--check-invariants", action="store_true",
                          help="run the invariant sanitizer periodically")
    simulate.add_argument("--check-interval", type=int, default=None,
                          help="cycles between sanitizer passes")
    simulate.add_argument("--resilient", action="store_true",
                          help="run under checkpoint/rollback recovery")
    _add_export_options(simulate)
    _add_store_options(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    profile = sub.add_parser(
        "profile",
        help="stall-attribution profile of a simulated run",
    )
    _add_sim_options(profile)
    profile.add_argument("--top", type=_positive_int, default=16,
                         help="rows to print (most-stalled first)")
    profile.add_argument("--trace-capacity", type=_positive_int,
                         default=DEFAULT_TRACE_CAPACITY,
                         help="event ring-buffer capacity")
    _add_export_options(profile)
    _add_store_options(profile)
    profile.set_defaults(handler=cmd_profile)

    campaign = sub.add_parser(
        "fault-campaign",
        help="seeded fault injection with checkpoint/rollback recovery",
    )
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--apps", nargs="+",
                          default=["SPEC-BFS", "SPEC-SSSP"])
    campaign.add_argument("--trials", type=int, default=1,
                          help="fault plans per app (seed, seed+1, ...)")
    campaign.add_argument("--intensity", type=float, default=1.0)
    campaign.add_argument("--check-interval", type=int, default=2048)
    campaign.add_argument("--checkpoint-interval", type=_positive_int,
                          default=5000)
    _add_sweep_options(campaign)
    _add_export_options(campaign, trace=None,
                        metrics="write per-run metric snapshots plus the "
                                "merged aggregate as JSON")
    _add_store_options(campaign)
    campaign.set_defaults(handler=cmd_fault_campaign)

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument(
        "kind", choices=("table1", "figure9", "figure10", "resources")
    )
    experiment.add_argument("--scale", type=_positive_float, default=1.0)
    experiment.add_argument("--apps", nargs="+", metavar="APP",
                            choices=APP_NAMES,
                            help="restrict figure9/figure10 to these "
                                 "benchmarks (default: all six)")
    _add_engine_option(experiment)
    _add_sweep_options(experiment)
    experiment.add_argument("--json", help="also export results to JSON")
    _add_store_options(experiment)
    experiment.set_defaults(handler=cmd_experiment)

    runs = sub.add_parser("runs", help="query the cross-run telemetry "
                                       "store (.repro/runs.jsonl)")
    _add_store_dir(runs)
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="table of every stored "
                                                 "run")
    runs_list.add_argument("--json", action="store_true",
                           help="emit the full records as JSON instead "
                                "of the table")
    runs_show = runs_sub.add_parser("show", help="one run in detail")
    runs_show.add_argument("ref", help="run id, prefix, 'latest', a "
                                       "negative index, or golden:PATH")
    runs_diff = runs_sub.add_parser(
        "diff", help="per-stall-bucket cycle deltas between two runs "
                     "(or against a golden: baseline)")
    runs_diff.add_argument("a")
    runs_diff.add_argument("b")
    runs_sub.add_parser(
        "compact", help="rewrite the store dropping corrupt/torn lines "
                        "(run ids are preserved)")
    runs.set_defaults(handler=cmd_runs)

    cache = sub.add_parser(
        "cache", help="inspect and maintain the sweep result cache "
                      "(.repro/simcache.jsonl)")
    _add_store_dir(cache, "the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry/line/corruption accounting plus lock "
                      "holder info")
    cache_stats.add_argument("--json", action="store_true",
                             help="emit stats, lock holder, and lock "
                                  "telemetry as JSON")
    cache_sub.add_parser("verify", help="deep check: every entry must "
                                        "decode; exit 1 on damage")
    cache_sub.add_parser("compact", help="drop corrupt and superseded "
                                         "lines (atomic rewrite)")
    cache_prune = cache_sub.add_parser(
        "prune", help="compact plus drop stale-schema entries, "
                      "optionally capping the entry count")
    cache_prune.add_argument("--max-entries", type=_positive_int,
                             default=None,
                             metavar="N",
                             help="keep only the N most recent entries")
    cache.set_defaults(handler=cmd_cache)

    diagnose = sub.add_parser(
        "diagnose", help="rank the bottlenecks of a run by its measured "
                         "critical path (one finding per path bucket)")
    _add_sim_options(diagnose, "simulate this app with observability and "
                               "a TokenLedger attached", optional=True)
    diagnose.add_argument("--run", metavar="REF",
                          help="diagnose a stored run instead")
    diagnose.add_argument("--json", action="store_true",
                          help="emit the ranked findings as JSON")
    _add_store_options(diagnose)
    diagnose.set_defaults(handler=cmd_diagnose)

    critpath = sub.add_parser(
        "critpath", help="extract the measured critical path of a run "
                         "(per-token provenance walk; bucket "
                         "decomposition + what-if speedup bounds)")
    _add_sim_options(critpath, "simulate this app with a TokenLedger "
                               "attached")
    critpath.add_argument("--top", type=_positive_int, default=12,
                          help="longest segments to print (default 12)")
    critpath.add_argument("--json", action="store_true",
                          help="emit the summary block as JSON "
                               "(byte-identical across engines)")
    _add_export_options(critpath, metrics=None,
                        trace="write the Chrome trace with the critical "
                              "path as a flow-arrow track (open in "
                              "Perfetto)")
    _add_store_options(critpath)
    critpath.set_defaults(handler=cmd_critpath)

    dashboard = sub.add_parser(
        "dashboard", help="write the self-contained HTML dashboard")
    _add_sim_options(dashboard, "simulate this app first (else use --run)",
                     optional=True)
    dashboard.add_argument("--run", metavar="REF", default="latest",
                           help="stored run to feature (default latest)")
    dashboard.add_argument("--out", default="dashboard.html",
                           metavar="FILE")
    _add_store_options(dashboard)
    dashboard.set_defaults(handler=cmd_dashboard)

    status = sub.add_parser(
        "sweep-status", help="status of the running (or crashed) sweep "
                             "in a store directory")
    _add_store_dir(status, "sweep-status.json")
    status.add_argument("--json", action="store_true",
                        help="emit the raw status document")
    status.set_defaults(handler=cmd_sweep_status)

    regress = sub.add_parser(
        "regress", help="rule-based regression detection over the run "
                        "store (exit 1 on any fail-severity finding)")
    _add_store_dir(regress)
    regress.add_argument("--json", action="store_true",
                         help="emit findings as JSON")
    regress.set_defaults(handler=cmd_regress)

    rtl = sub.add_parser("rtl", help="emit the SystemVerilog skeleton")
    rtl.add_argument("app")
    rtl.add_argument("--output", help="write to a file instead of stdout")
    rtl.set_defaults(handler=cmd_rtl)

    dse = sub.add_parser("dse", help="design-space exploration")
    dse.add_argument("app")
    dse.add_argument("--replicas", type=_positive_int, nargs="+",
                     default=[1, 2, 4])
    dse.add_argument("--lanes", type=_positive_int, nargs="+",
                     default=[16, 64])
    _add_store_dir(dse, "the result cache")
    _add_sweep_options(dse)
    dse.set_defaults(handler=cmd_dse)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "app", None) is not None:
        # An unknown APP is a user error: one line naming the known apps.
        try:
            app_builder(args.app)
        except InputError as exc:
            return _fail(exc)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
