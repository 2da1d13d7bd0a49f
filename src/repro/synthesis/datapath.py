"""Datapath construction: BDFG + templates -> Model of Structure.

The datapath is the generalized architecture of Figure 7: per task set a
multi-bank task queue and ``replicas`` identical pipelines (the heuristic
tuner scales replicas until the FPGA is full); one rule engine per rule
type, shared by all pipelines; one generic memory subsystem.

A pipeline is represented as a :class:`StageProgram` — the BDFG chain
linearized, with switch/rendezvous false-branches attached as epilogue
programs.  The cycle-level simulator instantiates stage objects directly
from this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spec import ApplicationSpec
from repro.errors import SynthesisError
from repro.ir.bdfg import Actor, ActorKind, Bdfg
from repro.ir.lowering import lower_spec
from repro.ir.passes import check_graph
from repro.synthesis.templates import (
    MemorySubsystemTemplate,
    RuleEngineTemplate,
    TaskQueueTemplate,
    TemplateLibrary,
)


@dataclass
class StageSpec:
    """One pipeline stage: the actor it implements plus its false-branch."""

    actor: Actor
    epilogue: list["StageSpec"] = field(default_factory=list)

    @property
    def kind(self) -> ActorKind:
        return self.actor.kind

    @property
    def op(self):
        return self.actor.params.get("op")


@dataclass
class StageProgram:
    """The linearized pipeline for one task set."""

    task_set: str
    stages: list[StageSpec]


@dataclass
class Datapath:
    """The synthesized accelerator structure (Figure 7)."""

    name: str
    graph: Bdfg
    programs: dict[str, StageProgram]
    replicas: dict[str, int]
    queues: dict[str, TaskQueueTemplate]
    rule_engines: dict[str, RuleEngineTemplate]
    memory: MemorySubsystemTemplate
    library: TemplateLibrary

    @property
    def total_pipelines(self) -> int:
        return sum(self.replicas.values())


def linearize(graph: Bdfg, source: Actor) -> list[StageSpec]:
    """Walk a pipeline chain from ``source`` into a stage list."""
    stages: list[StageSpec] = []
    current: Actor | None = source
    while current is not None:
        if current.kind is ActorKind.SINK:
            break
        spec = StageSpec(current)
        if current.kind in (ActorKind.SWITCH, ActorKind.RENDEZVOUS):
            false_edges = [
                c for c in graph.outgoing(current) if c.src_port == "false"
            ]
            if len(false_edges) != 1:
                raise SynthesisError(
                    f"{current.name} must have exactly one false branch"
                )
            branch_head = false_edges[0].dst
            if branch_head.kind is not ActorKind.SINK:
                # linearize() includes the head itself (it is not a SOURCE).
                spec.epilogue = linearize(graph, branch_head)
        if current.kind is not ActorKind.SOURCE:
            stages.append(spec)
        out_edges = [
            c for c in graph.outgoing(current) if c.src_port == "out"
        ]
        if not out_edges:
            break
        if len(out_edges) != 1:
            raise SynthesisError(
                f"{current.name} fans out {len(out_edges)} ways"
            )
        current = out_edges[0].dst
    return stages


def build_datapath(
    spec: ApplicationSpec,
    replicas: dict[str, int] | None = None,
    rule_lanes: int = 16,
    queue_banks: int = 4,
    queue_depth: int = 1024,
    station_depth: int = 8,
    library: TemplateLibrary | None = None,
) -> Datapath:
    """Synthesize the datapath for an application specification.

    ``replicas`` maps task sets to pipeline instance counts (default 1
    each); the other knobs parameterize the templates.  The heuristic tuner
    (:func:`repro.synthesis.tuning.tune_parameters`) chooses them to fill
    the device.
    """
    graph = lower_spec(spec)
    check_graph(graph)
    library = library or TemplateLibrary(stage_station_depth=station_depth)
    replicas = dict(replicas or {})

    programs: dict[str, StageProgram] = {}
    for source in graph.sources():
        task_set = source.params["task_set"]
        chain = linearize(graph, source)
        programs[task_set] = StageProgram(task_set, chain)
        replicas.setdefault(task_set, 1)

    unknown = set(replicas) - set(programs)
    if unknown:
        raise SynthesisError(f"replicas for unknown task sets: {unknown}")

    queues: dict[str, TaskQueueTemplate] = {}
    for task_set, decl in spec.task_sets.items():
        ports = max(1, replicas[task_set])
        queues[task_set] = TaskQueueTemplate(
            banks=queue_banks,
            depth_per_bank=queue_depth,
            entry_bits=decl.entry_bits + 32,  # + well-order index tag
            in_ports=ports + 1,               # pipelines + host
            out_ports=ports,
        )

    total_pipelines = sum(replicas.values())
    rule_engines: dict[str, RuleEngineTemplate] = {}
    for rule_name, rule_type in spec.rules.items():
        rule_engines[rule_name] = RuleEngineTemplate(
            lanes=rule_lanes,
            param_bits=32 * max(1, len(rule_type.params)),
            subscriptions=max(1, len(rule_type.event_subscriptions())),
            clauses=max(1, len(rule_type.clauses)),
            pipelines_attached=total_pipelines,
        )

    return Datapath(
        name=spec.name,
        graph=graph,
        programs=programs,
        replicas=replicas,
        queues=queues,
        rule_engines=rule_engines,
        memory=library.memory,
        library=library,
    )
