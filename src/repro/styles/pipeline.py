"""A second architectural style: batch pipelines.

Demonstrates the framework's style-generality (the paper's point that
adaptation machinery is engineered "independent of any particular
application"): a different family, different constraint, different
operators — same constraint checker, transactions, DSL, and engine.

The style models a linear pipeline of filter stages connected by pipes.
Each stage has a ``backlog`` (items waiting) and a ``width`` (parallel
workers).  The ``backlogBound`` invariant bounds stage backlog; its repair
widens the slowest stage (up to a worker budget) — a miniature of the
paper's ``addServer``.  The mirror-image ``idleWidth`` invariant narrows a
stage back toward its designed ``minWidth`` once its backlog stays under
the low-water mark — the pipeline analogue of the paper's §3.2
underutilization repair that "reduces the number of servers in a server
group if the server group is underutilized".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List

from repro.acme.elements import Component
from repro.acme.family import Family
from repro.acme.system import ArchSystem
from repro.errors import EvaluationError, TacticFailure
from repro.repair.context import RepairContext

__all__ = [
    "build_pipeline_family",
    "build_pipeline_model",
    "pipeline_operators",
    "PIPELINE_DSL",
]


def build_pipeline_family() -> Family:
    fam = Family("PipelineFam")
    (
        fam.component_type("FilterT")
        .declare_property("backlog", "float", 0.0)
        .declare_property("width", "int", 1)
        .declare_property("minWidth", "int", 1)
        .declare_property("utilization", "float", 1.0)
        .declare_property("serviceRate", "float", 1.0)
    )
    fam.connector_type("PipeT").declare_property("inFlight", "float", 0.0)
    fam.port_type("InT")
    fam.port_type("OutT")
    fam.role_type("SourceRoleT")
    fam.role_type("SinkRoleT")
    return fam


def build_pipeline_model(
    name: str, stages: Iterable[str], family: Family = None
) -> ArchSystem:
    """A linear pipeline ``stage1 -> stage2 -> ...`` with PipeT connectors."""
    fam = family if family is not None else build_pipeline_family()
    system = ArchSystem(name, family=fam.name)
    stage_list: List[str] = list(stages)
    if len(stage_list) < 2:
        raise EvaluationError("a pipeline needs at least two stages")
    for stage in stage_list:
        comp = system.new_component(stage, ["FilterT"])
        fam.initialize(comp)
        comp.add_port("input", {"InT"})
        comp.add_port("output", {"OutT"})
    for upstream, downstream in zip(stage_list, stage_list[1:]):
        pipe = system.new_connector(f"pipe_{upstream}_{downstream}", ["PipeT"])
        fam.initialize(pipe)
        src = pipe.add_role("source", {"SourceRoleT"})
        snk = pipe.add_role("sink", {"SinkRoleT"})
        system.attach(system.component(upstream).port("output"), src)
        system.attach(system.component(downstream).port("input"), snk)
    return system


def pipeline_operators(worker_budget: int = 8) -> Dict[str, Callable[..., Any]]:
    """Style operators: ``widen`` a stage, ``narrow`` it back."""

    def _stage(value: Any, op: str) -> Component:
        if not isinstance(value, Component) or not value.declares_type("FilterT"):
            raise EvaluationError(f"{op} must target a FilterT component")
        return value

    def total_width(system: ArchSystem) -> int:
        return sum(
            int(c.get_property("width", 1))
            for c in system.components_of_type("FilterT")
        )

    def op_widen(ctx: RepairContext, stage: Any, amount: Any = 1) -> int:
        comp = _stage(stage, "widen")
        if total_width(ctx.system) + int(amount) > worker_budget:
            raise TacticFailure(f"widen: worker budget {worker_budget} exhausted")
        new_width = int(comp.get_property("width")) + int(amount)
        comp.set_property("width", new_width)
        ctx.intend("widenStage", stage=comp.name, width=new_width)
        return new_width

    def op_narrow(ctx: RepairContext, stage: Any, amount: Any = 1) -> int:
        comp = _stage(stage, "narrow")
        new_width = int(comp.get_property("width")) - int(amount)
        if new_width < 1:
            raise TacticFailure("narrow: a stage needs at least one worker")
        comp.set_property("width", new_width)
        ctx.intend("narrowStage", stage=comp.name, width=new_width)
        return new_width

    return {"widen": op_widen, "narrow": op_narrow}


PIPELINE_DSL = """
invariant b : backlog <= maxBacklog ! -> fixBacklog(b);
invariant u : width <= minWidth or utilization >= minUtilization
    ! -> shrinkStage(u);

strategy fixBacklog(badStage : FilterT) = {
    if (widenStage(badStage)) {
        commit repair;
    } else {
        abort NoWorkersLeft;
    }
}

tactic widenStage(stage : FilterT) : boolean = {
    if (stage.backlog <= maxBacklog) {
        return false;
    }
    stage.widen(1);
    return true;
}

// The scale-down mirror of fixBacklog: release one worker at a time
// while a stage's worker occupancy idles under minUtilization above its
// designed minimum width (the client/server style's shrinkGroup,
// transposed; the backlog guard is its "group still loaded" test).
strategy shrinkStage(idleStage : FilterT) = {
    if (narrowStage(idleStage)) {
        commit repair;
    } else {
        abort ModelError;
    }
}

tactic narrowStage(stage : FilterT) : boolean = {
    if (stage.width <= stage.minWidth) {
        return false;
    }
    if (stage.utilization >= minUtilization) {
        return false;
    }
    if (stage.backlog >= lowWater) {
        return false;
    }
    stage.narrow(1);
    return true;
}
"""
