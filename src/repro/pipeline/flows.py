"""Built-in flow declarations: the paper's three flows, plus variants.

Each of the paper's flows (`float`, `wlo-first`, `wlo-slp`) is a
declared pass list instead of a hand-wired function, built by a small
factory so that *new* scenarios — a different WLO engine, an ablation
configuration, a hybrid — are one-line registrations.  The two extra
variants at the bottom (`wlo-first-greedy`, `wlo-slp-lite`) exist to
prove exactly that point, and double as sweepable ablation flows.

The analysis prefix the fixed-point flows share is also available on
its own, as an :class:`AnalysisContext`, for callers that drive the
accuracy model or a search directly.

Importing this module populates the registry; `repro.pipeline`
re-exports everything, so ``from repro.pipeline import run_flow`` is
all a caller needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro.accuracy.analytical import AccuracyModel
from repro.fixedpoint.iwl import assign_iwls
from repro.fixedpoint.range_analysis import RangeResult
from repro.fixedpoint.spec import FixedPointSpec, SlotMap
from repro.ir.backend import DEFAULT_BACKEND
from repro.ir.program import Program
from repro.pipeline.passes import (
    AccuracyModelPass,
    AdjointGainsPass,
    DecoupledSlpPass,
    IwlAssignmentPass,
    JointWloSlpPass,
    LowerFloatPass,
    LowerScalarPass,
    LowerSimdPass,
    NoiseReportPass,
    Pass,
    RangeAnalysisPass,
    SchedulePass,
    WloPass,
)
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.registry import FlowSpec, register_flow
from repro.pipeline.results import FlowResult, WloFirstResult
from repro.pipeline.state import FlowState

__all__ = ["AnalysisContext", "declare_decoupled_flow", "declare_joint_flow"]


def _analysis_passes(sim_backend: str = DEFAULT_BACKEND) -> tuple[Pass, ...]:
    """The shared prefix: ranges, adjoint gains, accuracy model."""
    return (
        RangeAnalysisPass(sim_backend=sim_backend),
        AdjointGainsPass(),
        AccuracyModelPass(),
    )


@dataclass
class AnalysisContext:
    """One program's analysis prefix: ranges, noise gains, slot map.

    The *analysis twin* trick: gains and ranges are extracted from a
    structurally identical program with reduced trip counts (same ops,
    same ids, shorter loops), because steady-state noise gains converge
    long before the benchmark-sized iteration counts needed for
    realistic cycle numbers.  :meth:`build` verifies the twin matches
    op-for-op.
    """

    program: Program
    analysis_program: Program
    slotmap: SlotMap
    ranges: RangeResult
    model: AccuracyModel

    @staticmethod
    def build(
        program: Program, analysis_program: Program | None = None
    ) -> "AnalysisContext":
        """The flows' own analysis passes on ``program``.

        They run through the process-global pass cache, so a context
        and every flow run on the same program (and twin) share one
        prefix, the accuracy model included.
        """
        state = FlowState.seed(program, analysis_program=analysis_program)
        Pipeline(_analysis_passes(), has_constraint=False).run(state)
        return AnalysisContext(
            program, state.get("analysis_program"), state.get("slotmap"),
            state.get("ranges"), state.get("model"),
        )

    def fresh_spec(self, max_wl: int = 32) -> FixedPointSpec:
        """A new spec with range-derived IWLs and maximum WLs."""
        spec = FixedPointSpec(self.slotmap, max_wl=max_wl)
        assign_iwls(spec, self.ranges)
        return spec


# ----------------------------------------------------------------------
# float

def _build_float(format: str = "") -> tuple[Pass, ...]:
    return (
        LowerFloatPass(format=format),
        SchedulePass("float_lowered", "cycles"),
    )


def _float_result(
    state: FlowState, flow_name: str, params: dict[str, Any]
) -> FlowResult:
    program = state.get("program")
    return FlowResult(
        flow=flow_name,
        program_name=program.name,
        target_name=state.get("target").name,
        constraint_db=math.nan,
        spec=None,
        cycles=state.get("cycles"),
        noise_db=None,
    )


register_flow(FlowSpec(
    name="float",
    description="floating-point reference (FPU or soft-float), Fig. 6 base",
    build=_build_float,
    result=_float_result,
    # ``format`` names a repro.formats execution format for format
    # sweeps; the default "" is the plain float64 reference and keeps
    # the resolved pipeline byte-identical to pre-format releases.
    params={"format": ""},
    needs_constraint=False,
))


# ----------------------------------------------------------------------
# wlo-first (decoupled baseline) and its variants

def _build_decoupled(
    wlo: str, sim_backend: str, continuation: str
) -> tuple[Pass, ...]:
    return (
        *_analysis_passes(sim_backend),
        IwlAssignmentPass(),
        WloPass(engine=wlo, continuation=continuation),
        NoiseReportPass(),
        LowerScalarPass(),
        SchedulePass("scalar_lowered", "scalar_cycles"),
        DecoupledSlpPass(),
        LowerSimdPass(),
        SchedulePass("simd_lowered", "simd_cycles"),
    )


def _decoupled_result(
    state: FlowState, flow_name: str, params: dict[str, Any]
) -> WloFirstResult:
    program = state.get("program")
    target = state.get("target")
    constraint = state.get("constraint_db")
    spec = state.get("spec").clone()  # the pass cache keeps the original
    noise_db = state.get("noise_db")
    wlo_stats = state.get("wlo_stats")
    prefix = f"{flow_name}/{params['wlo']}"
    scalar = FlowResult(
        flow=f"{prefix}/scalar",
        program_name=program.name,
        target_name=target.name,
        constraint_db=constraint,
        spec=spec,
        cycles=state.get("scalar_cycles"),
        noise_db=noise_db,
        extra={"wlo_stats": wlo_stats},
    )
    simd = FlowResult(
        flow=f"{prefix}/simd",
        program_name=program.name,
        target_name=target.name,
        constraint_db=constraint,
        spec=spec,
        cycles=state.get("simd_cycles"),
        groups=state.get("groups"),
        noise_db=noise_db,
        extra={
            "wlo_stats": wlo_stats,
            "selection_stats": state.get("selection_stats"),
        },
    )
    return WloFirstResult(scalar, simd)


def declare_decoupled_flow(
    name: str,
    description: str,
    wlo: str = "tabu",
    sim_backend: str = DEFAULT_BACKEND,
    continuation: str = "",
    **register_kwargs: Any,
) -> FlowSpec:
    """Declare a WLO-then-SLP flow around the named WLO engine.

    ``continuation`` is the cross-constraint reuse mode of the WLO
    pass (``""``/``"warm"``/``"pareto"``, see
    :mod:`repro.wlo.continuation`); like ``sim_backend`` it is
    overridable per run, which is how ``repro sweep --continuation``
    turns it on without declaring new flows.
    """
    return register_flow(FlowSpec(
        name=name,
        description=description,
        build=_build_decoupled,
        result=_decoupled_result,
        params={
            "wlo": wlo, "sim_backend": sim_backend,
            "continuation": continuation,
        },
    ), **register_kwargs)


# ----------------------------------------------------------------------
# wlo-slp (the paper's joint flow) and its variants

def _build_joint(
    harmonize: bool, scaloptim: bool, accuracy_conflicts: bool,
    sim_backend: str, continuation: str,
) -> tuple[Pass, ...]:
    return (
        *_analysis_passes(sim_backend),
        IwlAssignmentPass(),
        JointWloSlpPass(
            harmonize=harmonize,
            scaloptim=scaloptim,
            accuracy_conflicts=accuracy_conflicts,
            continuation=continuation,
        ),
        NoiseReportPass(),
        LowerSimdPass(),
        SchedulePass("simd_lowered", "cycles"),
    )


def _joint_result(
    state: FlowState, flow_name: str, params: dict[str, Any]
) -> FlowResult:
    return FlowResult(
        flow=flow_name,
        program_name=state.get("program").name,
        target_name=state.get("target").name,
        constraint_db=state.get("constraint_db"),
        spec=state.get("spec").clone(),  # the pass cache keeps the original
        cycles=state.get("cycles"),
        groups=state.get("groups"),
        noise_db=state.get("noise_db"),
        extra={
            "selection_stats": state.get("selection_stats"),
            "scaling_stats": state.get("scaling_stats"),
            "wlo_stats": state.get("wlo_stats"),
        },
    )


def declare_joint_flow(
    name: str,
    description: str,
    harmonize: bool = True,
    scaloptim: bool = True,
    accuracy_conflicts: bool = True,
    sim_backend: str = DEFAULT_BACKEND,
    continuation: str = "",
    **register_kwargs: Any,
) -> FlowSpec:
    """Declare a joint SLP-aware WLO flow with the given features.

    ``continuation`` as in :func:`declare_decoupled_flow`; note the
    joint engine treats ``"pareto"`` as warm continuation (it has no
    scalar frontier to walk).
    """
    return register_flow(FlowSpec(
        name=name,
        description=description,
        build=_build_joint,
        result=_joint_result,
        params={
            "harmonize": harmonize,
            "scaloptim": scaloptim,
            "accuracy_conflicts": accuracy_conflicts,
            "sim_backend": sim_backend,
            "continuation": continuation,
        },
    ), **register_kwargs)


# ----------------------------------------------------------------------
# Registrations.  The paper's flows…

declare_decoupled_flow(
    "wlo-first", "decoupled baseline (paper Fig. 5): Tabu WLO, then SLP"
)
declare_joint_flow(
    "wlo-slp", "joint SLP-aware WLO (paper Fig. 3) — the paper's flow"
)

# …and the variants proving flows are one-line declarations now.
declare_decoupled_flow(
    "wlo-first-greedy",
    "decoupled baseline with greedy max-1 WLO instead of Tabu",
    wlo="max-1",
)
declare_joint_flow(
    "wlo-slp-lite",
    "joint flow without SCALOPTIM or boundary harmonization (pure Fig. 1c)",
    harmonize=False, scaloptim=False,
)
