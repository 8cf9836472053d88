"""The paper's flow (Fig. 3): joint SLP-aware WLO.

float IR -> range analysis / IWL determination -> accuracy model ->
SLP-aware WLO (Fig. 1) -> SIMD fixed-point lowering -> cycle count.
"""

from __future__ import annotations

from repro.flows.common import AnalysisContext, FlowResult
from repro.codegen.simd import lower_simd_program
from repro.ir.program import Program
from repro.scheduler.cycles import program_cycles
from repro.targets.model import TargetModel
from repro.wlo.slp_aware import wlo_slp_optimize

__all__ = ["run_wlo_slp"]


def run_wlo_slp(
    program: Program,
    target: TargetModel,
    accuracy_db: float,
    context: AnalysisContext | None = None,
    **optimizer_kwargs,
) -> FlowResult:
    """Run the WLO-SLP flow; returns spec, groups and SIMD cycles.

    ``optimizer_kwargs`` are forwarded to
    :func:`repro.wlo.slp_aware.wlo_slp_optimize` (``harmonize``,
    ``scaloptim``, ``accuracy_conflicts`` — the ablation switches).
    """
    ctx = context or AnalysisContext.build(program)
    spec = ctx.fresh_spec(max_wl=target.max_wl)
    outcome = wlo_slp_optimize(
        program, spec, ctx.model, target.word_lengths, accuracy_db,
        **optimizer_kwargs,
    )
    lowered = lower_simd_program(program, spec, target, outcome.groups)
    cycles = program_cycles(program, lowered, target)
    return FlowResult(
        flow="wlo-slp",
        program_name=program.name,
        target_name=target.name,
        constraint_db=accuracy_db,
        spec=spec,
        cycles=cycles,
        groups=outcome.groups,
        noise_db=ctx.model.noise_db(spec),
        extra={
            "selection_stats": outcome.selection,
            "scaling_stats": outcome.scaling,
        },
    )
