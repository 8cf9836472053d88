"""The baseline flow (paper Fig. 5): WLO first, SLP afterwards.

float IR -> range analysis / IWL determination -> Tabu WLO under the
optimistic WL-relative cost model -> (a) scalar fixed-point lowering
(the baseline of every speedup in the paper) and (b) decoupled,
accuracy-blind SLP extraction + SIMD lowering.
"""

from __future__ import annotations

from repro.flows.common import AnalysisContext, FlowResult
from repro.codegen.scalar import lower_scalar_program
from repro.codegen.simd import lower_simd_program
from repro.ir.program import Program
from repro.scheduler.cycles import program_cycles
from repro.slp.extraction import SelectionStats, extract_groups_decoupled
from repro.targets.model import TargetModel
from repro.wlo.registry import get_wlo_engine
from repro.wlo.tabu import TabuConfig, tabu_wlo

__all__ = ["WloFirstResult", "run_wlo_first"]


class WloFirstResult:
    """Scalar and SIMD results of one WLO-First run.

    The *scalar* cycles are the denominator of every speedup in the
    paper's Fig. 4 and Fig. 6; the *SIMD* cycles are WLO-First's own
    best effort after decoupled SLP extraction.
    """

    def __init__(self, scalar: FlowResult, simd: FlowResult) -> None:
        self.scalar = scalar
        self.simd = simd

    @property
    def spec(self):
        return self.scalar.spec

    def summary(self) -> str:
        return f"{self.scalar.summary()}\n{self.simd.summary()}"


def run_wlo_first(
    program: Program,
    target: TargetModel,
    accuracy_db: float,
    context: AnalysisContext | None = None,
    wlo: str = "tabu",
    tabu_config: TabuConfig | None = None,
) -> WloFirstResult:
    """Run the decoupled baseline flow.

    ``wlo`` names the word-length engine, resolved through
    :mod:`repro.wlo.registry`: ``"tabu"`` (the paper's baseline), the
    ``"max-1"`` / ``"min+1"`` greedy ablations, or anything registered
    with :func:`repro.wlo.registry.register_wlo_engine`.
    """
    engine = get_wlo_engine(wlo)
    ctx = context or AnalysisContext.build(program)
    spec = ctx.fresh_spec(max_wl=target.max_wl)

    word_lengths = target.word_lengths
    if tabu_config is not None and wlo.lower() == "tabu":
        wlo_stats = tabu_wlo(
            program, spec, ctx.model, word_lengths, accuracy_db, tabu_config
        )
    else:
        wlo_stats = engine(program, spec, ctx.model, word_lengths, accuracy_db)

    noise_db = ctx.model.noise_db(spec)

    scalar_lowered = lower_scalar_program(program, spec, target)
    scalar_cycles = program_cycles(program, scalar_lowered, target)
    scalar = FlowResult(
        flow=f"wlo-first/{wlo}/scalar",
        program_name=program.name,
        target_name=target.name,
        constraint_db=accuracy_db,
        spec=spec,
        cycles=scalar_cycles,
        noise_db=noise_db,
        extra={"wlo_stats": wlo_stats},
    )

    stats = SelectionStats()
    groups = {
        name: extract_groups_decoupled(
            program, block, spec, word_lengths, stats
        )
        for name, block in program.blocks.items()
    }
    simd_lowered = lower_simd_program(program, spec, target, groups)
    simd_cycles = program_cycles(program, simd_lowered, target)
    simd = FlowResult(
        flow=f"wlo-first/{wlo}/simd",
        program_name=program.name,
        target_name=target.name,
        constraint_db=accuracy_db,
        spec=spec,
        cycles=simd_cycles,
        groups=groups,
        noise_db=noise_db,
        extra={"wlo_stats": wlo_stats, "selection_stats": stats},
    )
    return WloFirstResult(scalar, simd)
