"""Hand-wired reference flows: the oracle the pass pipelines are held to.

The paper's three flows (float, WLO-First of Fig. 5, joint WLO-SLP of
Fig. 3) written out as plain function calls, with their own analysis
prefix: ranges, adjoint gains and accuracy model built by hand, outside
the pass cache.  Test-only; ``tests/test_pipeline.py::TestLegacyParity``
compares every declared flow with these, bit for bit.
"""

from __future__ import annotations

from repro.accuracy.adjoint import extract_gains
from repro.accuracy.analytical import AccuracyModel
from repro.codegen.floatgen import lower_float_program
from repro.codegen.scalar import lower_scalar_program
from repro.codegen.simd import lower_simd_program
from repro.fixedpoint.range_analysis import RangeResult, analyze_ranges
from repro.fixedpoint.spec import SlotMap
from repro.pipeline import AnalysisContext, FlowResult, WloFirstResult
from repro.scheduler.cycles import program_cycles
from repro.slp.extraction import SelectionStats, extract_groups_decoupled
from repro.wlo.registry import get_wlo_engine
from repro.wlo.slp_aware import wlo_slp_optimize


def reference_context(program, analysis_program=None) -> AnalysisContext:
    """Range analysis and gain extraction for ``program``, by hand."""
    twin = analysis_program or program
    slotmap = SlotMap(program)
    twin_slotmap = slotmap if twin is program else SlotMap(twin)
    ranges = analyze_ranges(twin, twin_slotmap)
    # Re-key the ranges onto the main slotmap (identical numbering).
    ranges = RangeResult(slotmap, ranges.ranges, ranges.method)
    gains = extract_gains(twin, twin_slotmap)
    model = AccuracyModel(program, slotmap, gains)
    return AnalysisContext(program, twin, slotmap, ranges, model)


def run_float(program, target) -> FlowResult:
    """Cycle count of the original floating-point version."""
    lowered = lower_float_program(program, target)
    cycles = program_cycles(program, lowered, target)
    return FlowResult(
        flow="float",
        program_name=program.name,
        target_name=target.name,
        constraint_db=float("nan"),
        spec=None,
        cycles=cycles,
        noise_db=None,
    )


def run_wlo_first(
    program, target, accuracy_db, context=None, wlo="tabu"
) -> WloFirstResult:
    """The decoupled baseline: WLO with the named engine, then scalar
    lowering and accuracy-blind SLP extraction."""
    engine = get_wlo_engine(wlo)
    ctx = context or reference_context(program)
    spec = ctx.fresh_spec(max_wl=target.max_wl)
    word_lengths = target.word_lengths
    wlo_stats = engine(program, spec, ctx.model, word_lengths, accuracy_db)
    noise_db = ctx.model.noise_db(spec)

    scalar_lowered = lower_scalar_program(program, spec, target)
    scalar = FlowResult(
        flow=f"wlo-first/{wlo}/scalar",
        program_name=program.name,
        target_name=target.name,
        constraint_db=accuracy_db,
        spec=spec,
        cycles=program_cycles(program, scalar_lowered, target),
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
    simd = FlowResult(
        flow=f"wlo-first/{wlo}/simd",
        program_name=program.name,
        target_name=target.name,
        constraint_db=accuracy_db,
        spec=spec,
        cycles=program_cycles(program, simd_lowered, target),
        groups=groups,
        noise_db=noise_db,
        extra={"wlo_stats": wlo_stats, "selection_stats": stats},
    )
    return WloFirstResult(scalar, simd)


def run_wlo_slp(
    program, target, accuracy_db, context=None, **optimizer_kwargs
) -> FlowResult:
    """The joint flow; ``optimizer_kwargs`` go to
    :func:`~repro.wlo.slp_aware.wlo_slp_optimize` (``harmonize``,
    ``scaloptim``, ``accuracy_conflicts``)."""
    ctx = context or reference_context(program)
    spec = ctx.fresh_spec(max_wl=target.max_wl)
    outcome = wlo_slp_optimize(
        program, spec, ctx.model, target.word_lengths, accuracy_db,
        **optimizer_kwargs,
    )
    lowered = lower_simd_program(program, spec, target, outcome.groups)
    return FlowResult(
        flow="wlo-slp",
        program_name=program.name,
        target_name=target.name,
        constraint_db=accuracy_db,
        spec=spec,
        cycles=program_cycles(program, lowered, target),
        groups=outcome.groups,
        noise_db=ctx.model.noise_db(spec),
        extra={
            "selection_stats": outcome.selection,
            "scaling_stats": outcome.scaling,
        },
    )
