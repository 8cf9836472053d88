"""Ablation studies (beyond the paper, justifying its design choices).

* **A — SCALOPTIM on/off**: how much of WLO-SLP's win comes from
  uniformizing scaling shifts (paper Fig. 1b / Fig. 2)?
* **B — accuracy conflicts on/off**: the extra conflict class of
  Fig. 1c (joint selection violating the constraint).
* **B2 — boundary harmonization on/off**: this repo's documented
  extension narrowing ungrouped nodes at group boundaries.
* **C — WLO engines for WLO-First**: Tabu (the paper's) vs the greedy
  max-1 / min+1 classics.
"""

from __future__ import annotations

from repro.experiments.engine import kernel_programs
from repro.experiments.runner import ExperimentRunner
from repro.pipeline import run_flow
from repro.report.tables import TextTable
from repro.targets.registry import get_target

__all__ = [
    "ablation_wlo_slp_features",
    "ablation_wlo_engines",
    "ablation_quant_mode",
]


def ablation_wlo_slp_features(
    runner: ExperimentRunner,
    kernel: str = "fir",
    target_name: str = "xentium",
    grid: tuple[float, ...] = (-15.0, -45.0, -65.0),
) -> TextTable:
    """Ablations A, B and B2 on the WLO-SLP flow.

    Each variant is the ``wlo-slp`` flow with one feature parameter
    off, run on the sweep's kernel programs: it shares the cells'
    analysis prefix, and ``full`` is the cells' own joint search.
    """
    program, twin = kernel_programs(runner.config, kernel)
    target = get_target(target_name)
    variants = {
        "full": {},
        "no-scaloptim": {"scaloptim": False},
        "no-acc-conflicts": {"accuracy_conflicts": False},
        "no-harmonize": {"harmonize": False},
    }
    table = TextTable(
        headers=("constraint_db", "variant", "cycles", "groups", "noise_db"),
        title=(
            f"Ablation A/B/B2 — WLO-SLP features on {kernel}/{target_name}"
        ),
    )
    for constraint in grid:
        for name, kwargs in variants.items():
            result = run_flow(
                "wlo-slp", program, target, constraint,
                analysis_program=twin, **kwargs,
            )
            table.add_row(
                constraint, name, result.total_cycles, result.n_groups,
                round(result.noise_db or 0.0, 1),
            )
    return table


def ablation_quant_mode(
    runner: ExperimentRunner,
    kernel: str = "fir",
    target_name: str = "vex-4",
    grid: tuple[float, ...] = (-10.0, -20.0, -30.0),
) -> TextTable:
    """Ablation D — truncation (the paper's mode) vs rounding.

    Truncating every multiply-accumulate builds a coherent DC bias
    (~64 half-quanta on the 64-tap FIR), which is what makes 8-bit
    quad groups infeasible below roughly -12 dB under the paper's
    truncation assumption.  Rounding removes the bias and pushes
    narrow-lane feasibility (hence 4x8 SIMD speedups) much deeper into
    the constraint range — at the cost of one extra add per
    requantization on real hardware, which this repo's cycle model
    deliberately does not charge (documented simplification).
    """
    from repro.accuracy import AccuracyModel
    from repro.fixedpoint import QuantMode

    ctx = runner.context(kernel)
    target = get_target(target_name)
    rounded_model = AccuracyModel(
        ctx.model.program, ctx.slotmap, ctx.model.gains,
        quant_mode=QuantMode.ROUND, input_mode=QuantMode.ROUND,
    )
    table = TextTable(
        headers=("constraint_db", "quant_mode", "cycles", "groups",
                 "max_group", "noise_db"),
        title=f"Ablation D — quantization mode on {kernel}/{target_name}",
    )
    from repro.wlo import wlo_slp_optimize

    for constraint in grid:
        for label, model in (("truncate", ctx.model),
                             ("round", rounded_model)):
            spec = ctx.fresh_spec(max_wl=target.max_wl)
            outcome = wlo_slp_optimize(
                ctx.program, spec, model, target.word_lengths, constraint
            )
            from repro.codegen.simd import lower_simd_program
            from repro.scheduler.cycles import program_cycles

            lowered = lower_simd_program(ctx.program, spec, target,
                                         outcome.groups)
            cycles = program_cycles(ctx.program, lowered, target)
            sizes = [
                group.size
                for groups in outcome.groups.values()
                for group in groups
            ]
            table.add_row(
                constraint, label, cycles.total_cycles, len(sizes),
                max(sizes) if sizes else 1,
                round(model.noise_db(spec), 1),
            )
    return table


def ablation_wlo_engines(
    runner: ExperimentRunner,
    kernel: str = "fir",
    target_name: str = "xentium",
    grid: tuple[float, ...] = (-15.0, -45.0, -65.0),
) -> TextTable:
    """Ablation C — Tabu vs greedy engines inside WLO-First.

    Runs through the sweep engine: each engine variant is a distinct
    :class:`~repro.experiments.engine.CellRequest` (the ``wlo`` field
    is part of the memo/cache key), so ablation cells share the memo
    and disk cache with the baseline sweep without ever aliasing it.
    """
    from repro.experiments.engine import CellRequest, SweepPlan

    table = TextTable(
        headers=("constraint_db", "engine", "scalar_cycles", "simd_cycles",
                 "noise_db"),
        title=f"Ablation C — WLO-First engines on {kernel}/{target_name}",
    )
    # One combined plan across all engines so --jobs parallelism spans
    # the full 3×grid cell set instead of one engine at a time.  The
    # run drains (and caches) every completable cell before a failure
    # in any engine variant surfaces through ensure_complete().
    requests = [
        CellRequest(kernel, target_name, float(constraint), engine)
        for engine in ("tabu", "max-1", "min+1")
        for constraint in grid
    ]
    _, stats = runner.executor.run(SweepPlan(runner.config, requests))
    stats.ensure_complete()
    for constraint in grid:
        for engine in ("tabu", "max-1", "min+1"):
            cell = runner.cell(kernel, target_name, constraint, wlo=engine)
            table.add_row(
                constraint, engine,
                cell.scalar_cycles, cell.wlo_first_simd_cycles,
                round(cell.wlo_first_noise_db, 1),
            )
    return table
