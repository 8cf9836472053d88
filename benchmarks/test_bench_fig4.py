"""Fig. 4 regeneration bench — SIMD speedups vs accuracy constraint.

For each benchmark kernel, regenerates the paper's Fig. 4 panels (all
four targets) as ASCII plots plus a flat table, persists them under
``benchmarks/results/``, and benchmarks one WLO-SLP flow run as the
timed payload.
"""

from __future__ import annotations

import pytest

from conftest import persist
from repro.experiments import (
    PAPER_CONSTRAINT_GRID,
    PAPER_TARGETS,
    fig4_table,
    render_fig4,
)
from repro.pipeline import run_flow
from repro.targets import get_target

KERNELS = ("fir", "iir", "conv")


@pytest.mark.parametrize("kernel", KERNELS)
def test_fig4_panel_rows(runner, benchmark, results_dir, kernel):
    """Regenerate the Fig. 4 panels of one kernel."""
    context = runner.context(kernel)
    target = get_target("xentium")
    benchmark.pedantic(
        lambda: run_flow(
            "wlo-slp", context.program, target, -25.0,
            analysis_program=context.analysis_program,
        ),
        rounds=1, iterations=1,
    )
    text = render_fig4(runner, (kernel,), PAPER_TARGETS, PAPER_CONSTRAINT_GRID)
    persist(results_dir, f"fig4_{kernel}", text)

    cells = [
        cell
        for target_name in PAPER_TARGETS
        for cell in runner.sweep(kernel, target_name, PAPER_CONSTRAINT_GRID)
    ]
    assert all(cell.scalar_cycles > 0 for cell in cells)
    # Paper shape: on average the joint flow at least matches WLO-First.
    mean_slp = sum(c.wlo_slp_speedup for c in cells) / len(cells)
    mean_wf = sum(c.wlo_first_speedup for c in cells) / len(cells)
    assert mean_slp >= mean_wf - 0.02


def test_fig4_combined_table(runner, benchmark, results_dir):
    """Persist the full Fig. 4 table (all kernels x targets)."""
    table = benchmark.pedantic(
        fig4_table, args=(runner, KERNELS, PAPER_TARGETS, PAPER_CONSTRAINT_GRID),
        rounds=1, iterations=1,
    )
    persist(results_dir, "fig4_table", table.render())
    table.to_csv(results_dir / "fig4.csv")
    table.to_json(results_dir / "fig4.json")
    assert len(table.rows) == len(KERNELS) * len(PAPER_TARGETS) * len(
        PAPER_CONSTRAINT_GRID
    )


def test_fig4_vex_ilp_contrast(runner, results_dir, benchmark):
    """Paper claim: VEX-1 gains exceed VEX-4 gains (ILP absorbs SIMD)."""
    benchmark.pedantic(
        lambda: runner.sweep("fir", "vex-1", PAPER_CONSTRAINT_GRID),
        rounds=1, iterations=1,
    )
    vex1 = runner.sweep("fir", "vex-1", PAPER_CONSTRAINT_GRID)
    vex4 = runner.sweep("fir", "vex-4", PAPER_CONSTRAINT_GRID)
    best1 = max(c.wlo_slp_speedup for c in vex1)
    best4 = max(c.wlo_slp_speedup for c in vex4)
    assert best1 >= best4 - 1e-9, (
        f"expected VEX-1 best speedup ({best1:.2f}) >= VEX-4 ({best4:.2f})"
    )
