"""Fig. 6 regeneration bench — WLO-SLP speedup over floating point.

XENTIUM (no FPU, soft-float emulation): the paper reports 15-45x.
ST240 (hardware float): the paper reports up to ~1.4x, from SIMD alone.
The bench regenerates both series for all three kernels and asserts
those bands.
"""

from __future__ import annotations

from conftest import persist
from repro.experiments import (
    FIG6_TARGETS,
    PAPER_CONSTRAINT_GRID,
    fig6_table,
    render_fig6,
)
from repro.pipeline import run_flow
from repro.targets import get_target


def test_fig6_series(runner, benchmark, results_dir):
    """Regenerate Fig. 6 and persist text + CSV + JSON."""
    context = runner.context("fir")
    benchmark.pedantic(
        lambda: run_flow("float", context.program, get_target("xentium")),
        rounds=1, iterations=1,
    )
    text = render_fig6(runner)
    persist(results_dir, "fig6", text)
    table = fig6_table(runner)
    table.to_csv(results_dir / "fig6.csv")
    table.to_json(results_dir / "fig6.json")
    assert len(table.rows) == len(FIG6_TARGETS) * 3 * len(PAPER_CONSTRAINT_GRID)


def test_fig6_xentium_band(runner, benchmark):
    """Soft-float elimination lands in the paper's tens-of-x band."""
    benchmark.pedantic(
        lambda: runner.float_cycles("fir", "xentium"), rounds=1, iterations=1,
    )
    for kernel in ("fir", "iir", "conv"):
        for cell in runner.sweep(kernel, "xentium", PAPER_CONSTRAINT_GRID):
            assert 5.0 < cell.float_speedup < 100.0, (
                f"{kernel}@{cell.constraint_db}: {cell.float_speedup:.1f}x"
            )


def test_fig6_st240_band(runner, benchmark):
    """With hardware float the gain is small (SIMD only), near 1x."""
    benchmark.pedantic(
        lambda: runner.float_cycles("fir", "st240"), rounds=1, iterations=1,
    )
    for kernel in ("fir", "iir", "conv"):
        for cell in runner.sweep(kernel, "st240", PAPER_CONSTRAINT_GRID):
            assert 0.5 < cell.float_speedup < 3.0, (
                f"{kernel}@{cell.constraint_db}: {cell.float_speedup:.1f}x"
            )
