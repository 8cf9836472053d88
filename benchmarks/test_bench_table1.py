"""Table I regeneration bench — FIR SIMD cycle counts.

Regenerates the paper's Table I (cycle counts of the SIMD versions of
WLO-First and WLO-SLP for FIR on XENTIUM / ST240 / VEX-4 across the
-5..-65 dB grid) and asserts the property the paper highlights:
WLO-SLP's counts grow monotonically as the constraint tightens, while
WLO-First's may jump around.
"""

from __future__ import annotations

from conftest import persist
from repro.experiments import (
    PAPER_CONSTRAINT_GRID,
    TABLE1_TARGETS,
    table1,
)
from repro.pipeline import run_flow
from repro.targets import get_target


def test_table1_rows(runner, benchmark, results_dir):
    """Regenerate Table I and persist text + CSV + JSON."""
    context = runner.context("fir")
    target = get_target("st240")
    benchmark.pedantic(
        lambda: run_flow(
            "wlo-first", context.program, target, -35.0,
            analysis_program=context.analysis_program,
        ),
        rounds=1, iterations=1,
    )
    table = table1(runner)
    persist(results_dir, "table1", table.render())
    table.to_csv(results_dir / "table1.csv")
    table.to_json(results_dir / "table1.json")
    assert len(table.rows) == 2 * len(TABLE1_TARGETS)


def test_table1_wlo_slp_monotone(runner, benchmark):
    """WLO-SLP cycles never decrease as the constraint tightens."""
    benchmark.pedantic(
        lambda: runner.sweep("fir", "xentium", PAPER_CONSTRAINT_GRID),
        rounds=1, iterations=1,
    )
    for target in TABLE1_TARGETS:
        cells = runner.sweep("fir", target, PAPER_CONSTRAINT_GRID)
        counts = [c.wlo_slp_cycles for c in cells]
        assert counts == sorted(counts), (
            f"{target}: WLO-SLP cycles not monotone over the grid: {counts}"
        )


def test_table1_magnitudes(runner, benchmark):
    """Cycle counts land in the paper's order of magnitude (1e5-1e6)."""
    benchmark.pedantic(
        lambda: runner.cell("fir", "st240", -25.0), rounds=1, iterations=1,
    )
    for target in TABLE1_TARGETS:
        for cell in runner.sweep("fir", target, PAPER_CONSTRAINT_GRID):
            assert 10_000 < cell.wlo_slp_cycles < 10_000_000
            assert 10_000 < cell.wlo_first_simd_cycles < 10_000_000
