"""Table I: SIMD cycle counts for FIR.

The paper reports, per target (XENTIUM, ST240, VEX-4) and per accuracy
constraint (-5 .. -65 dB), the cycle counts of the WLO-First and
WLO-SLP SIMD versions.  The property the paper highlights — and the
one the tests assert — is that WLO-SLP's cycle count is monotonically
non-decreasing as the constraint tightens (a controlled
accuracy/performance trade), while WLO-First's "varies randomly".
"""

from __future__ import annotations

from repro.experiments.runner import PAPER_CONSTRAINT_GRID, ExperimentRunner
from repro.report.tables import TextTable

__all__ = ["TABLE1_TARGETS", "table1"]

TABLE1_TARGETS: tuple[str, ...] = ("xentium", "st240", "vex-4")


def table1(
    runner: ExperimentRunner,
    targets: tuple[str, ...] = TABLE1_TARGETS,
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    kernel: str = "fir",
    **axes: str,
) -> TextTable:
    """Build Table I (cycle counts of SIMD versions for FIR).

    Every completable cell is resolved (and cached) before a failing
    cell surfaces as one :class:`~repro.errors.FlowError` naming all
    failures — the table needs the full grid to keep its columns.
    """
    runner.prefetch((kernel,), targets, grid, **axes).ensure_complete()
    table = TextTable(
        headers=("target", "flow") + tuple(f"{a:g} dB" for a in grid),
        title="Table I — number of cycles of SIMD versions for FIR",
    )
    for target in targets:
        cells = runner.sweep(kernel, target, grid, **axes)
        table.add_row(
            target, "WLO-First", *(c.wlo_first_simd_cycles for c in cells)
        )
        table.add_row(
            target, "WLO-SLP", *(c.wlo_slp_cycles for c in cells)
        )
    return table
