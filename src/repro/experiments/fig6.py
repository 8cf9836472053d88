"""Figure 6: WLO-SLP speedup over the floating-point original.

XENTIUM has no FPU, so the float reference is soft-float emulation and
fixed-point conversion buys 15-45x in the paper; ST240 has hardware
floating point, so the gain there (up to ~1.4x) comes purely from
exploiting the SIMD datapath.
"""

from __future__ import annotations

from repro.experiments.runner import PAPER_CONSTRAINT_GRID, ExperimentRunner
from repro.report.ascii_plot import line_plot
from repro.report.tables import TextTable

__all__ = ["FIG6_TARGETS", "fig6_series", "fig6_table", "render_fig6"]

FIG6_TARGETS: tuple[str, ...] = ("xentium", "st240")


def fig6_series(
    runner: ExperimentRunner,
    target: str,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> dict[str, list[tuple[float, float]]]:
    """Per-kernel float-to-WLO-SLP speedup series for one target."""
    runner.prefetch(kernels, (target,), grid, **axes).ensure_complete()
    return {
        kernel.upper(): [
            (cell.constraint_db, cell.float_speedup)
            for cell in runner.sweep(kernel, target, grid, **axes)
        ]
        for kernel in kernels
    }


def fig6_table(
    runner: ExperimentRunner,
    targets: tuple[str, ...] = FIG6_TARGETS,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> TextTable:
    """All Fig. 6 points as one flat table.

    Completes and caches everything completable before one
    :class:`~repro.errors.FlowError` reports any failed cells.
    """
    runner.prefetch(kernels, targets, grid, **axes).ensure_complete()
    table = TextTable(
        headers=("target", "kernel", "constraint_db", "float_cycles",
                 "wlo_slp_cycles", "speedup"),
        title="Fig. 6 — WLO-SLP speedup over floating-point original",
    )
    for target in targets:
        for kernel in kernels:
            for cell in runner.sweep(kernel, target, grid, **axes):
                table.add_row(
                    target, kernel, cell.constraint_db,
                    cell.float_cycles, cell.wlo_slp_cycles,
                    round(cell.float_speedup, 3),
                )
    return table


def render_fig6(
    runner: ExperimentRunner,
    targets: tuple[str, ...] = FIG6_TARGETS,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> str:
    """ASCII plots per target plus the flat table."""
    runner.prefetch(kernels, targets, grid, **axes).ensure_complete()
    sections = [
        line_plot(
            fig6_series(runner, target, kernels, grid, **axes),
            title=f"Fig. 6 — speedup of WLO-SLP over floating-point on {target}",
            y_label="speedup",
            x_label="accuracy constraint (dB)",
        )
        for target in targets
    ]
    sections.append(fig6_table(runner, targets, kernels, grid, **axes).render())
    return "\n\n".join(sections)
