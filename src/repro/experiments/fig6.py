"""Figure 6: WLO-SLP speedup over the floating-point original.

XENTIUM has no FPU, so the float reference is soft-float emulation and
fixed-point conversion buys 15-45x in the paper; ST240 has hardware
floating point, so the gain there (up to ~1.4x) comes purely from
exploiting the SIMD datapath.
"""

from __future__ import annotations

from repro.experiments.runner import PAPER_CONSTRAINT_GRID, Cell, ExperimentRunner
from repro.report.ascii_plot import line_plot
from repro.report.tables import TextTable

__all__ = ["FIG6_TARGETS", "fig6_figure", "fig6_series", "fig6_table", "render_fig6"]

FIG6_TARGETS: tuple[str, ...] = ("xentium", "st240")


def fig6_series(
    runner: ExperimentRunner,
    target: str,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> dict[str, list[tuple[float, float]]]:
    """Per-kernel float-to-WLO-SLP speedup series for one target."""
    return _series(runner.panels(kernels, (target,), grid, **axes), target)


def _series(
    panels: dict[tuple[str, str], list[Cell]], target: str
) -> dict[str, list[tuple[float, float]]]:
    return {
        kernel.upper(): [(c.constraint_db, c.float_speedup) for c in cells]
        for (kernel, cells_target), cells in panels.items()
        if cells_target == target
    }


def fig6_table(runner: ExperimentRunner, *args, **kwargs) -> TextTable:
    """All Fig. 6 points as one flat table;
    takes the arguments of :func:`fig6_figure`."""
    return fig6_figure(runner, *args, **kwargs)[1]


def render_fig6(runner: ExperimentRunner, *args, **kwargs) -> str:
    """ASCII plots per target plus the flat table;
    takes the arguments of :func:`fig6_figure`."""
    return fig6_figure(runner, *args, **kwargs)[0]


def fig6_figure(
    runner: ExperimentRunner,
    targets: tuple[str, ...] = FIG6_TARGETS,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> tuple[str, TextTable]:
    """The full text rendering and its flat table, from one resolution
    of the grid: everything completable is cached before one
    :class:`~repro.errors.FlowError` reports any failed cells."""
    panels = runner.panels(kernels, targets, grid, **axes)
    table = TextTable(
        headers=("target", "kernel", "constraint_db", "float_cycles",
                 "wlo_slp_cycles", "speedup"),
        title="Fig. 6 — WLO-SLP speedup over floating-point original",
    )
    for target in targets:
        for kernel in kernels:
            for cell in panels[kernel, target]:
                table.add_row(
                    target, kernel, cell.constraint_db,
                    cell.float_cycles, cell.wlo_slp_cycles,
                    round(cell.float_speedup, 3),
                )
    sections = [
        line_plot(
            _series(panels, target),
            title=f"Fig. 6 — speedup of WLO-SLP over floating-point on {target}",
            y_label="speedup",
            x_label="accuracy constraint (dB)",
        )
        for target in targets
    ]
    return "\n\n".join(sections + [table.render()]), table
