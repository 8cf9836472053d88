"""Figure 4: SIMD speedups of WLO-First and WLO-SLP vs. constraint.

One panel per (kernel, target): the speedup of each flow's SIMD code
over the WLO-First *scalar* fixed-point baseline (paper eq. (2)),
plotted against the accuracy constraint in dB.  The paper's claims for
this figure, which ``EXPERIMENTS.md`` checks:

* WLO-SLP beats or ties WLO-First almost everywhere;
* WLO-First frequently lands *below* 1x (SLP-blind WLO degrades);
* both converge toward 1x at the strictest constraints;
* VEX-1 gains exceed VEX-4 gains (ILP absorbs SIMD benefit).

Each function here takes the grid's coordinates plus a cell's axes as
``**axes`` (``continuation="pareto"``, ``format="float32"``, …; see
:data:`~repro.experiments.engine.CELL_AXES`) and forwards them to the
runner by name.  ``repro fig4 --dense`` sweeps
:data:`DENSE_CONSTRAINT_GRID` under the ``pareto`` mode unless a mode
was given.
"""

from __future__ import annotations

from repro.experiments.runner import (
    PAPER_CONSTRAINT_GRID,
    PAPER_TARGETS,
    Cell,
    ExperimentRunner,
)
from repro.report.ascii_plot import line_plot
from repro.report.tables import TextTable

__all__ = [
    "DENSE_CONSTRAINT_GRID",
    "fig4_figure",
    "fig4_panel",
    "fig4_table",
    "render_fig4",
]

#: The 4x-resolution constraint grid of ``repro fig4 --dense`` — the
#: exact grid the ``pareto-smoke`` CI job sweeps (28 points, 2.5 dB
#: steps, same [-70, -2.5] span as the paper grid).  Dense panels are
#: meant to run under the single-search Pareto-front WLO, where the
#: whole panel costs one frontier walk regardless of grid resolution.
DENSE_CONSTRAINT_GRID: tuple[float, ...] = tuple(
    -2.5 * k for k in range(1, 29)
)


def fig4_panel(
    runner: ExperimentRunner,
    kernel: str,
    target: str,
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> dict[str, list[tuple[float, float]]]:
    """The two speedup series of one panel."""
    return _series(runner.sweep(kernel, target, grid, **axes))


def _series(cells: list[Cell]) -> dict[str, list[tuple[float, float]]]:
    return {
        "WLO-FIRST": [(c.constraint_db, c.wlo_first_speedup) for c in cells],
        "WLO-SLP": [(c.constraint_db, c.wlo_slp_speedup) for c in cells],
    }


def fig4_table(runner: ExperimentRunner, *args, **kwargs) -> TextTable:
    """All panels as one flat table (kernel, target, constraint);
    takes the arguments of :func:`fig4_figure`."""
    return fig4_figure(runner, *args, **kwargs)[1]


def render_fig4(runner: ExperimentRunner, *args, **kwargs) -> str:
    """Full text rendering: one ASCII plot per panel plus the table;
    takes the arguments of :func:`fig4_figure`."""
    return fig4_figure(runner, *args, **kwargs)[0]


def fig4_figure(
    runner: ExperimentRunner,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    targets: tuple[str, ...] = PAPER_TARGETS,
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
    **axes: str,
) -> tuple[str, TextTable]:
    """The full text rendering and its flat table, from one resolution
    of the grid: if any cell failed, one :class:`~repro.errors.FlowError`
    names them all (after the rest is cached; a re-run resumes warm)."""
    panels = runner.panels(kernels, targets, grid, **axes)
    table = TextTable(
        headers=(
            "kernel", "target", "constraint_db",
            "scalar_cycles", "wlo_first_speedup", "wlo_slp_speedup",
            "wlo_first_groups", "wlo_slp_groups",
        ),
        title="Fig. 4 — SIMD speedup over scalar fixed-point (WLO-First baseline)",
    )
    for (kernel, target), cells in panels.items():
        for cell in cells:
            table.add_row(
                kernel, target, cell.constraint_db,
                cell.scalar_cycles,
                round(cell.wlo_first_speedup, 3),
                round(cell.wlo_slp_speedup, 3),
                cell.wlo_first_groups, cell.wlo_slp_groups,
            )
    sections = [
        line_plot(
            _series(cells),
            title=f"Fig. 4 panel — {kernel.upper()} on {target}",
            y_label="speedup",
            x_label="accuracy constraint (dB)",
        )
        for (kernel, target), cells in panels.items()
    ]
    return "\n\n".join(sections + [table.render()]), table
