#!/usr/bin/env python3
"""Cost/noise Pareto frontier of one kernel, from a single WLO search.

A constraint sweep asks the same cost-vs-noise question once per grid
point.  `repro.wlo.pareto` instead walks the *whole* frontier of one
(kernel, target) pair in a single descending pass — all-maximum word
lengths down to all-minimum — and projecting any constraint onto the
recorded front is then O(points) per cell, feasible by construction.

This example walks the FIR frontier on a chosen target, renders it as
an ASCII plot, and projects it onto a constraint grid 4x denser than
the paper's — the dense Fig.-4-style artifact the frontier makes cheap.
The sweep-engine equivalent is `repro sweep --pareto`.

Run:  python examples/pareto_frontier.py [target]
"""

import sys

from repro.kernels import fir
from repro.pipeline import AnalysisContext
from repro.report import TextTable, line_plot
from repro.targets import get_target
from repro.wlo import pareto_frontier


def main(target_name: str = "vex-1") -> None:
    target = get_target(target_name)
    print(f"Target: {target.describe()}")

    program = fir(n_samples=2048)
    twin = fir(n_samples=160)  # analysis twin: same ops, shorter loops
    context = AnalysisContext.build(program, twin)

    frontier = pareto_frontier(
        context.program, context.fresh_spec(), context.model, target
    )
    print(
        f"One search: {frontier.moves} moves, {frontier.evaluations} "
        f"evaluations, {len(frontier.points)} non-dominated points"
    )

    table = TextTable(
        headers=("noise_db", "relative_cost", "distinct_wls"),
        title=f"FIR-64 cost/noise frontier on {target.name}",
    )
    curve = []
    for point in frontier.points:
        table.add_row(
            round(point.noise_db, 2),
            round(point.cost, 4),
            len(set(point.wls.values())),
        )
        curve.append((point.noise_db, point.cost))
    print()
    print(table.render())
    print()
    print(line_plot(
        {"FRONTIER": curve},
        title=f"WL-relative cost vs quantization noise — FIR on {target.name}",
        y_label="relative cost",
        x_label="noise (dB)",
    ))

    # Projection: every cell of a dense grid (4x the paper's constraint
    # resolution) answered from the one recorded front — the cheapest
    # point whose noise still satisfies the constraint.
    grid = [-2.5 * k for k in range(2, 27)]  # -5 .. -65 dB
    projected = TextTable(
        headers=("constraint_db", "projected_cost", "achieved_noise_db"),
        title=f"Dense-grid projection ({len(grid)} constraints, zero searches)",
    )
    for constraint in grid:
        point = frontier.project(constraint)
        assert point.noise_db <= constraint
        projected.add_row(
            constraint, round(point.cost, 4), round(point.noise_db, 2)
        )
    print()
    print(projected.render())


if __name__ == "__main__":
    main(*sys.argv[1:2])
