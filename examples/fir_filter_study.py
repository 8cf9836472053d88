#!/usr/bin/env python3
"""FIR accuracy/performance trade-off study (a Fig. 4 panel, live).

Sweeps the accuracy constraint for the paper's 64-tap FIR on a chosen
target and compares three codes: the scalar fixed-point baseline, the
decoupled WLO-First SIMD version, and the joint WLO-SLP SIMD version.
Renders the speedup curves as an ASCII plot — the same panel the full
benchmark harness regenerates for every (kernel, target) pair.

Run:  python examples/fir_filter_study.py [target]
"""

import sys

from repro.kernels import fir
from repro.pipeline import run_flow, speedup
from repro.report import TextTable, line_plot
from repro.targets import get_target


def main(target_name: str = "vex-1") -> None:
    target = get_target(target_name)
    print(f"Target: {target.describe()}")

    program = fir(n_samples=2048)
    twin = fir(n_samples=160)  # analysis twin: same ops, shorter loops

    grid = (-5.0, -15.0, -25.0, -35.0, -45.0, -55.0, -65.0)
    table = TextTable(
        headers=("constraint_db", "scalar", "wlo_first_simd", "wlo_slp",
                 "wf_speedup", "slp_speedup", "slp_noise_db"),
        title=f"FIR-64 on {target.name}: accuracy vs performance",
    )
    wf_series = []
    slp_series = []
    for constraint in grid:
        wlo_first = run_flow(
            "wlo-first", program, target, constraint, analysis_program=twin
        )
        wlo_slp = run_flow(
            "wlo-slp", program, target, constraint, analysis_program=twin
        )
        wf_speedup = speedup(wlo_first.scalar, wlo_first.simd)
        slp_speedup = speedup(wlo_first.scalar, wlo_slp)
        table.add_row(
            constraint,
            wlo_first.scalar.total_cycles,
            wlo_first.simd.total_cycles,
            wlo_slp.total_cycles,
            round(wf_speedup, 3),
            round(slp_speedup, 3),
            round(wlo_slp.noise_db or 0.0, 1),
        )
        wf_series.append((constraint, wf_speedup))
        slp_series.append((constraint, slp_speedup))

    print()
    print(table.render())
    print()
    print(line_plot(
        {"WLO-FIRST": wf_series, "WLO-SLP": slp_series},
        title=f"SIMD speedup over scalar fixed-point — FIR on {target.name}",
        y_label="speedup",
        x_label="accuracy constraint (dB)",
    ))


if __name__ == "__main__":
    main(*sys.argv[1:2])
