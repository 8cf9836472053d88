#!/usr/bin/env python3
"""Validating the analytical accuracy model on a recursive filter.

The flows call the closed-form noise evaluator thousands of times; its
credibility is everything.  This example sweeps uniform word lengths
on the paper's 10th-order IIR and prints analytical vs. bit-accurate
measured output noise side by side — they should track within ~2 dB
even through the feedback loop.

Run:  python examples/iir_accuracy_validation.py
"""

from repro.accuracy import SimulationAccuracyEvaluator
from repro.kernels import iir
from repro.pipeline import AnalysisContext
from repro.report import TextTable


def main() -> None:
    program = iir(n_samples=512)
    context = AnalysisContext.build(program)
    simulator = SimulationAccuracyEvaluator(program, n_stimuli=3, discard=64)

    table = TextTable(
        headers=("word_length", "analytical_db", "measured_db", "difference"),
        title="IIR-10: analytical noise model vs bit-accurate simulation",
    )
    spec = context.fresh_spec()
    for wl in (32, 24, 20, 16, 12, 10):
        token = spec.save()
        for root in context.slotmap.roots:
            spec.set_wl(root, wl)
        analytical = context.model.noise_db(spec)
        measured = simulator.noise_db(spec)
        table.add_row(
            wl, round(analytical, 2), round(measured, 2),
            round(analytical - measured, 2),
        )
        spec.revert(token)

    print(table.render())
    print(
        "\nThe flows trust the analytical column; the measured column is "
        "the ground truth it is validated against (see tests/)."
    )


if __name__ == "__main__":
    main()
