#!/usr/bin/env python3
"""Sweeping a custom numeric format (half precision, ``binary(8,10)``).

The formats registry (:mod:`repro.formats`) makes the numeric format a
first-class axis next to flows, WLO engines and backends.  This
example:

1. resolves the parameterized ``binary(8,10)`` family member — a
   16-bit float with float32's exponent range (bfloat16 trades the
   opposite way: same width, 8 exponent / 7 mantissa bits);
2. measures its correctly-rounded output noise on the FIR kernel
   against the arbitrary-precision ``bigfloat`` oracle, next to
   float32 and bfloat16;
3. runs a ``--format``-style sweep cell on ``fir:vex-1`` through the
   standard engine, exactly what
   ``repro sweep --format 'binary(8,10)' --only fir:vex-1`` does.

Run:  python examples/custom_format.py
"""

from repro.accuracy import FormatAccuracyEvaluator
from repro.experiments import ExperimentRunner, KernelConfig
from repro.formats import get_format
from repro.kernels import fir
from repro.pipeline import AnalysisContext


def main() -> None:
    # 1. binary(E,M) members resolve on demand — no registration step.
    half = get_format("binary(8,10)")
    print(f"{half.name}: {half.description}")
    print(f"  {half.bits} bits total "
          f"({half.exp_bits} exponent + {half.man_bits} mantissa + sign)")

    # 2. Rounding noise vs the bigfloat oracle, per format.  The
    #    analysis twin keeps the simulations fast.
    program = fir(n_taps=16, n_samples=96)
    context = AnalysisContext.build(program)
    print("\nFIR output noise vs the 200-bit oracle:")
    for name in ("float32", "bfloat16", "binary(8,10)"):
        evaluator = FormatAccuracyEvaluator(
            context.analysis_program, name, n_stimuli=2
        )
        print(f"  {name:>12}: {evaluator.noise_db():8.2f} dB")

    # 3. The same format as a sweep axis: format cells skip WLO (there
    #    are no word lengths to optimize) and report the format's own
    #    rounding noise with float-flow cycles.
    runner = ExperimentRunner(KernelConfig(
        n_samples=96, analysis_samples=96,
        image_size=18, analysis_image_size=18,
    ))
    cell = runner.cell("fir", "vex-1", -25.0, format="binary(8,10)")
    print(f"\nfir:vex-1 @ -25 dB under binary(8,10): "
          f"{cell.wlo_slp_cycles} cycles, "
          f"{cell.wlo_slp_noise_db:.2f} dB noise")


if __name__ == "__main__":
    main()
