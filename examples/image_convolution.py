#!/usr/bin/env python3
"""Image convolution: generate fixed-point + SIMD C and validate it.

Runs WLO-SLP on the paper's 3x3 convolution benchmark, emits both the
scalar fixed-point C and the SIMD macro-API C the source-to-source
back-end produces (paper Section IV), and validates the chosen
specification by *measuring* its output noise with the bit-accurate
interpreter against the float reference — showing the analytical model
told the truth.

Run:  python examples/image_convolution.py
"""

import numpy as np

from repro.accuracy import SimulationAccuracyEvaluator
from repro.codegen import emit_fixed_point_c, emit_simd_c
from repro.kernels import conv2d
from repro.pipeline import run_flow
from repro.targets import get_target


def main() -> None:
    constraint_db = -40.0
    program = conv2d(height=34, width=34)
    target = get_target("vex-4")

    result = run_flow("wlo-slp", program, target, constraint_db)
    print(result.summary())
    assert result.spec is not None and result.groups is not None

    print("\nAnalytical output noise: "
          f"{result.noise_db:.1f} dB (constraint {constraint_db:g} dB)")
    simulator = SimulationAccuracyEvaluator(program, n_stimuli=3)
    measured = simulator.noise_db(result.spec)
    print(f"Measured (bit-accurate simulation): {measured:.1f} dB")
    if measured > constraint_db:
        raise SystemExit("constraint violated — this should never happen")
    print("Constraint satisfied by measurement, not just by the model.")

    print("\n=== Scalar fixed-point C (excerpt) " + "=" * 28)
    scalar_c = emit_fixed_point_c(program, result.spec)
    print("\n".join(scalar_c.splitlines()[:34]))
    print("    ...")

    print("\n=== SIMD macro-API C (excerpt) " + "=" * 32)
    simd_c = emit_simd_c(program, result.spec, result.groups)
    body_start = simd_c.index("void kernel_simd")
    print("\n".join(simd_c[body_start:].splitlines()[:30]))
    print("    ...")

    blurred = _apply(program, result)
    print(f"\nFixed-point blur of a test image: output range "
          f"[{blurred.min():.3f}, {blurred.max():.3f}]")


def _apply(program, result) -> np.ndarray:
    """Run the optimized fixed-point code on a synthetic image."""
    from repro.fixedpoint import run_fixed_point

    rng = np.random.default_rng(11)
    gradient = np.linspace(-0.8, 0.8, 34)
    image = np.clip(
        gradient[None, :] + 0.1 * rng.standard_normal((34, 34)), -1.0, 1.0
    )
    return run_fixed_point(program, result.spec, {"img": image})["out"]


if __name__ == "__main__":
    main()
