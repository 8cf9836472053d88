#!/usr/bin/env python3
"""Quickstart: joint word-length optimization + SLP on a dot product.

Builds a small unrolled dot-product kernel, resolves the paper's
WLO-SLP flow by name through the flow registry, runs it against the
XENTIUM model at a -30 dB output-noise budget, and shows everything
the flow produced: the fixed-point specification, the SIMD groups, the
cycle count, generated C — and a bit-accurate simulation check of the
optimized spec through the vectorized ``batch`` evaluation backend
(bit-identical to the ``scalar`` reference and one to two orders of
magnitude faster on the benchmark kernels — see ``sim_backend_micro``
in benchmarks/results/BENCH_sweep.json for the numbers measured on
this machine; ``repro flows`` lists the backends, and every
simulation-backed CLI command accepts ``--sim-backend``).

Run:  python examples/quickstart.py
"""

from repro.accuracy import SimulationAccuracyEvaluator
from repro.codegen import emit_fixed_point_c
from repro.kernels import dot_product
from repro.pipeline import available_flows, run_flow, speedup
from repro.targets import get_target


def main() -> None:
    program = dot_product(length=64, unroll=4)
    print("=== Kernel IR " + "=" * 50)
    print(program)

    target = get_target("xentium")
    print(f"\n=== Target: {target.describe()}")
    print(f"\nRegistered flows: {', '.join(available_flows())}")

    result = run_flow("wlo-slp", program, target, -30.0)

    print(f"\n=== WLO-SLP result: {result.summary()}")
    print("\nFixed-point specification (per tie group):")
    assert result.spec is not None
    print(result.spec.describe())

    print("\nSIMD groups:")
    assert result.groups is not None
    for block_name, groups in result.groups.items():
        for group in groups:
            print(
                f"  {block_name}: {group.kind.value} x{group.size} lanes "
                f"{list(group.lanes)} @ {group.wl}-bit"
            )

    # Validate the optimized spec by bit-accurate simulation.  The
    # "batch" backend (the default) evaluates all stimuli as array
    # lanes in one pass — bit-identical to "scalar", much faster.
    simulator = SimulationAccuracyEvaluator(
        program, n_stimuli=8, backend="batch"
    )
    print(
        f"\nMeasured output noise {simulator.noise_db(result.spec):.1f} dB "
        f"(analytical model: {result.noise_db:.1f} dB, "
        f"budget -30 dB, batch backend over 8 stimuli)"
    )

    float_result = run_flow("float", program, target)
    print(
        f"\nCycles: float {float_result.total_cycles} -> fixed+SIMD "
        f"{result.total_cycles} "
        f"({speedup(float_result, result):.1f}x, soft-float eliminated)"
    )

    print("\n=== Generated fixed-point C (excerpt) " + "=" * 25)
    source = emit_fixed_point_c(program, result.spec)
    print("\n".join(source.splitlines()[:40]))
    print("    ... (truncated)")


if __name__ == "__main__":
    main()
