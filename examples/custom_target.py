#!/usr/bin/env python3
"""Defining and optimizing for a custom processor model.

Shows the target-model API: a hypothetical dual-issue DSP with a
48-bit datapath supporting 3x16 and 6x8 SIMD, no barrel shifter, and
slow soft-float.  The flows adapt automatically — eq. (1) picks group
word lengths against the 48-bit datapath, so triples become legal.

Run:  python examples/custom_target.py
"""

from repro.kernels import fir
from repro.pipeline import run_flow, speedup
from repro.targets import TargetModel, register_target, get_target


def budget_dsp() -> TargetModel:
    """A deliberately odd core to exercise the model's generality."""
    return TargetModel(
        name="budget-dsp",
        issue_width=2,
        scalar_wl=48,
        simd_widths=(16, 8),
        units={"alu": 2, "mul": 1, "mem": 1, "sfu": 1},
        latencies={"alu": 1, "mul": 3, "mem": 2},
        has_hw_float=False,
        softfloat_cycles={"fadd": 55, "fsub": 58, "fmul": 40},
        barrel_shifter=False,  # shifts cost |amount| cycles
        branch_penalty=2,
    )


def main() -> None:
    register_target("budget-dsp", budget_dsp)
    target = get_target("budget-dsp")
    print(f"Custom target: {target.describe()}")
    print(f"  eq.(1): pair lane width   = {target.group_wl(2)} bits")
    print(f"  eq.(1): triple lane width = {target.group_wl(3)} bits")
    print(f"  eq.(1): quad lane width   = {target.group_wl(4)} bits")
    print(f"  largest group             = {target.max_group_size} lanes")

    program = fir(n_samples=512)
    float_result = run_flow("float", program, target)

    for constraint in (-20.0, -50.0):
        result = run_flow("wlo-slp", program, target, constraint)
        print(
            f"\n@ {constraint:g} dB: {result.total_cycles} cycles, "
            f"{result.n_groups} groups, noise {result.noise_db:.1f} dB, "
            f"{speedup(float_result, result):.1f}x over soft-float"
        )
        assert result.groups is not None
        sizes = sorted(
            group.size
            for groups in result.groups.values()
            for group in groups
        )
        print(f"  group sizes: {sizes}")


if __name__ == "__main__":
    main()
