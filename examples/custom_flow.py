#!/usr/bin/env python3
"""Declaring a custom flow variant (and a custom WLO engine) by name.

The flow registry makes a new compilation scenario a *declaration*,
not a new orchestration function.  This example:

1. registers ``my-slp-only`` — the joint flow with every refinement
   feature off — as a one-line declaration;
2. registers a custom WLO engine (``tabu-long``, a patient Tabu
   search) and uses it from the stock ``wlo-first`` flow by name;
3. assembles a fully hand-rolled pipeline from the pass library, for
   when even the factories are too opinionated;
4. compares all of them on one kernel, sharing a per-pass cache so the
   expensive analysis prefix runs exactly once.

Everything registered here is immediately usable from the CLI of this
process too (``repro run --flow my-slp-only``); see ``repro flows``.

Run:  python examples/custom_flow.py
"""

from repro.kernels import fir
from repro.pipeline import (
    ANALYSIS_PASS_NAMES,
    PassCache,
    declare_decoupled_flow,
    declare_joint_flow,
    execute_flow,
    get_flow,
    run_flow,
)
from repro.targets import get_target
from repro.wlo import TabuConfig, register_wlo_engine, tabu_wlo


def main() -> None:
    # 1. A new joint-flow variant is one declaration.
    declare_joint_flow(
        "my-slp-only",
        "joint SLP extraction with no SCALOPTIM / harmonization / "
        "accuracy-conflict pruning",
        harmonize=False, scaloptim=False, accuracy_conflicts=False,
    )

    # 2. A custom WLO engine: the paper's Tabu search, more patient.
    #    Engines see the target only through its word lengths.
    def tabu_long(program, spec, model, word_lengths, constraint_db):
        config = TabuConfig(max_iterations=400, patience=120)
        return tabu_wlo(program, spec, model, word_lengths, constraint_db, config)

    register_wlo_engine("tabu-long", tabu_long)
    declare_decoupled_flow(
        "wlo-first-long", "decoupled baseline with the patient Tabu",
        wlo="tabu-long",
    )

    program = fir(n_samples=256, n_taps=32)
    target = get_target("xentium")
    cache = PassCache()  # shared: analysis passes run once, total

    print(f"kernel {program.name}, target {target.name}, -30 dB budget\n")
    header = f"{'flow':<18} {'cycles':>8} {'groups':>7} {'noise':>9}"
    print(header)
    print("-" * len(header))
    for name in ("wlo-slp", "my-slp-only", "wlo-first-long"):
        result = run_flow(
            name, program, target, -30.0, cache=cache
        )
        if hasattr(result, "simd"):  # decoupled flows return scalar+SIMD
            result = result.simd
        print(
            f"{name:<18} {result.total_cycles:>8} {result.n_groups:>7} "
            f"{result.noise_db:>8.1f}dB"
        )

    for pass_name in ANALYSIS_PASS_NAMES:
        assert cache.executions(pass_name) == 1, "analysis prefix re-ran!"
    print(
        f"\nanalysis passes ran once for {cache.hits.get('range-analysis', 0) + 1}"
        f" flows (per-pass cache: {len(cache)} entries)"
    )

    # 3. The declared structure is inspectable — the sweep cache keys
    #    cells on exactly these pass signatures.
    print("\nmy-slp-only =", " -> ".join(get_flow("my-slp-only").pass_names()))

    # 4. Timings come with every run.
    _, state = execute_flow("my-slp-only", program, target, -30.0, cache=cache)
    print("\nper-pass timings of the last run:")
    print(state.timing_report())


if __name__ == "__main__":
    main()
