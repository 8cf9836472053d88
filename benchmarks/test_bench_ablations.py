"""Ablation benches — what each design choice of the flow buys.

* A/B/B2: SCALOPTIM (Fig. 1b), the accuracy-conflict class (Fig. 1c)
  and boundary harmonization, toggled off one at a time on WLO-SLP.
* C: the Tabu engine of WLO-First vs greedy max-1 / min+1.
"""

from __future__ import annotations

import pytest

from conftest import persist
from repro.experiments import (
    ablation_wlo_engines,
    ablation_wlo_slp_features,
)
from repro.pipeline import run_flow
from repro.targets import get_target

CASES = (("fir", "xentium"), ("iir", "vex-1"), ("conv", "vex-4"))


@pytest.mark.parametrize("kernel,target", CASES)
def test_ablation_features(runner, benchmark, results_dir, kernel, target):
    """WLO-SLP with Fig. 1b / Fig. 1c features toggled off."""
    context = runner.context(kernel)
    benchmark.pedantic(
        lambda: run_flow(
            "wlo-slp", context.program, get_target(target), -45.0,
            analysis_program=context.analysis_program, scaloptim=False,
        ),
        rounds=1, iterations=1,
    )
    table = ablation_wlo_slp_features(runner, kernel, target)
    persist(results_dir, f"ablation_features_{kernel}_{target}", table.render())
    table.to_csv(results_dir / f"ablation_features_{kernel}_{target}.csv")
    variants = {row[1] for row in table.rows}
    assert variants == {"full", "no-scaloptim", "no-acc-conflicts",
                        "no-harmonize"}
    # The full configuration is never slower than dropping harmonization.
    by_key = {(row[0], row[1]): row[2] for row in table.rows}
    for constraint in {row[0] for row in table.rows}:
        assert by_key[(constraint, "full")] <= by_key[
            (constraint, "no-harmonize")
        ]


def test_ablation_engines(runner, benchmark, results_dir):
    """Tabu vs greedy word-length engines inside WLO-First."""
    table = ablation_wlo_engines(runner, "fir", "xentium")
    benchmark.pedantic(
        lambda: ablation_wlo_engines(runner, "fir", "st240",
                                     grid=(-35.0,)),
        rounds=1, iterations=1,
    )
    persist(results_dir, "ablation_engines", table.render())
    table.to_csv(results_dir / "ablation_engines.csv")
    engines = {row[1] for row in table.rows}
    assert engines == {"tabu", "max-1", "min+1"}
    # Every engine satisfies the constraint it was given.
    for constraint, _engine, _scalar, _simd, noise_db in table.rows:
        assert noise_db <= constraint + 0.51  # rounding slack
