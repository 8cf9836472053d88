"""Golden: every cell of the paper grid, cold and warm.

``data/paper_grid_cells.json`` holds the outcome payloads of all 84
cells of ``SweepRequest(no_cache=True)`` (3 kernels × 4 targets × 7
constraints), recorded before the search layers were memoized and
indexed.  ``data/paper_grid_warm_cells.json`` holds the same grid under
warm constraint continuation (``continuation=True``), recorded before
the Tabu neighbourhood was scored in one batched call; it pins the warm
Tabu path, which the continuation tests check only for cost.
``data/paper_grid_float32_cells.json`` and
``data/paper_grid_bfloat16_cells.json`` hold the grid as format cells
(``SweepRequest(format=...)``), recorded before the format simulations
of programs without lane loops moved onto the instance graph; they pin
each kernel's measured format noise against the ``bigfloat`` oracle.
The search layers must make the same decisions in the same order, so
every integer field (cycles, groups, search effort) must match exactly.
Noise in dB is compared within 1e-9: the closed-form model sums with
BLAS ``ddot``, and the measured noise with ``np.dot``, whose last ulp
may differ across CPUs.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import SweepRequest
from repro.experiments import ExperimentRunner, engine
from repro.pipeline.cache import global_pass_cache
from repro.wlo import clear_continuations

DATA = Path(__file__).parent / "data"

#: mode -> (golden file, request).  A warm sweep reads the process-global
#: continuation store, so the warm case starts from an empty one; a
#: format sweep reads the process-global format-noise memo, so its case
#: starts from an empty one and measures the noise.
MODES = {
    "cold": ("paper_grid_cells.json", SweepRequest(no_cache=True)),
    "warm": (
        "paper_grid_warm_cells.json",
        SweepRequest(no_cache=True, continuation=True),
    ),
    "float32": (
        "paper_grid_float32_cells.json",
        SweepRequest(no_cache=True, format="float32"),
    ),
    "bfloat16": (
        "paper_grid_bfloat16_cells.json",
        SweepRequest(no_cache=True, format="bfloat16"),
    ),
}

NOISE_FIELDS = ("wlo_first_noise_db", "wlo_slp_noise_db")


def _key(outcome: dict) -> tuple:
    request = outcome["request"]
    return request["kernel"], request["target"], request["constraint_db"]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_paper_grid_matches_golden(mode):
    golden, request = MODES[mode]
    expected = {_key(o): o for o in json.loads((DATA / golden).read_text())}
    if mode == "warm":
        global_pass_cache().clear()
        clear_continuations()
    if request.format:
        engine._FORMAT_NOISE.clear()
    report = ExperimentRunner.from_request(request).submit(request)
    got = {_key(o): o for o in report.outcomes}
    assert len(expected) == 84
    assert got.keys() == expected.keys()
    for key, outcome in got.items():
        golden = expected[key]
        assert outcome["request"] == golden["request"], key
        assert outcome["source"] == golden["source"] == "computed", key
        cell, golden_cell = outcome["cell"], golden["cell"]
        assert cell.keys() == golden_cell.keys(), key
        for name, value in golden_cell.items():
            if name in NOISE_FIELDS:
                assert cell[name] == pytest.approx(value, rel=0, abs=1e-9), (
                    key, name,
                )
            else:
                assert cell[name] == value, (key, name)
