"""Reference simulation ranges, joined at every probed observation.

This is how :func:`repro.fixedpoint.range_analysis.simulation_ranges`
folds its extremes, spelled out one observation at a time: run a
backend's ``run_float`` over the same stimuli with a ``range_probe``,
join each observation's min and max into its root's interval, then
seed the declared ranges and widen.  The tests hold ``simulation_ranges``
to it bit for bit under every backend, which under ``batch`` holds the
instance graph's extremes to the batched executor's values, and
``benchmarks/test_bench_micro.py`` times it as the ranges baseline.
"""

from __future__ import annotations

import numpy as np

from repro.fixedpoint import Interval, range_analysis
from repro.ir import get_backend


def join_per_observation(program, slotmap, backend, seed=2017):
    """Simulation ranges joining every observation into its root's
    interval."""
    rng = np.random.default_rng(seed)
    ranges = {}

    def observe(opid, values):
        vmin = float(np.min(values))
        vmax = float(np.max(values))
        root = slotmap.root_of(opid)
        found = ranges.get(root)
        if found is None:
            ranges[root] = Interval(vmin, vmax)
        elif not (found.contains(vmin) and found.contains(vmax)):
            ranges[root] = found.join(Interval(vmin, vmax))

    stimuli = range_analysis._stimulus_set(program, 6, rng)
    get_backend(backend).run_float(program, stimuli, range_probe=observe)
    range_analysis._seed_symbol_ranges(program, slotmap, ranges)
    return {root: iv.widen_relative(0.5) for root, iv in ranges.items()}


def range_bits(ranges):
    """Roots in order with their endpoints' bits: ``==`` on floats
    cannot tell -0.0 from 0.0."""
    return [(root, iv.lo.hex(), iv.hi.hex()) for root, iv in ranges.items()]
