"""Float simulations on the instance graph against the lane executors.

:class:`~repro.ir.instances.FlatSimulation` runs a program as one flat
loop per stimulus over its instance graph, in float64, in a binary
float format and in the ``bigfloat`` oracle.  The lane executors of
:mod:`repro.ir.batch` are its reference: outputs must match by bytes,
so signed zeros and NaNs count.  The parity tests call the flat loops
directly, so programs with lane loops (fir, conv) are covered too.
:func:`~repro.ir.backend.flat_simulation` then decides which one runs:
the graph for a program without lane loops (iir), the lanes for a
program with them or for a run with a ``range_probe``.
"""

from __future__ import annotations

import numpy as np
import pytest

from range_reference import join_per_observation, range_bits
from repro.accuracy.simulation import FormatAccuracyEvaluator
from repro.errors import InterpreterError
from repro.experiments.engine import KernelConfig, kernel_programs
from repro.fixedpoint import SlotMap, simulation_ranges
from repro.formats import get_format
from repro.ir import ProgramBuilder, get_backend, loop_index
from repro.ir.backend import flat_simulation
from repro.ir.batch import (
    BatchInterpreter,
    FormatBatchInterpreter,
    OracleBatchInterpreter,
)
from repro.ir.instances import FlatSimulation, instance_graph
from repro.kernels import kernel_names

#: Formats run in both executors: the registered reduced formats, IEEE
#: half, the narrowest member (it overflows on iir) and float64.
FORMATS = ("float32", "bfloat16", "binary(5,10)", "binary(2,1)", "float64")


def _stimuli(program, seed=2024, count=2):
    rng = np.random.default_rng(seed)
    return [
        {
            decl.name: rng.uniform(*decl.value_range, size=decl.shape)
            for decl in program.input_arrays()
        }
        for _ in range(count)
    ]


def _assert_same_outputs(got, expected):
    assert len(got) == len(expected)
    for flat, lanes in zip(got, expected):
        assert flat.keys() == lanes.keys()
        for name, array in lanes.items():
            assert flat[name].dtype == array.dtype, name
            assert flat[name].shape == array.shape, name
            assert flat[name].tobytes() == array.tobytes(), name


def _assert_flat_equals_lanes(program, stimuli):
    flat = FlatSimulation(instance_graph(program))
    with np.errstate(all="ignore"):  # overflowing narrow formats
        _assert_same_outputs(
            flat.outputs(stimuli), BatchInterpreter(program).run(stimuli)
        )
        _assert_same_outputs(
            flat.oracle_outputs(stimuli),
            OracleBatchInterpreter(program).run(stimuli),
        )
        for name in FORMATS:
            spec = get_format(name)
            _assert_same_outputs(
                flat.format_outputs(stimuli, spec),
                FormatBatchInterpreter(program, spec).run(stimuli),
            )


class TestParity:
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_small_kernels(self, small_kernels, kernel):
        program = small_kernels[kernel]
        _assert_flat_equals_lanes(program, _stimuli(program))

    @pytest.mark.parametrize("kernel", ["fir", "iir", "conv"])
    def test_paper_twins(self, kernel):
        twin = kernel_programs(KernelConfig(), kernel)[1]
        _assert_flat_equals_lanes(twin, _stimuli(twin))

    def test_full_size_iir(self):
        program = kernel_programs(KernelConfig(), "iir")[0]
        _assert_flat_equals_lanes(program, _stimuli(program))

    def test_output_cell_stored_twice_and_one_left_unwritten(self):
        """``y[0]`` holds its second store, ``y[1]`` stays 0.0, and a
        second output array counts its cells from its own start."""
        b = ProgramBuilder("outputs")
        x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
        c = b.coeff_array("c", [0.1, -0.3])
        s = b.state_array("s", (1,))
        y = b.output_array("y", (3,))
        z = b.output_array("z", (2, 2))
        gain = b.scalar("gain", init=1.0 / 3.0)
        with b.block("body"):
            x0, x1, x2, x3 = (b.load(x, k) for k in range(4))
            b.store(y, 0, b.add(x0, x1))
            b.store(s, 0, b.mul(b.getvar(gain), b.load(c, 1)))
            b.store(y, 0, b.mul(b.sub(x0, b.load(s, 0)), b.const(0.7)))
            b.store(y, 2, b.neg(b.abs_(x2)))
            b.store(z, (0, 0), b.min_(x2, x3))
            b.store(z, (1, 1), b.max_(x2, b.load(c, 0)))
        with b.loop("i", 2):
            with b.block("tail"):
                scaled = b.mul(b.getvar(gain), b.load(x, loop_index("i")))
                b.setvar(gain, b.add(scaled, b.const(0.25)))
                b.store(z, (0, 1), b.getvar(gain))
        program = b.build()
        rows = [[0.5, 0.5, -0.0, 0.0], [-0.25, 0.75, 0.0, -0.0]]
        stimuli = [{"x": np.array(row)} for row in rows] + _stimuli(program)
        _assert_flat_equals_lanes(program, stimuli)
        outputs = FlatSimulation(instance_graph(program)).outputs(stimuli)
        for stimulus, out in zip(stimuli, outputs):
            x0, x1 = stimulus["x"][:2]
            assert out["y"][0] == (x0 - (1.0 / 3.0) * -0.3) * 0.7
            assert out["y"][1] == 0.0 and out["z"][1, 0] == 0.0

    def test_a_run_needs_a_stimulus(self, small_kernels):
        flat = FlatSimulation(instance_graph(small_kernels["iir"]))
        with pytest.raises(InterpreterError, match="at least one stimulus"):
            flat.outputs([])
        with pytest.raises(InterpreterError, match="missing input array"):
            flat.oracle_outputs([{}])


# ----------------------------------------------------------------------
# The rule: which executor each entry point takes.


def _entry_points(program):
    """Run the three float entry points: the ``batch`` and ``bigfloat``
    backends' ``run_float`` and a format's measured outputs."""
    stimuli = _stimuli(program, count=1)
    get_backend("batch").run_float(program, stimuli)
    get_backend("bigfloat").run_float(program, stimuli)
    FormatAccuracyEvaluator(program, "float32", n_stimuli=1).measured_outputs()


def _forbid(monkeypatch, *targets):
    def refuse(*args, **kwargs):
        raise AssertionError("this executor must not run here")

    for owner in targets:
        name = "__init__" if owner is FlatSimulation else "run"
        monkeypatch.setattr(owner, name, refuse)


class TestRule:
    def test_iir_twin_runs_flat_in_every_entry_point(self, monkeypatch):
        twin = kernel_programs(KernelConfig(), "iir")[1]
        assert flat_simulation(twin) is not None
        _forbid(
            monkeypatch,
            BatchInterpreter, OracleBatchInterpreter, FormatBatchInterpreter,
        )
        _entry_points(twin)

    @pytest.mark.parametrize("kernel", ["fir", "conv"])
    def test_lane_programs_stay_on_lanes(self, monkeypatch, kernel):
        twin = kernel_programs(KernelConfig(), kernel)[1]
        assert flat_simulation(twin) is None
        _forbid(monkeypatch, FlatSimulation)
        _entry_points(twin)

    def test_a_range_probe_keeps_the_lanes(self, monkeypatch):
        twin = kernel_programs(KernelConfig(), "iir")[1]
        _forbid(monkeypatch, FlatSimulation)
        seen = set()
        for backend in ("batch", "bigfloat"):
            get_backend(backend).run_float(
                twin, _stimuli(twin, count=1),
                range_probe=lambda opid, values: seen.add(opid),
            )
        assert seen  # the lanes' probe saw the ops

    def test_bigfloat_ranges_still_join_per_observation(self):
        """The ``bigfloat`` backend's ranges come from its probe, on
        lanes, and still equal the reference join."""
        twin = kernel_programs(KernelConfig(), "iir")[1]
        slotmap = SlotMap(twin)
        ranges = simulation_ranges(twin, slotmap, backend="bigfloat").ranges
        expected = join_per_observation(twin, slotmap, "bigfloat")
        assert range_bits(ranges) == range_bits(expected)
