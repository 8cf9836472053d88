"""Dynamic-range analysis tests: interval vs simulation vs truth."""

import numpy as np
import pytest

from range_reference import join_per_observation, range_bits
from repro.errors import RangeAnalysisError
from repro.fixedpoint import (
    SlotMap,
    analyze_ranges,
    interval_ranges,
    simulation_ranges,
)
from repro.ir import Interpreter, OpKind, ProgramBuilder, loop_index
from repro.kernels import kernel_names


def _observed_extremes(program, slotmap, n_draws=12, seed=7):
    """Ground truth: min/max per root slot over many random runs."""
    rng = np.random.default_rng(seed)
    observed = {}

    def observe(opid, value):
        root = slotmap.root_of(opid)
        lo, hi = observed.get(root, (value, value))
        observed[root] = (min(lo, value), max(hi, value))

    interp = Interpreter(program)
    for _ in range(n_draws):
        inputs = {
            decl.name: rng.uniform(*decl.value_range, size=decl.shape)
            for decl in program.input_arrays()
        }
        interp.run(inputs, range_observer=observe)
    return observed


class TestIntervalAnalysis:
    def test_fir_converges(self, small_fir):
        result = interval_ranges(small_fir)
        assert result.method == "interval"

    def test_fir_bounds_are_sound(self, small_fir):
        slotmap = SlotMap(small_fir)
        result = interval_ranges(small_fir, slotmap)
        for root, (lo, hi) in _observed_extremes(small_fir, slotmap).items():
            interval = result.ranges[root]
            assert interval.lo <= lo + 1e-9 and hi - 1e-9 <= interval.hi

    def test_fir_accumulator_bound_is_l1_norm(self, small_fir):
        """Concrete coefficient enumeration gives the tight L1 bound,
        not the trip*max blow-up."""
        slotmap = SlotMap(small_fir)
        result = interval_ranges(small_fir, slotmap)
        h = small_fir.arrays["h"].values
        l1 = np.abs(h).sum()
        acc = result.range_of(slotmap.slot_of_symbol("acc0"))
        assert acc.magnitude <= l1 + 1e-9

    def test_conv_converges(self, small_conv):
        result = interval_ranges(small_conv)
        slotmap = result.slotmap
        out = result.range_of(slotmap.slot_of_symbol("out"))
        ker = small_conv.arrays["ker"].values
        assert out.magnitude <= np.abs(ker).sum() + 1e-9

    def test_iir_diverges(self, small_iir):
        with pytest.raises(RangeAnalysisError, match="converge"):
            interval_ranges(small_iir)


class TestSimulationAnalysis:
    def test_covers_declared_input_range(self, small_fir):
        result = simulation_ranges(small_fir)
        x_slot = result.slotmap.slot_of_symbol("x")
        interval = result.range_of(x_slot)
        assert interval.lo <= -1.0 and interval.hi >= 1.0

    def test_margin_widens(self, small_fir):
        tight = simulation_ranges(small_fir, margin=0.0)
        wide = simulation_ranges(small_fir, margin=0.5)
        for root, interval in tight.ranges.items():
            assert wide.ranges[root].encloses(interval)

    def test_iir_ranges_bounded(self, small_iir):
        result = simulation_ranges(small_iir)
        y = result.range_of(result.slotmap.slot_of_symbol("y"))
        assert y.magnitude < 100.0  # the filter is stable

    def test_deterministic_given_seed(self, small_fir):
        a = simulation_ranges(small_fir, seed=3)
        b = simulation_ranges(small_fir, seed=3)
        assert a.ranges == b.ranges


class TestRunningExtremes:
    """``simulation_ranges`` against the ranges folded from every probed
    observation.  Under ``batch`` this holds the instance graph's
    extremes to the batched executor's values."""

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_equal_joins_per_observation(self, small_kernels, kernel, backend):
        program = small_kernels[kernel]
        slotmap = SlotMap(program)
        result = simulation_ranges(program, slotmap, backend=backend)
        assert range_bits(result.ranges) == range_bits(
            join_per_observation(program, slotmap, backend)
        )

    @pytest.mark.parametrize("kernel", ["fir", "iir", "conv"])
    def test_paper_twins_equal_the_batch_probe(self, kernel):
        from repro.experiments.engine import KernelConfig, kernel_programs

        twin = kernel_programs(KernelConfig(), kernel)[1]
        slotmap = SlotMap(twin)
        result = simulation_ranges(twin, slotmap, backend="batch")
        assert range_bits(result.ranges) == range_bits(
            join_per_observation(twin, slotmap, "batch")
        )

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_widen_past_a_scalar_first_observation(self, backend):
        """The batch backend's first read of ``acc`` is its scalar init,
        so ``acc * 2`` is first seen as a scalar and then as arrays."""
        b = ProgramBuilder("widen")
        x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
        y = b.output_array("y", (4,))
        acc = b.scalar("acc", init=0.25)
        i = loop_index("i")
        with b.loop("i", 4):
            with b.block("body"):
                doubled = b.mul(b.getvar(acc), b.const(2.0))
                b.setvar(acc, b.add(doubled, b.load(x, i)))
                b.store(y, i, b.getvar(acc))
        program = b.build()
        slotmap = SlotMap(program)
        result = simulation_ranges(program, slotmap, backend=backend)
        assert range_bits(result.ranges) == range_bits(
            join_per_observation(program, slotmap, backend)
        )
        assert result.range_of(doubled.opid).lo < 0.0


class TestAutoDispatch:
    def test_feedforward_uses_interval(self, small_fir):
        assert analyze_ranges(small_fir).method == "interval"

    def test_recursive_falls_back_to_simulation(self, small_iir):
        assert analyze_ranges(small_iir).method == "simulation"

    def test_explicit_methods(self, small_fir):
        assert analyze_ranges(small_fir, method="simulation").method == "simulation"
        assert analyze_ranges(small_fir, method="interval").method == "interval"

    def test_unknown_method(self, small_fir):
        with pytest.raises(RangeAnalysisError, match="unknown"):
            analyze_ranges(small_fir, method="psychic")


class TestRangeResult:
    def test_range_of_resolves_ties(self, small_fir):
        result = analyze_ranges(small_fir)
        load = next(o for o in small_fir.all_ops() if o.kind is OpKind.LOAD)
        by_op = result.range_of(load.opid)
        by_symbol = result.range_of(
            result.slotmap.slot_of_symbol(load.array)
        )
        assert by_op == by_symbol

    def test_missing_range_raises(self, small_fir):
        result = analyze_ranges(small_fir)
        result.ranges.clear()
        with pytest.raises(RangeAnalysisError, match="no range"):
            result.range_of(0)
