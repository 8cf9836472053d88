"""Golden bit-identity contract of the batch evaluation backend.

The ``batch`` backend exists purely for throughput: on every program,
every stimulus set and every quantization policy it must produce
results *bit-identical* to the ``scalar`` reference interpreters.
These tests pin that contract property-style — every registered
kernel, several random seeds, float and fixed point, truncation and
rounding, saturation and wrap — plus the vectorization-plan decisions
and the cache-key separation of backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from range_reference import range_bits
from repro.errors import BackendError, InterpreterError
from repro.fixedpoint import (
    FORCE_OBJECT_ENV,
    BatchFixedPointInterpreter,
    FixedPointInterpreter,
    FixedPointSpec,
    FxpConfig,
    OverflowMode,
    QuantMode,
    SlotMap,
    analyze_ranges,
    assign_iwls,
    simulation_ranges,
)
from repro.ir import (
    BatchInterpreter,
    Interpreter,
    OpKind,
    ProgramBuilder,
    available_backends,
    get_backend,
    loop_index,
    vector_plan,
)
from repro.kernels import (
    conv2d,
    dot_product,
    fir,
    iir,
    kernel_names,
    sad,
    scale_offset,
)

#: Small instances of every registered kernel (the catalog the CLI
#: lists); sizes are reduced, shapes are the paper's.
KERNEL_BUILDERS = {
    "fir": lambda: fir(n_samples=40, n_taps=16),
    "iir": lambda: iir(n_samples=48, order=4),
    "conv": lambda: conv2d(height=11, width=12),
    "dot": lambda: dot_product(length=32),
    "sad": lambda: sad(length=32),
    "scale_offset": lambda: scale_offset(length=32),
}


def _stimuli(program, seed, count=3):
    rng = np.random.default_rng(seed)
    return [
        {
            decl.name: rng.uniform(*decl.value_range, size=decl.shape)
            for decl in program.input_arrays()
        }
        for _ in range(count)
    ]


def _spec_for(program, wl_cycle=(12, 16, 20, 24)):
    """Range-derived IWLs with deterministically mixed word lengths."""
    slotmap = SlotMap(program)
    spec = FixedPointSpec(slotmap, max_wl=32)
    assign_iwls(spec, analyze_ranges(program, slotmap))
    for position, root in enumerate(slotmap.roots):
        spec.set_wl(root, wl_cycle[position % len(wl_cycle)])
    return spec


def _assert_outputs_identical(reference, measured):
    assert len(reference) == len(measured)
    for ref, got in zip(reference, measured):
        assert sorted(ref) == sorted(got)
        for name in ref:
            assert ref[name].shape == got[name].shape
            assert np.array_equal(ref[name], got[name]), name


class TestCatalogCoverage:
    def test_builders_cover_every_registered_kernel(self):
        assert sorted(KERNEL_BUILDERS) == kernel_names()


@pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 2017])
class TestBitIdentity:
    def test_float(self, kernel, seed):
        program = KERNEL_BUILDERS[kernel]()
        stimuli = _stimuli(program, seed)
        reference = get_backend("scalar").run_float(program, stimuli)
        measured = get_backend("batch").run_float(program, stimuli)
        _assert_outputs_identical(reference, measured)

    def test_fixed_point(self, kernel, seed):
        program = KERNEL_BUILDERS[kernel]()
        stimuli = _stimuli(program, seed)
        spec = _spec_for(program)
        reference = get_backend("scalar").run_fixed(program, spec, stimuli)
        measured = get_backend("batch").run_fixed(program, spec, stimuli)
        _assert_outputs_identical(reference, measured)


@pytest.mark.parametrize("quant", [QuantMode.TRUNCATE, QuantMode.ROUND])
@pytest.mark.parametrize("overflow", [OverflowMode.SATURATE, OverflowMode.WRAP])
class TestQuantizationPolicies:
    def test_fir_policies_bit_identical(self, quant, overflow):
        program = KERNEL_BUILDERS["fir"]()
        stimuli = _stimuli(program, 7)
        # Narrow word lengths so quantization and overflow both bite.
        spec = _spec_for(program, wl_cycle=(8, 10, 12))
        config = FxpConfig(quant_mode=quant, overflow=overflow)
        reference = get_backend("scalar").run_fixed(
            program, spec, stimuli, config
        )
        measured = get_backend("batch").run_fixed(
            program, spec, stimuli, config
        )
        _assert_outputs_identical(reference, measured)


class TestEdgeNarrowing:
    def test_mul_consumption_narrowing_bit_identical(self):
        program = KERNEL_BUILDERS["fir"]()
        spec = _spec_for(program, wl_cycle=(32,))
        for op in program.all_ops():
            if op.kind is OpKind.MUL:
                spec.set_edge_wl(op.opid, 0, 8)
                spec.set_edge_wl(op.opid, 1, 8)
        stimuli = _stimuli(program, 11)
        reference = get_backend("scalar").run_fixed(program, spec, stimuli)
        measured = get_backend("batch").run_fixed(program, spec, stimuli)
        _assert_outputs_identical(reference, measured)


class TestVectorPlan:
    def test_fir_outer_loop_becomes_lanes(self):
        plan = vector_plan(KERNEL_BUILDERS["fir"]())
        assert plan.loops == (("n", 40),)

    def test_conv_row_loop_becomes_lanes(self):
        plan = vector_plan(KERNEL_BUILDERS["conv"]())
        assert plan.loops == (("r", 9),)

    def test_iir_feedback_stays_scalar(self):
        # y is both loaded and stored inside the sample loop, and the
        # accumulators are read before written in the tap loops.
        plan = vector_plan(KERNEL_BUILDERS["iir"]())
        assert plan.loops == ()

    def test_accumulator_across_loop_stays_scalar(self):
        # dot's accumulators are initialized *outside* the loop, so the
        # loop carries them and must stay a Python loop.
        plan = vector_plan(KERNEL_BUILDERS["dot"]())
        assert plan.loops == ()

    def test_interleaved_stores_are_lane_disjoint(self):
        # scale_offset stores even and odd cells from two store ops;
        # the exact collision check proves lanes never clash.
        plan = vector_plan(KERNEL_BUILDERS["scale_offset"]())
        assert plan.loops == (("i", 16),)

    def test_outer_coefficient_mismatch_rejects_vectorization(self):
        # Two stores to one array with *different* coefficients on an
        # enclosing loop: at o=1 the second store's cells 4..7 collide
        # cross-lane with the first store's 7..4, so the inner loop
        # must stay scalar (the outer loop is rejected by the
        # lane-constant first store).
        builder = ProgramBuilder("outer_coeff")
        x = builder.input_array("x", (4,), value_range=(-1.0, 1.0))
        a = builder.output_array("a", (8,))
        i = loop_index("i")
        o = loop_index("o")
        with builder.loop("o", 2):
            with builder.loop("i", 4):
                with builder.block("body"):
                    value = builder.load(x, i)
                    builder.store(a, i.scaled(-1) + 7, builder.neg(value))
                    builder.store(a, o.scaled(4) + i, value)
        program = builder.build()
        assert vector_plan(program).loops == ()
        stimuli = _stimuli(program, 5)
        _assert_outputs_identical(
            get_backend("scalar").run_float(program, stimuli),
            get_backend("batch").run_float(program, stimuli),
        )

    def test_agreeing_outer_coefficients_still_vectorize(self):
        # When every store carries the *same* outer coefficient, the
        # outer contribution is a common lane offset and the inner
        # loop vectorizes (cells 8o+i and 8o+4+i never cross lanes).
        # A loop-carried counter makes the outer loop itself ineligible
        # so the inner candidate is the one analyzed.
        builder = ProgramBuilder("outer_agree")
        x = builder.input_array("x", (4,), value_range=(-1.0, 1.0))
        a = builder.output_array("a", (16,))
        count = builder.output_array("count", (1,))
        acc = builder.scalar("acc")
        i = loop_index("i")
        o = loop_index("o")
        with builder.loop("o", 2):
            with builder.block("carry"):  # read-before-write: o stays scalar
                builder.setvar(
                    acc, builder.add(builder.getvar(acc), builder.const(1.0))
                )
            with builder.loop("i", 4):
                with builder.block("body"):
                    value = builder.load(x, i)
                    builder.store(a, o.scaled(8) + i, value)
                    builder.store(a, o.scaled(8) + i + 4, builder.neg(value))
        with builder.block("fin"):
            builder.store(count, 0, builder.getvar(acc))
        program = builder.build()
        assert vector_plan(program).loops == (("i", 4),)
        stimuli = _stimuli(program, 5)
        _assert_outputs_identical(
            get_backend("scalar").run_float(program, stimuli),
            get_backend("batch").run_float(program, stimuli),
        )

    def test_colliding_stores_reject_vectorization(self):
        builder = ProgramBuilder("collide")
        x = builder.input_array("x", (8,), value_range=(-1.0, 1.0))
        y = builder.output_array("y", (1,))
        with builder.loop("i", 8):
            with builder.block("body"):
                builder.store(y, 0, builder.load(x, loop_index("i")))
        program = builder.build()
        assert vector_plan(program).loops == ()
        # ... and execution still matches the scalar reference (the
        # last iteration's value wins in both).
        stimuli = _stimuli(program, 3)
        _assert_outputs_identical(
            get_backend("scalar").run_float(program, stimuli),
            get_backend("batch").run_float(program, stimuli),
        )


class TestMinMaxSemantics:
    def _minmax_program(self):
        builder = ProgramBuilder("minmax")
        a = builder.input_array("a", (6,), value_range=(-2.0, 2.0))
        b = builder.input_array("b", (6,), value_range=(-2.0, 2.0))
        lo = builder.output_array("lo", (6,))
        hi = builder.output_array("hi", (6,))
        i = loop_index("i")
        with builder.loop("i", 6):
            with builder.block("body"):
                av = builder.load(a, i)
                bv = builder.load(b, i)
                builder.store(lo, i, builder.min_(av, bv))
                builder.store(hi, i, builder.max_(av, bv))
        return builder.build()

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    def test_python_minmax_semantics(self, backend):
        """Both backends resolve ties, signed zeros and NaNs like
        Python's min/max (first operand unless the second improves)."""
        program = self._minmax_program()
        nan = float("nan")
        stimulus = {
            "a": np.array([0.0, -0.0, nan, 1.0, nan, -1.0]),
            "b": np.array([-0.0, 0.0, 1.0, nan, nan, 1.0]),
        }
        outputs = get_backend(backend).run_float(program, [stimulus])[0]
        expected_lo = [min(a, b) for a, b in zip(stimulus["a"], stimulus["b"])]
        expected_hi = [max(a, b) for a, b in zip(stimulus["a"], stimulus["b"])]
        for got, expected in ((outputs["lo"], expected_lo),
                              (outputs["hi"], expected_hi)):
            assert [repr(float(v)) for v in got] \
                == [repr(float(v)) for v in expected]


def _assert_same_ranges(program):
    """Equal roots in equal order, endpoints equal to the bit (``==``
    cannot tell -0.0 from 0.0)."""
    scalar = simulation_ranges(program, backend="scalar")
    batch = simulation_ranges(program, backend="batch")
    assert range_bits(scalar.ranges) == range_bits(batch.ranges)


class TestRangeAnalysisParity:
    """``scalar`` folds one probed float per op execution into running
    extremes; ``batch`` reads the extremes off the instance graph."""

    def test_simulation_ranges_identical_across_backends(self):
        _assert_same_ranges(KERNEL_BUILDERS["iir"]())

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_small_kernels_identical_across_backends(self, small_kernels, kernel):
        _assert_same_ranges(small_kernels[kernel])


class TestEvaluatorParity:
    def test_noise_power_identical_across_backends(self, fir_context):
        from repro.accuracy import SimulationAccuracyEvaluator

        spec = fir_context.fresh_spec()
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, 14)
        scalar = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=2, backend="scalar"
        )
        batch = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=2, backend="batch"
        )
        assert scalar.noise_power(spec) == batch.noise_power(spec)


class TestPipelineCacheKeys:
    def test_pass_key_distinguishes_backends(self, small_fir):
        from repro.pipeline import FlowState, RangeAnalysisPass, pass_key
        from repro.targets import get_target

        state = FlowState.seed(small_fir, get_target("xentium"), -25.0)
        keys = {
            pass_key(RangeAnalysisPass(sim_backend=name), state)
            for name in available_backends()
        }
        assert len(keys) == len(available_backends())

    def test_flow_structure_distinguishes_backends(self):
        from repro.pipeline import get_flow

        for flow in ("wlo-slp", "wlo-first"):
            assert (
                get_flow(flow).pass_names(sim_backend="scalar")
                != get_flow(flow).pass_names(sim_backend="batch")
            )


class TestRegistry:
    def test_unknown_backend_lists_alternatives(self):
        with pytest.raises(BackendError, match="scalar"):
            get_backend("tpu")

    def test_duplicate_registration_rejected(self):
        from repro.ir import ScalarBackend, register_backend

        with pytest.raises(BackendError, match="already registered"):
            register_backend(ScalarBackend())

    def test_listing_is_sorted(self):
        assert available_backends() == sorted(available_backends())
        assert {"scalar", "batch"} <= set(available_backends())


def _mul_boundary_program(length=4):
    """y[i] = x[i] * w[i] with inputs spanning exactly [-1, 1]."""
    builder = ProgramBuilder("mul_boundary")
    x = builder.input_array("x", (length,), value_range=(-1.0, 1.0))
    w = builder.input_array("w", (length,), value_range=(-1.0, 1.0))
    y = builder.output_array("y", (length,))
    i = loop_index("i")
    with builder.loop("i", length):
        with builder.block("body"):
            builder.store(y, i, builder.mul(builder.load(x, i),
                                            builder.load(w, i)))
    return builder.build()


#: Per-kernel instances used by the native-tier matrix.  Same catalog
#: as KERNEL_BUILDERS except IIR, whose reduced 48-sample instance has
#: static feedback bounds past int64 (a genuine, wanted fallback — see
#: test_reduced_iir_falls_back_and_stays_identical); 96 samples is the
#: smallest size whose range analysis converges tight enough to prove.
NATIVE_KERNEL_BUILDERS = dict(
    KERNEL_BUILDERS, iir=lambda: iir(n_samples=96)
)


@pytest.fixture
def native_env(monkeypatch):
    """Clear the object-tier pin so proof-driven selection is tested
    even when the suite itself runs under REPRO_FXP_FORCE_OBJECT=1
    (the CI leg that pins the whole golden suite to object lanes)."""
    monkeypatch.delenv(FORCE_OBJECT_ENV, raising=False)


class TestNativeTier:
    """The int64 fast path: proof-gated, transparent, bit-identical."""

    def test_every_kernel_proves_native_at_spec_defaults(self, native_env):
        for kernel in sorted(NATIVE_KERNEL_BUILDERS):
            program = NATIVE_KERNEL_BUILDERS[kernel]()
            interp = BatchFixedPointInterpreter(program, _spec_for(program))
            assert interp.tier == "int64", (kernel, interp.proof.reasons)

    def test_reduced_iir_falls_back_and_stays_identical(self):
        # The reduced IIR instance (order 4, 48 samples) assigns IWLs
        # near 100 to its feedback slots, so requantize shifts provably
        # exceed what int64 lanes can issue: the proof must refuse, and
        # the object tier must still match the scalar reference.
        program = KERNEL_BUILDERS["iir"]()
        spec = _spec_for(program)
        interp = BatchFixedPointInterpreter(program, spec)
        assert interp.tier == "object"
        assert any("shift" in reason for reason in interp.proof.reasons)
        stimuli = _stimuli(program, 11)
        _assert_outputs_identical(
            get_backend("scalar").run_fixed(program, spec, stimuli),
            interp.run(stimuli),
        )

    @pytest.mark.parametrize("kernel", sorted(NATIVE_KERNEL_BUILDERS))
    @pytest.mark.parametrize("seed", [0, 2017])
    @pytest.mark.parametrize("quant", [QuantMode.TRUNCATE, QuantMode.ROUND])
    @pytest.mark.parametrize(
        "overflow", [OverflowMode.SATURATE, OverflowMode.WRAP]
    )
    def test_native_vs_object_bit_identity(self, kernel, seed, quant,
                                           overflow, native_env):
        program = NATIVE_KERNEL_BUILDERS[kernel]()
        stimuli = _stimuli(program, seed)
        # Narrow mixed widths so quantization and overflow both bite.
        spec = _spec_for(program, wl_cycle=(8, 10, 12, 16))
        config = FxpConfig(quant_mode=quant, overflow=overflow)
        native = BatchFixedPointInterpreter(program, spec, config)
        forced = BatchFixedPointInterpreter(program, spec, config,
                                            force_object=True)
        assert native.tier == "int64"
        assert forced.tier == "object"
        _assert_outputs_identical(forced.run(stimuli), native.run(stimuli))

    def test_overflowing_kernel_falls_back_and_matches_scalar(self):
        # 40-bit multiply operands: the product transient provably
        # exceeds int64, so the proof must refuse and the object tier
        # must still match the scalar reference bit-for-bit.
        program = _mul_boundary_program()
        slotmap = SlotMap(program)
        spec = FixedPointSpec(slotmap, max_wl=40)
        assign_iwls(spec, analyze_ranges(program, slotmap))
        interp = BatchFixedPointInterpreter(program, spec)
        assert interp.tier == "object"
        assert not interp.proof.safe
        stimuli = _stimuli(program, 13)
        _assert_outputs_identical(
            get_backend("scalar").run_fixed(program, spec, stimuli),
            interp.run(stimuli),
        )

    @pytest.mark.parametrize(
        "overflow", [OverflowMode.WRAP, OverflowMode.SATURATE]
    )
    def test_products_straddling_two_pow_62_stay_native(self, overflow,
                                                        native_env):
        # 32-bit operands at fwl=31: x = w = -1.0 quantizes to -2^31,
        # so the multiply transient materializes *exactly* +-2^62 at
        # runtime — inside int64 but past what any stored word holds.
        program = _mul_boundary_program()
        slotmap = SlotMap(program)
        spec = FixedPointSpec(slotmap, max_wl=32)
        for root in slotmap.roots:
            spec.set_iwl(root, 1)
        config = FxpConfig(overflow=overflow)
        interp = BatchFixedPointInterpreter(program, spec, config)
        assert interp.tier == "int64"
        assert interp.proof.peak_bound == 1 << 62
        stimuli = [{
            "x": np.array([-1.0, 1.0, -1.0, 1.0]),
            "w": np.array([-1.0, -1.0, 1.0, 1.0]),
        }]
        measured = interp.run(stimuli)
        _assert_outputs_identical(
            get_backend("scalar").run_fixed(program, spec, stimuli, config),
            measured,
        )
        _assert_outputs_identical(
            BatchFixedPointInterpreter(
                program, spec, config, force_object=True
            ).run(stimuli),
            measured,
        )

    @pytest.mark.parametrize(
        "overflow", [OverflowMode.WRAP, OverflowMode.SATURATE]
    )
    def test_products_past_two_pow_62_fall_back(self, overflow):
        # One operand widened to 33 bits pushes the product transient
        # to +-2^63 — past int64 — so the proof must fall back, and
        # the object tier must still match the scalar reference.
        program = _mul_boundary_program()
        slotmap = SlotMap(program)
        spec = FixedPointSpec(slotmap, max_wl=32)
        for root in slotmap.roots:
            spec.set_iwl(root, 1)
        spec.set_wl(slotmap.slot_of_symbol("x"), 33)
        spec.set_iwl(slotmap.slot_of_symbol("x"), 1)
        config = FxpConfig(overflow=overflow)
        interp = BatchFixedPointInterpreter(program, spec, config)
        assert interp.tier == "object"
        stimuli = [{
            "x": np.array([-1.0, 1.0, -1.0, 1.0]),
            "w": np.array([-1.0, -1.0, 1.0, 1.0]),
        }]
        _assert_outputs_identical(
            get_backend("scalar").run_fixed(program, spec, stimuli, config),
            interp.run(stimuli),
        )

    def test_env_knob_pins_object_tier(self, monkeypatch):
        program = KERNEL_BUILDERS["fir"]()
        spec = _spec_for(program)
        stimuli = _stimuli(program, 3, count=2)
        native = BatchFixedPointInterpreter(program, spec).run(stimuli)
        monkeypatch.setenv(FORCE_OBJECT_ENV, "1")
        pinned = BatchFixedPointInterpreter(program, spec)
        assert pinned.tier == "object"
        assert pinned.proof.safe  # the proof holds; the knob overrides
        _assert_outputs_identical(native, pinned.run(stimuli))
        monkeypatch.setenv(FORCE_OBJECT_ENV, "0")
        assert BatchFixedPointInterpreter(program, spec).tier == "int64"

    def test_run_fixed_force_object_kwarg(self, small_fir):
        spec = _spec_for(small_fir)
        stimuli = _stimuli(small_fir, 5, count=2)
        _assert_outputs_identical(
            get_backend("batch").run_fixed(small_fir, spec, stimuli),
            get_backend("batch").run_fixed(small_fir, spec, stimuli,
                                           force_object=True),
        )

    def test_fixed_tier_surfacing(self, native_env):
        program = KERNEL_BUILDERS["dot"]()
        spec = _spec_for(program)
        assert get_backend("batch").fixed_tier(program, spec) \
            == "batch[int64]"
        assert get_backend("scalar").fixed_tier(program, spec) == "scalar"
        wide = _mul_boundary_program()
        wide_map = SlotMap(wide)
        wide_spec = FixedPointSpec(wide_map, max_wl=40)
        assign_iwls(wide_spec, analyze_ranges(wide, wide_map))
        assert get_backend("batch").fixed_tier(wide, wide_spec) \
            == "batch[object]"

    def test_backend_tiers_are_documented(self):
        tiers = {t["name"] for t in get_backend("batch").tiers}
        assert tiers == {"int64", "object"}
        assert get_backend("scalar").tiers == ()

    def test_evaluator_force_object_parity(self, fir_context, native_env):
        from repro.accuracy import SimulationAccuracyEvaluator

        spec = fir_context.fresh_spec()
        fast = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=2, backend="batch"
        )
        exact = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=2, backend="batch",
            force_object=True,
        )
        assert fast.tier(spec) == "batch[int64]"
        assert exact.tier(spec) == "batch[object]"
        assert fast.noise_power(spec) == exact.noise_power(spec)


def _overrunning_program(lanes: bool):
    """A loop over ``x[i]`` whose trip is bumped past ``x``'s extent.

    With ``lanes`` the iterations are independent, so the batch
    executors run them as vector lanes; without, an accumulator
    carries a dependence and ``i`` stays a Python int.
    """
    b = ProgramBuilder("overrun")
    x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
    y = b.output_array("y", (4,))
    acc = b.scalar("acc")
    i = loop_index("i")
    with b.loop("i", 4):
        with b.block("body"):
            value = b.load(x, i)
            if not lanes:
                value = b.add(b.getvar(acc), value)
                b.setvar(acc, value)
            b.store(y, i, b.mul(value, b.const(0.5)))
    program = b.build()
    spec = FixedPointSpec(SlotMap(program), max_wl=32)
    program.schedule[0].trip = 5  # i = 4 reads past x's 4 cells
    return program, spec


class TestOutOfBounds:
    @pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
    def test_every_executor_raises(self, lanes):
        program, spec = _overrunning_program(lanes)
        assert vector_plan(program).is_vectorized(program.schedule[0]) is lanes
        stimulus = {"x": np.linspace(-0.5, 0.5, 4)}
        runs = {
            "float": lambda: Interpreter(program).run(stimulus),
            "fixed": lambda: FixedPointInterpreter(program, spec).run(stimulus),
            "batch-float": lambda: BatchInterpreter(program).run([stimulus]),
            "batch-fixed": lambda: BatchFixedPointInterpreter(
                program, spec
            ).run([stimulus]),
        }
        for name, run in runs.items():
            with pytest.raises(InterpreterError) as raised:
                run()
            message = str(raised.value)
            assert "load x[" in message and "out of bounds (4,)" in message, name
            assert message.startswith("op "), name


class TestLoadsAreValues:
    def test_load_is_immune_to_a_later_store_into_its_cell(self):
        """A scalar-index LOAD copies the storage row: the stored value
        must not leak into a value loaded earlier in the block."""
        b = ProgramBuilder("alias")
        x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
        s = b.state_array("s", (1,))
        y = b.output_array("y", (4,))
        i = loop_index("i")
        with b.loop("i", 4):
            with b.block("body"):
                old = b.load(s, 0)
                b.store(s, 0, b.add(old, b.load(x, i)))
                b.store(y, i, old)
        program = b.build()
        assert not vector_plan(program).is_vectorized(program.schedule[0])
        stimuli = _stimuli(program, seed=5)
        spec = _spec_for(program)
        scalar, batch = get_backend("scalar"), get_backend("batch")
        runs = [
            (backend.run_float(program, stimuli)
             + backend.run_fixed(program, spec, stimuli))
            for backend in (scalar, batch)
        ]
        for ref, got in zip(*runs):
            assert np.array_equal(ref["y"], got["y"])
        first = scalar.run_float(program, stimuli[:1])[0]["y"]
        assert first[0] == 0.0 and first[1] == stimuli[0]["x"][0]


class TestBatchErrors:
    def test_empty_stimuli_rejected(self, small_fir):
        with pytest.raises(InterpreterError, match="at least one"):
            get_backend("batch").run_float(small_fir, [])

    def test_missing_input_rejected(self, small_fir):
        with pytest.raises(InterpreterError, match="missing input"):
            get_backend("batch").run_float(small_fir, [{}])

    def test_shape_mismatch_rejected(self, small_fir):
        bad = {"x": np.zeros(3)}
        with pytest.raises(InterpreterError, match="shape"):
            get_backend("batch").run_float(small_fir, [bad])
