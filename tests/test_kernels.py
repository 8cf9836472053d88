"""Kernel-builder tests: structure, padding, parameter validation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir import OpKind
from repro.kernels import (
    conv2d,
    default_conv_kernel,
    default_fir_coefficients,
    default_iir_coefficients,
    dot_product,
    fir,
    iir,
    kernel_by_name,
    sad,
    scale_offset,
)


class TestFirStructure:
    def test_block_inventory(self):
        program = fir(n_samples=32, n_taps=16)
        assert set(program.blocks) == {"init", "body", "reduce"}
        body = program.blocks["body"]
        assert body.loop_vars == ("n", "k")
        assert body.executions == 32 * 4  # 16 taps / unroll 4

    def test_unroll_shapes_body(self):
        for unroll in (2, 4, 8):
            program = fir(n_samples=16, n_taps=16, unroll=unroll)
            body = program.blocks["body"]
            muls = [o for o in body.ops if o.kind is OpKind.MUL]
            assert len(muls) == unroll
            assert len(program.variables) == unroll

    def test_bad_unroll(self):
        with pytest.raises(IRError, match="divisible"):
            fir(n_samples=16, n_taps=10, unroll=4)

    def test_bad_coefficient_count(self):
        with pytest.raises(IRError, match="coefficients"):
            fir(n_samples=16, n_taps=8, coefficients=np.ones(4))

    def test_default_coefficients_unit_dc(self):
        taps = default_fir_coefficients(64)
        assert taps.sum() == pytest.approx(1.0, abs=1e-6)

    def test_array_extents(self):
        program = fir(n_samples=100, n_taps=32)
        assert program.arrays["x"].shape == (131,)
        assert program.arrays["y"].shape == (100,)


class TestIirStructure:
    def test_padding_to_unroll_multiple(self):
        program = iir(n_samples=32, order=10, unroll=4)
        assert program.arrays["bc"].shape == (12,)   # 11 padded to 12
        assert program.arrays["nac"].shape == (12,)  # 10 padded to 12
        assert program.arrays["bc"].values[11] == 0.0
        assert program.arrays["nac"].values[10] == 0.0

    def test_feedback_coefficients_negated(self):
        program = iir(n_samples=16, order=4)
        _b, a = default_iir_coefficients(4)
        np.testing.assert_allclose(
            program.arrays["nac"].values[:4], -a[1:], atol=1e-12
        )

    def test_unnormalized_filter_rejected(self):
        b, a = default_iir_coefficients(2)
        with pytest.raises(IRError, match="normalized"):
            iir(n_samples=8, order=2, coefficients=(b, a * 2))

    def test_wrong_order_rejected(self):
        b, a = default_iir_coefficients(2)
        with pytest.raises(IRError, match="order-4"):
            iir(n_samples=8, order=4, coefficients=(b, a))

    def test_stability_of_default(self):
        _b, a = default_iir_coefficients(10)
        roots = np.roots(a)
        assert np.all(np.abs(roots) < 1.0)

    def test_two_tap_loops(self):
        program = iir(n_samples=16, order=10)
        assert set(program.blocks) == {"init", "btaps", "ataps", "reduce"}


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.asarray(values)]


class TestDefaultFilterDesigns:
    """The numpy designs are scipy's, bit for bit."""

    GOLDEN = Path(__file__).parent / "data" / "default_filters.json"

    @pytest.mark.parametrize("n_taps", [8, 16, 32, 64])
    def test_fir_equals_scipy_firwin(self, n_taps):
        import scipy.signal

        taps = default_fir_coefficients(n_taps)
        assert taps.dtype == np.float64
        assert _hex(taps) == _hex(scipy.signal.firwin(n_taps, 0.25))

    @pytest.mark.parametrize("order", [2, 4, 10])
    def test_iir_equals_scipy_butter(self, order):
        import scipy.signal

        b, a = default_iir_coefficients(order)
        want_b, want_a = scipy.signal.butter(order, 0.25)
        assert b.dtype == a.dtype == np.float64
        assert _hex(b) == _hex(want_b)
        assert _hex(a) == _hex(want_a)

    def test_paper_designs_match_goldens(self):
        """Pinned without scipy: a numpy or libm change shows here."""
        golden = json.loads(self.GOLDEN.read_text())
        assert _hex(default_fir_coefficients(64)) == golden["fir_taps_64"]
        b, a = default_iir_coefficients(10)
        assert _hex(b) == golden["iir_order_10"]["b"]
        assert _hex(a) == golden["iir_order_10"]["a"]


class TestConvStructure:
    def test_fully_unrolled_body(self):
        program = conv2d(10, 12)
        body = program.blocks["body"]
        muls = [o for o in body.ops if o.kind is OpKind.MUL]
        assert len(muls) == 9
        assert body.executions == 8 * 10

    def test_kernel_normalized(self):
        assert default_conv_kernel().sum() == pytest.approx(1.0)

    def test_bad_kernel_shape(self):
        with pytest.raises(IRError, match="3x3"):
            conv2d(kernel=np.ones((2, 2)))

    def test_too_small_image(self):
        with pytest.raises(IRError, match="at least"):
            conv2d(height=2, width=10)


class TestAuxiliaryKernels:
    def test_dot_bad_length(self):
        with pytest.raises(IRError, match="divisible"):
            dot_product(length=10, unroll=4)

    def test_sad_has_abs_and_sub(self):
        program = sad(length=16)
        kinds = {o.kind for o in program.all_ops()}
        assert OpKind.ABS in kinds and OpKind.SUB in kinds

    def test_scale_offset_two_outputs_per_iter(self):
        program = scale_offset(length=16)
        stores = [o for o in program.blocks["body"].ops
                  if o.kind is OpKind.STORE]
        assert len(stores) == 2

    def test_factory(self):
        assert kernel_by_name("dot").name == "dot"
        with pytest.raises(IRError, match="unknown kernel"):
            kernel_by_name("fft")


class TestKernelsAreOptimizable:
    """Smoke: every kernel passes the full WLO-SLP flow."""

    @pytest.mark.parametrize("build", [
        lambda: dot_product(32),
        lambda: sad(32),
        lambda: scale_offset(32),
    ])
    def test_flow_runs(self, build):
        from repro.pipeline import AnalysisContext, run_flow
        from repro.targets import get_target

        program = build()
        result = run_flow("wlo-slp", program, get_target("vex-4"), -25.0)
        assert result.total_cycles > 0
        model = AnalysisContext.build(program).model
        assert not model.violates(result.spec, -25.0)
