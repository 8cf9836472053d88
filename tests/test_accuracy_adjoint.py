"""Adjoint gain extraction vs finite differences (ground truth)."""

import numpy as np
import pytest

from gain_reference import assert_same_gains, reference_gains
from repro.accuracy import adjoint, extract_gains
from repro.errors import AccuracyError
from repro.experiments.engine import KernelConfig, kernel_programs
from repro.fixedpoint import SlotMap
from repro.ir import OpKind, ProgramBuilder
from repro.kernels import fir, kernel_names


def _linear_chain():
    """y[0] = (x[0]*c0 + x[1]*c1) with hand-computable gains."""
    b = ProgramBuilder("chain")
    x = b.input_array("x", (2,), value_range=(-1.0, 1.0))
    h = b.coeff_array("h", [0.5, -0.25])
    y = b.output_array("y", (1,))
    with b.block("blk"):
        t0 = b.mul(b.load(x, 0), b.load(h, 0))
        t1 = b.mul(b.load(x, 1), b.load(h, 1))
        b.store(y, 0, b.add(t0, t1))
    return b.build()


class TestLinearChainGains:
    def test_mul_node_gains_are_unity(self):
        program = _linear_chain()
        gains = extract_gains(program, SlotMap(program))
        muls = [o.opid for o in program.all_ops() if o.kind is OpKind.MUL]
        for opid in muls:
            assert gains.node_k2[opid] == pytest.approx(1.0)
            assert gains.node_k1[opid] == pytest.approx(1.0)

    def test_input_gain_is_sum_of_squared_coeffs(self):
        program = _linear_chain()
        gains = extract_gains(program, SlotMap(program))
        assert gains.input_k2["x"] == pytest.approx(0.5 ** 2 + 0.25 ** 2)
        assert gains.input_k1["x"] == pytest.approx(0.5 - 0.25)

    def test_add_edge_gains(self):
        program = _linear_chain()
        gains = extract_gains(program, SlotMap(program))
        add = next(o for o in program.all_ops() if o.kind is OpKind.ADD)
        assert gains.edge_k2[(add.opid, 0)] == pytest.approx(1.0)
        assert gains.edge_k2[(add.opid, 1)] == pytest.approx(1.0)

    def test_store_gain_is_unity(self):
        program = _linear_chain()
        gains = extract_gains(program, SlotMap(program))
        store = program.output_store_ops()[0]
        assert gains.node_k2[store.opid] == pytest.approx(1.0)

    def test_coeff_sensitivities(self):
        """dy/dc_i = x_i: the covariance diagonal is E[x_i^2]."""
        program = _linear_chain()
        gains = extract_gains(program, SlotMap(program))
        labels = [e.label for e in gains.coeff_entries]
        assert "h[0]" in labels and "h[1]" in labels
        diag = np.diag(gains.coeff_cov)
        assert np.all(diag >= 0.0)
        assert np.all(diag <= 1.0)  # |x| <= 1


class TestFiniteDifferenceAgreement:
    def test_fir_node_gains(self, small_fir, rng):
        """Each FIR multiply fires taps/unroll = 4 times per output,
        every firing reaching the output with gain exactly 1: the
        incoherent energy K2 and the coherent sum K1 are both 4."""
        slotmap = SlotMap(small_fir)
        gains = extract_gains(small_fir, slotmap, n_ref_outputs=1, seed=5)
        muls = [o.opid for o in small_fir.all_ops() if o.kind is OpKind.MUL]
        for opid in muls:
            assert gains.node_k1[opid] == pytest.approx(4.0)
            assert gains.node_k2[opid] == pytest.approx(4.0)

    def test_iir_gains_decay_but_accumulate(self, small_iir):
        """Feedback makes K2 exceed the single-path gain of 1."""
        slotmap = SlotMap(small_iir)
        gains = extract_gains(small_iir, slotmap, n_ref_outputs=2)
        store = small_iir.output_store_ops()[0]
        assert gains.node_k2[store.opid] > 1.0  # re-circulated noise
        assert gains.node_k2[store.opid] < 1000.0  # but stable


class TestInputReuseCoherence:
    def test_reused_cell_gains_add_coherently(self):
        """A cell read twice with gains g1, g2 has K2 = (g1+g2)^2."""
        b = ProgramBuilder("reuse")
        x = b.input_array("x", (1,), value_range=(-1.0, 1.0))
        h = b.coeff_array("h", [0.5, 0.25])
        y = b.output_array("y", (1,))
        with b.block("blk"):
            t0 = b.mul(b.load(x, 0), b.load(h, 0))
            t1 = b.mul(b.load(x, 0), b.load(h, 1))
            b.store(y, 0, b.add(t0, t1))
        program = b.build()
        gains = extract_gains(program, SlotMap(program))
        assert gains.input_k2["x"] == pytest.approx((0.5 + 0.25) ** 2)


class TestErrors:
    def test_no_outputs_raises(self):
        b = ProgramBuilder("sink")
        x = b.input_array("x", (1,), value_range=(-1.0, 1.0))
        v = b.scalar("v")
        with b.block("blk"):
            b.setvar(v, b.load(x, 0))
        program = b.build()
        with pytest.raises(AccuracyError, match="no output"):
            extract_gains(program, SlotMap(program))


def _per_instance_gains(program, n_ref_outputs=4, seed=90210):
    """Node and edge gains summed by a Python loop over every trace
    instance: the reference the vectorized sums must equal exactly."""
    gains = reference_gains(program, SlotMap(program), n_ref_outputs, seed)
    return gains.node_k2, gains.node_k1, gains.edge_k2, gains.edge_k1


class TestVectorizedInstanceSums:
    """``np.add.at`` over instance chunks makes the loop's additions."""

    @pytest.mark.parametrize("chunk", [None, 7], ids=["default", "chunk7"])
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_equals_per_instance_loop(
        self, small_kernels, kernel, chunk, monkeypatch
    ):
        if chunk is not None:  # chunk boundaries inside runs of instances
            monkeypatch.setattr(adjoint, "_GAIN_CHUNK", chunk)
        program = small_kernels[kernel]
        gains = extract_gains(program, SlotMap(program))
        expected = _per_instance_gains(program)
        assert expected[0] and expected[2]
        assert (
            gains.node_k2, gains.node_k1, gains.edge_k2, gains.edge_k1
        ) == expected


#: (n_ref_outputs, seed) settings every gain field is checked at.
REFERENCE_SETTINGS = [(4, 90210), (1, 5), (2, 90210)]


class TestEqualsTracedReference:
    """Every gain field equals the tracing interpreter's, computed live:
    ``np.dot`` in the input sums adds in a BLAS-kernel-dependent order,
    so a recorded file would pin one machine's kernel."""

    @pytest.mark.parametrize("n_ref, seed", REFERENCE_SETTINGS)
    @pytest.mark.parametrize("kernel", ["fir", "iir", "conv"])
    def test_paper_twins(self, kernel, n_ref, seed):
        twin = kernel_programs(KernelConfig(), kernel)[1]
        slotmap = SlotMap(twin)
        assert_same_gains(
            extract_gains(twin, slotmap, n_ref_outputs=n_ref, seed=seed),
            reference_gains(twin, slotmap, n_ref, seed),
        )

    @pytest.mark.parametrize("n_ref, seed", REFERENCE_SETTINGS)
    @pytest.mark.parametrize("kernel", kernel_names())
    def test_small_kernels(self, small_kernels, kernel, n_ref, seed):
        program = small_kernels[kernel]
        slotmap = SlotMap(program)
        assert_same_gains(
            extract_gains(program, slotmap, n_ref_outputs=n_ref, seed=seed),
            reference_gains(program, slotmap, n_ref, seed),
        )


class TestReferenceOutputCount:
    @pytest.mark.parametrize("n_ref", [0, -2])
    def test_below_one_is_rejected(self, n_ref):
        program = fir(n_samples=40, n_taps=16)
        with pytest.raises(AccuracyError, match=f"got {n_ref}"):
            extract_gains(program, n_ref_outputs=n_ref)

    def test_pass_forwards_the_value(self):
        from repro.pipeline import AdjointGainsPass, FlowState
        from repro.targets import get_target

        program = fir(n_samples=40, n_taps=16)
        state = FlowState.seed(program, get_target("xentium"), -25.0)
        with pytest.raises(AccuracyError, match="got 0"):
            AdjointGainsPass(n_ref_outputs=0).run(state)

    def test_more_than_the_outputs_takes_them_all(self):
        program = fir(n_samples=40, n_taps=16)
        assert extract_gains(program, n_ref_outputs=100).n_ref_outputs == 40
