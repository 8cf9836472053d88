"""Slot map and fixed-point specification tests."""

import pickle

import numpy as np
import pytest

from repro.errors import FixedPointError
from repro.fixedpoint import NO_NARROW, FixedPointSpec, SlotMap
from repro.ir import OpKind


class TestSlotMap:
    def test_slot_numbering(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        assert slotmap.n_ops == tiny_program.n_ops
        assert slotmap.n_slots == tiny_program.n_ops + 3  # x, y, acc

    def test_load_tied_to_array(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        load = next(o for o in tiny_program.all_ops() if o.kind is OpKind.LOAD)
        assert slotmap.root_of(load.opid) == slotmap.root_of(
            slotmap.slot_of_symbol("x")
        )

    def test_store_tied_to_array(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        store = next(
            o for o in tiny_program.all_ops()
            if o.kind is OpKind.STORE and o.array == "y"
        )
        assert slotmap.root_of(store.opid) == slotmap.root_of(
            slotmap.slot_of_symbol("y")
        )

    def test_accumulator_chain_tied(self, tiny_program):
        """READVAR, WRITEVAR, the written value's producer and the var
        itself must share one format (a register cannot re-format)."""
        slotmap = SlotMap(tiny_program)
        acc_root = slotmap.root_of(slotmap.slot_of_symbol("acc"))
        for op in tiny_program.all_ops():
            if op.kind in (OpKind.READVAR, OpKind.WRITEVAR):
                assert slotmap.root_of(op.opid) == acc_root
            if op.kind is OpKind.WRITEVAR:
                assert slotmap.root_of(op.operands[0]) == acc_root

    def test_unknown_symbol(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        with pytest.raises(FixedPointError):
            slotmap.slot_of_symbol("ghost")

    def test_describe(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        assert "sym:x" in slotmap.describe(slotmap.slot_of_symbol("x"))
        assert "op%0" in slotmap.describe(0)

    def test_fir_mul_untied(self, small_fir):
        """Multiplies have their own formats (nothing ties them)."""
        slotmap = SlotMap(small_fir)
        muls = [o for o in small_fir.all_ops() if o.kind is OpKind.MUL]
        roots = {slotmap.root_of(m.opid) for m in muls}
        assert len(roots) == len(muls)


class TestSpecBasics:
    def test_defaults(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program), max_wl=32)
        assert spec.wl(0) == 32
        assert spec.iwl(0) == 1
        assert spec.fwl(0) == 31
        assert spec.edge_wl(0, 0) == NO_NARROW

    def test_tied_write_visible_through_members(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        spec = FixedPointSpec(slotmap)
        load = next(o for o in tiny_program.all_ops() if o.kind is OpKind.LOAD)
        spec.set_wl(load.opid, 16)
        assert spec.wl(slotmap.slot_of_symbol("x")) == 16

    def test_set_fwl_moves_binary_point(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        spec.set_iwl(0, 4)
        spec.set_fwl(0, 20)
        assert spec.wl(0) == 32 and spec.iwl(0) == 12 and spec.fwl(0) == 20

    def test_bad_wl_rejected(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        with pytest.raises(FixedPointError):
            spec.set_wl(0, 0)

    def test_qformat_accessor(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        spec.set_wl(0, 16)
        spec.set_iwl(0, 2)
        assert str(spec.qformat(0)) == "<2,14>"


class TestJournal:
    def test_revert_restores_everything(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        token = spec.save()
        spec.set_wl(0, 16)
        spec.set_iwl(2, 5)
        spec.set_edge_wl(1, 0, 16)
        spec.revert(token)
        assert spec.wl(0) == 32
        assert spec.iwl(2) == 1
        assert spec.edge_wl(1, 0) == NO_NARROW

    def test_nested_checkpoints(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        outer = spec.save()
        spec.set_wl(0, 24)
        inner = spec.save()
        spec.set_wl(0, 16)
        spec.revert(inner)
        assert spec.wl(0) == 24
        spec.revert(outer)
        assert spec.wl(0) == 32

    def test_noop_writes_not_journaled(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        token = spec.save()
        spec.set_wl(0, 32)  # same value
        assert spec.save() == token

    def test_bad_token(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        with pytest.raises(FixedPointError):
            spec.revert(999)


class TestVectorViews:
    def test_fwl_vector_resolves_roots(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        spec = FixedPointSpec(slotmap)
        load = next(o for o in tiny_program.all_ops() if o.kind is OpKind.LOAD)
        spec.set_wl(load.opid, 16)
        spec.set_iwl(load.opid, 2)
        fwl = spec.fwl_vector()
        assert fwl[load.opid] == 14
        assert fwl[slotmap.slot_of_symbol("x")] == 14

    def test_vector_shapes(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        spec = FixedPointSpec(slotmap)
        assert spec.fwl_vector().shape == (slotmap.n_slots,)
        assert spec.edge_wl_matrix().shape == (slotmap.n_ops, 2)


class TestConsumptionFwl:
    def test_default_is_producer_format(self, small_fir):
        slotmap = SlotMap(small_fir)
        spec = FixedPointSpec(slotmap)
        mul = next(o for o in small_fir.all_ops() if o.kind is OpKind.MUL)
        assert spec.consumption_fwl(mul.opid, 0) == spec.fwl(mul.operands[0])

    def test_narrowed_edge(self, small_fir):
        slotmap = SlotMap(small_fir)
        spec = FixedPointSpec(slotmap)
        mul = next(o for o in small_fir.all_ops() if o.kind is OpKind.MUL)
        producer = mul.operands[0]
        spec.set_iwl(producer, 1)
        spec.set_edge_wl(mul.opid, 0, 16)
        assert spec.consumption_fwl(mul.opid, 0) == 15  # 16 - iwl 1

    def test_edge_never_widens(self, small_fir):
        slotmap = SlotMap(small_fir)
        spec = FixedPointSpec(slotmap)
        mul = next(o for o in small_fir.all_ops() if o.kind is OpKind.MUL)
        producer = mul.operands[0]
        spec.set_wl(producer, 8)
        spec.set_iwl(producer, 1)
        spec.set_edge_wl(mul.opid, 0, 16)
        assert spec.consumption_fwl(mul.opid, 0) == spec.fwl(producer)


class TestStateKey:
    def test_equal_states_equal_keys(self, tiny_program):
        slotmap = SlotMap(tiny_program)
        spec = FixedPointSpec(slotmap)
        spec.set_wl(0, 16)
        twin = FixedPointSpec(slotmap)
        twin.set_wl(0, 16)
        assert spec.state_key() == twin.state_key() == spec.clone().state_key()

    @pytest.mark.parametrize("mutate", [
        lambda spec: spec.set_wl(0, 16),
        lambda spec: spec.set_iwl(0, 3),
        lambda spec: spec.set_edge_wl(1, 1, 16),
    ], ids=["wl", "iwl", "edge_wl"])
    def test_each_buffer_changes_the_key(self, tiny_program, mutate):
        spec = FixedPointSpec(SlotMap(tiny_program))
        before = spec.state_key()
        token = spec.save()
        mutate(spec)
        assert spec.state_key() != before
        spec.revert(token)
        assert spec.state_key() == before


class TestClone:
    def test_clone_is_independent(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program))
        spec.set_edge_wl(1, 0, 16)
        twin = spec.clone()
        assert twin.state_key() == spec.state_key()
        spec.set_wl(0, 16)
        assert twin.wl(0) == 32
        twin.set_iwl(2, 5)
        twin.set_edge_wl(1, 0, 8)
        assert spec.iwl(2) == 1 and spec.edge_wl(1, 0) == 16
        twin.revert(0)  # the twin's journal starts empty
        assert twin.iwl(2) == 1 and twin.edge_wl(1, 0) == 16

    def test_pickle_round_trip_preserves_state(self, tiny_program):
        spec = FixedPointSpec(SlotMap(tiny_program), max_wl=24)
        token = spec.save()
        spec.set_wl(0, 16)
        spec.set_iwl(2, 5)
        spec.set_edge_wl(1, 1, 12)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy.state_key() == spec.state_key()
        assert (copy.wl(0), copy.iwl(2), copy.edge_wl(1, 1)) == (16, 5, 12)
        copy.revert(token)  # the journal travels too
        assert copy.state_key() == FixedPointSpec(spec.slotmap, 24).state_key()
        assert spec.wl(0) == 16


def _mutations(slotmap):
    from hypothesis import strategies as st

    return st.lists(
        st.tuples(
            st.sampled_from(["wl", "iwl", "fwl", "edge", "revert"]),
            st.integers(0, slotmap.n_slots - 1),
            st.integers(1, 32),
        ),
        max_size=24,
    )


def _mutate(spec, kind, slot, value, tokens):
    """One random-walk step; ``revert`` rolls back to a saved token."""
    n_ops = spec.slotmap.n_ops
    if kind == "wl":
        spec.set_wl(slot, value)
    elif kind == "iwl":
        spec.set_iwl(slot, value)
    elif kind == "fwl":
        if value < spec.wl(slot):
            spec.set_fwl(slot, value)
    elif kind == "edge":
        spec.set_edge_wl(slot % n_ops, value % 2, value)
    else:
        spec.revert(tokens[value % len(tokens)])
        del tokens[value % len(tokens) + 1:]
    tokens.append(spec.save())


def _three_buffer_key(spec):
    """The key of the three-array spec, rebuilt from the public views:
    per-slot wl, then iwl (int16; slots other than tie-group roots keep
    their initial values), then the (n_ops, 2) edge word lengths."""
    slotmap = spec.slotmap
    is_root = slotmap.root == np.arange(slotmap.n_slots)
    wl = np.where(is_root, spec.wl_vector(), spec.max_wl).astype(np.int16)
    iwl = np.where(is_root, spec.iwl_vector(), 1).astype(np.int16)
    edge = spec.edge_wl_matrix().astype(np.int16)
    return wl.tobytes() + iwl.tobytes() + edge.tobytes()


def _views(spec):
    return spec.fwl_vector(), spec.iwl_vector(), spec.edge_wl_matrix()


class TestJournalProperties:
    """Hypothesis: random mutation walks over the journaled spec."""

    def test_random_sequences_revert(self, tiny_program):
        from hypothesis import given, settings

        slotmap = SlotMap(tiny_program)

        @given(_mutations(slotmap))
        @settings(max_examples=50, deadline=None)
        def run(seq):
            spec = FixedPointSpec(slotmap)
            baseline = (
                spec.wl_vector().copy(),
                spec.iwl_vector().copy(),
                spec.edge_wl_matrix().copy(),
            )
            token = spec.save()
            tokens = [token]
            for step in seq:
                _mutate(spec, *step, tokens)
            spec.revert(token)
            assert (spec.wl_vector() == baseline[0]).all()
            assert (spec.iwl_vector() == baseline[1]).all()
            assert (spec.edge_wl_matrix() == baseline[2]).all()

        run()

    def test_unpack_is_the_single_state_views(self, tiny_program):
        """``unpack`` of stacked ``state_vector`` copies gives every
        state's fwl, iwl and edge views: the rows a batched evaluator
        reads are the states a single evaluation reads."""
        from hypothesis import given, settings

        slotmap = SlotMap(tiny_program)

        @given(_mutations(slotmap))
        @settings(max_examples=50, deadline=None)
        def run(seq):
            spec = FixedPointSpec(slotmap)
            tokens = [spec.save()]
            states, views = [spec.state_vector()], [_views(spec)]
            for step in seq:
                _mutate(spec, *step, tokens)
                states.append(spec.state_vector())
                views.append(_views(spec))
            rows = spec.unpack(np.stack(states))
            for got, want in zip(rows, zip(*views)):
                assert got.dtype == np.int32
                assert np.array_equal(got, np.stack(want))

        run()

    def test_state_key_is_the_three_buffers(self, tiny_program):
        """The flat buffer's key is byte for byte the key of the three
        separate wl / iwl / edge arrays, so state-memo keys are stable."""
        from hypothesis import given, settings

        slotmap = SlotMap(tiny_program)

        @given(_mutations(slotmap))
        @settings(max_examples=50, deadline=None)
        def run(seq):
            spec = FixedPointSpec(slotmap, max_wl=28)
            tokens = [spec.save()]
            assert spec.state_key() == _three_buffer_key(spec)
            for step in seq:
                _mutate(spec, *step, tokens)
                assert spec.state_key() == _three_buffer_key(spec)

        run()
