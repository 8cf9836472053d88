"""Accuracy-aware SLP (paper Fig. 1c) behavioural tests."""

import pytest

from repro.ir import OpKind
from repro.slp import (
    initial_items,
    set_group_wl,
    slp_round_accuracy_aware,
)
from repro.slp.extraction import SelectionStats
from repro.targets import get_target


@pytest.fixture()
def fir_round(fir_context):
    program = fir_context.program
    return program, program.blocks["body"]


class TestSetGroupWl:
    def test_sets_lanes_and_edges(self, fir_context):
        program = fir_context.program
        spec = fir_context.fresh_spec()
        muls = [o.opid for o in program.all_ops() if o.kind is OpKind.MUL][:2]
        set_group_wl(spec, program, tuple(muls), 16)
        for opid in muls:
            assert spec.wl(opid) == 16
            assert spec.edge_wl(opid, 0) == 16
            assert spec.edge_wl(opid, 1) == 16

    def test_load_groups_narrow_the_array(self, fir_context):
        program = fir_context.program
        spec = fir_context.fresh_spec()
        loads = [
            o.opid for o in program.blocks["body"].ops
            if o.kind is OpKind.LOAD and o.array == "x"
        ][:2]
        set_group_wl(spec, program, tuple(loads), 16)
        assert spec.wl(spec.slotmap.slot_of_symbol("x")) == 16


class TestValidityFiltering:
    def test_loose_constraint_keeps_candidates(self, fir_round, fir_context):
        program, block = fir_round
        spec = fir_context.fresh_spec()
        stats = SelectionStats()
        selected = slp_round_accuracy_aware(
            program, block, initial_items(block),
            get_target("xentium").word_lengths, spec, fir_context.model,
            -10.0, stats,
        )
        assert selected
        assert stats.accuracy_rejections == 0

    def test_impossible_constraint_rejects_all(self, fir_round, fir_context):
        program, block = fir_round
        spec = fir_context.fresh_spec()
        stats = SelectionStats()
        selected = slp_round_accuracy_aware(
            program, block, initial_items(block),
            get_target("xentium").word_lengths, spec, fir_context.model,
            -120.0, stats,
        )
        assert selected == []
        assert stats.accuracy_rejections == stats.candidates_seen
        # Nothing selected means nothing narrowed.
        assert all(
            spec.wl(root) == 32 for root in fir_context.slotmap.roots
        )

    def test_rejection_reverts_spec(self, fir_round, fir_context):
        program, block = fir_round
        spec = fir_context.fresh_spec()
        before = spec.fwl_vector().copy()
        slp_round_accuracy_aware(
            program, block, initial_items(block),
            get_target("xentium").word_lengths, spec, fir_context.model,
            -120.0,
        )
        assert (spec.fwl_vector() == before).all()


class TestAccuracyConflicts:
    def test_borderline_constraint_creates_conflicts(self, fir_context):
        """Pick a constraint between the 1-group and all-group noise
        levels: single candidates pass validity but some pairs cannot
        coexist — the Fig. 1c conflict class."""
        program = fir_context.program
        block = program.blocks["body"]
        model = fir_context.model

        # Noise with exactly one mul pair narrowed:
        spec = fir_context.fresh_spec()
        muls = [o.opid for o in block.ops if o.kind is OpKind.MUL]
        set_group_wl(spec, program, (muls[0], muls[1]), 16)
        one_group_db = model.noise_db(spec)
        spec = fir_context.fresh_spec()
        set_group_wl(spec, program, (muls[0], muls[1]), 16)
        set_group_wl(spec, program, (muls[2], muls[3]), 16)
        two_groups_db = model.noise_db(spec)
        assert two_groups_db > one_group_db
        constraint = (one_group_db + two_groups_db) / 2.0

        spec = fir_context.fresh_spec()
        stats = SelectionStats()
        selected = slp_round_accuracy_aware(
            program, block, initial_items(block),
            get_target("xentium").word_lengths, spec, model, constraint,
            stats,
        )
        assert stats.accuracy_conflicts > 0
        assert not model.violates(spec, constraint)
        # Something was still selected (one of the conflicting pair).
        assert selected

    def test_disabling_conflicts_changes_outcome(self, fir_context):
        program = fir_context.program
        block = program.blocks["body"]
        spec = fir_context.fresh_spec()
        stats = SelectionStats()
        slp_round_accuracy_aware(
            program, block, initial_items(block),
            get_target("xentium").word_lengths, spec, fir_context.model,
            -62.0, stats, accuracy_conflicts=False,
        )
        assert stats.accuracy_conflicts == 0


class TestSelectionMutatesSpec:
    def test_selected_groups_are_narrowed(self, fir_round, fir_context):
        program, block = fir_round
        spec = fir_context.fresh_spec()
        selected = slp_round_accuracy_aware(
            program, block, initial_items(block),
            get_target("xentium").word_lengths, spec, fir_context.model,
            -10.0,
        )
        for candidate in selected:
            for opid in candidate.lanes:
                assert spec.wl(opid) == candidate.wl == 16
