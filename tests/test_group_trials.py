"""Trial tables of the joint SLP round: exact decisions, shared tables.

:meth:`AccuracyModel.group_trials` evaluates a round's validity and
pair trials as the rows of one batched closed form, and
:meth:`GroupTrials.violations` decides them from per-row error bounds,
re-asking exactly only a row too close to the constraint.  Every
decision must be the one the per-question round answered
(``tests/slp_round_reference.py``), or the joint search would leave
its trajectory.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.accuracy import AccuracyModel
from repro.accuracy import analytical
from repro.experiments.engine import PAPER_CONSTRAINT_GRID, KernelConfig, build_context
from repro.ir import OpKind
from repro.pipeline import AnalysisContext
from repro.slp import block_slp, initial_items, set_group_wl
from repro.targets import get_target
from repro.utils import power_to_db
from repro.wlo import slp_aware, wlo_slp_optimize

from slp_round_reference import TrialMemo

PAPER_KERNELS = ("fir", "iir", "conv")

#: One target per datapath of the paper targets: 16-bit lanes of a
#: 32-bit word, and 8- or 16-bit lanes.
DATAPATHS = ("xentium", "vex-4")


@pytest.fixture(scope="module")
def paper_contexts():
    """The paper kernels' sweep contexts: benchmark programs whose
    models carry the analysis twins' gains."""
    return {k: build_context(KernelConfig(), k) for k in PAPER_KERNELS}


def _fresh_model(context) -> AccuracyModel:
    return AccuracyModel(context.program, context.slotmap, context.model.gains)


def _exact_db(model, spec, groups) -> float:
    """The trial as the per-question round asked it: save, SETMAXWL of
    each group in order, ``noise_power``, revert."""
    token = spec.save()
    for lanes, wl in groups:
        set_group_wl(spec, model.program, lanes, wl)
    power = model.noise_power(spec)
    spec.revert(token)
    return power_to_db(power)


def _recording(round_fn, log):
    """``round_fn``, logging per call the selections, the spec state it
    leaves and the running :class:`SelectionStats`."""

    def run(program, block, items, word_lengths, spec, model, constraint_db,
            stats=None, accuracy_conflicts=True):
        selected = round_fn(
            program, block, items, word_lengths, spec, model, constraint_db,
            stats, accuracy_conflicts=accuracy_conflicts,
        )
        log.append((
            block.name,
            tuple((c.lanes, c.wl) for c in selected),
            spec.state_key(),
            dataclasses.astuple(stats),
        ))
        return selected

    return run


def _joint_searches(context, model, round_fn, accuracy_conflicts):
    """A panel's joint searches (both datapaths, the paper constraints)
    on one model; every round is logged."""
    log, outcomes = [], []
    with mock.patch.object(
        slp_aware, "slp_round_accuracy_aware", _recording(round_fn, log)
    ):
        for target in DATAPATHS:
            word_lengths = get_target(target).word_lengths
            for constraint in PAPER_CONSTRAINT_GRID:
                spec = context.fresh_spec(max_wl=word_lengths.max_wl)
                outcome = wlo_slp_optimize(
                    context.program, spec, model, word_lengths, constraint,
                    accuracy_conflicts=accuracy_conflicts,
                )
                outcomes.append((
                    spec.state_key(),
                    {name: [(g.lanes, g.wl) for g in groups]
                     for name, groups in outcome.groups.items()},
                    dataclasses.astuple(outcome.selection),
                    dataclasses.astuple(outcome.scaling),
                    outcome.boundary_moves,
                ))
    return log, outcomes


class TestJointSearches:
    """The table round decides every round as the per-question one."""

    @pytest.mark.parametrize("accuracy_conflicts", [True, False])
    @pytest.mark.parametrize("kernel", PAPER_KERNELS)
    def test_every_round_matches_the_reference(
        self, paper_contexts, kernel, accuracy_conflicts
    ):
        context = paper_contexts[kernel]
        model = _fresh_model(context)
        log, outcomes = _joint_searches(
            context, model, slp_aware.slp_round_accuracy_aware,
            accuracy_conflicts,
        )
        memo = TrialMemo()
        expected_log, expected = _joint_searches(
            context, _fresh_model(context), memo.round, accuracy_conflicts
        )
        assert len(log) == len(expected_log) > 0
        for got, want in zip(log, expected_log):
            assert got == want
        assert outcomes == expected
        # The panel's rounds repeat: each table serves several visits.
        assert 0 < model.table_builds < model.table_visits == len(log)
        assert model.table_rows > 0


def _first_rounds(context, word_lengths):
    """(block, spec, groups) of each block's first joint round, from
    the all-max spec."""
    program = context.program
    rounds = []
    for block in program.blocks_by_priority():
        candidates = block_slp(program, block).candidates(
            initial_items(block), word_lengths
        )
        if candidates:
            spec = context.fresh_spec(max_wl=word_lengths.max_wl)
            groups = tuple((c.lanes, c.wl) for c in candidates)
            rounds.append((block, spec, groups))
    return rounds


def _row_trials(groups, first, second):
    """The groups of each validity trial, then of each pair trial
    ``(first[p], second[p])``."""
    return [(g,) for g in groups] + [
        (groups[i], groups[j]) for i, j in zip(first.tolist(), second.tolist())
    ]


#: Most pair rows of one round :class:`TestConstraintAtARow` checks; a
#: larger round (the small conv's 7,021 pairs) gets a random sample.
PAIR_SAMPLE = 400


class TestConstraintAtARow:
    """A constraint exactly at a trial's noise, or one ulp to either
    side of it, lies inside the row's bound: the row is re-asked, keeps
    its exact dB, and later visits are decided by that value."""

    @pytest.mark.parametrize("kernel", [
        "conv", "dot", "fir", "iir", "sad", "scale_offset",
    ])
    def test_exact_and_adjacent_constraints(self, small_kernels, kernel):
        context = AnalysisContext.build(small_kernels[kernel])
        reference = _fresh_model(context)
        model = _fresh_model(context)
        rng = np.random.default_rng(2017)
        for target in DATAPATHS:
            for _block, spec, groups in _first_rounds(
                context, get_target(target).word_lengths
            ):
                before = spec.state_key()
                trials = model.group_trials(spec, groups)
                count = len(groups)
                first, second = np.triu_indices(count, 1)
                if first.size > PAIR_SAMPLE:
                    keep = np.sort(rng.choice(first.size, PAIR_SAMPLE, replace=False))
                    first, second = first[keep], second[keep]
                exact = np.array([
                    _exact_db(reference, spec, trial)
                    for trial in _row_trials(groups, first, second)
                ])
                pair_rows = count + first * (2 * count - first - 3) // 2 + second - 1
                table_rows = np.concatenate((np.arange(count), pair_rows))
                for row, level in enumerate(exact.tolist()):
                    for constraint in (
                        level,
                        np.nextafter(level, np.inf),
                        np.nextafter(level, -np.inf),
                    ):
                        rechecks = model.table_rechecks
                        got = np.concatenate((
                            trials.violations(spec, constraint),
                            trials.violations(spec, constraint, first, second),
                        ))
                        assert got.tolist() == (exact > constraint).tolist()
                        # From the first visit on, the row holds its
                        # exact dB, so an adjacent constraint asks nothing.
                        assert trials.bounds[:, table_rows[row]].tolist() == [level] * 2
                        if constraint != level:
                            assert model.table_rechecks == rechecks
                assert spec.state_key() == before
        assert model.table_rechecks > 0


class TestTable:
    def test_memo_is_keyed_on_state_and_groups(self, fir_context):
        """A round visited again, under any constraint, shares its
        table; another state or another candidate list does not."""
        model = _fresh_model(fir_context)
        word_lengths = get_target("vex-4").word_lengths
        _block, spec, groups = _first_rounds(fir_context, word_lengths)[0]
        trials = model.group_trials(spec, groups)
        assert model.group_trials(spec.clone(), groups) is trials
        assert model.group_trials(spec, groups[1:]) is not trials
        set_group_wl(spec, fir_context.program, *groups[0])
        assert model.group_trials(spec, groups) is not trials
        count = len(groups)
        assert (model.table_visits, model.table_builds) == (4, 3)
        rows = count * (count + 1) // 2
        assert model.table_rows == 2 * rows + (count - 1) * count // 2
        # Counted apart from the single-state questions.
        assert (model.eval_count, model.miss_count) == (0, 0)

    def test_later_group_wins_a_shared_tie_group(self, fir_context):
        """Two load groups of one array write the array's word length:
        a pair row applies the first group, then the second, as the
        journaled trial does."""
        program = fir_context.program
        loads = [
            o.opid for o in program.blocks["body"].ops
            if o.kind is OpKind.LOAD and o.array == "x"
        ]
        spec = fir_context.fresh_spec()
        reference = _fresh_model(fir_context)
        for groups in (
            (((loads[0], loads[1]), 16), ((loads[2], loads[3]), 8)),
            (((loads[2], loads[3]), 8), ((loads[0], loads[1]), 16)),
        ):
            model = _fresh_model(fir_context)
            trials = model.group_trials(spec, groups)
            first, second = np.array([0]), np.array([1])
            exact = [
                _exact_db(reference, spec, trial)
                for trial in _row_trials(groups, first, second)
            ]
            assert exact[2] == exact[1]  # the second group's width wins
            for constraint in exact:
                for at in (np.nextafter(constraint, -np.inf), constraint):
                    got = trials.violations(spec, at).tolist() + trials.violations(
                        spec, at, first, second
                    ).tolist()
                    assert got == [level > at for level in exact]

    def test_empty_round(self, fir_context):
        model = _fresh_model(fir_context)
        spec = fir_context.fresh_spec()
        trials = model.group_trials(spec, ())
        assert trials.bounds.shape == (2, 0)
        assert trials.violations(spec, -30.0).shape == (0,)
        empty = np.zeros(0, dtype=np.int64)
        assert trials.violations(spec, -30.0, empty, empty).shape == (0,)

    def test_chunks_decide_like_one_matrix(self, paper_contexts, monkeypatch):
        """Rows are evaluated at most ``_ROW_CHUNK`` at a time; chunking
        changes neither a decision nor a bound's validity."""
        context = paper_contexts["conv"]
        word_lengths = get_target("vex-4").word_lengths
        _block, spec, groups = _first_rounds(context, word_lengths)[0]
        reference = _fresh_model(context)
        first, second = np.triu_indices(len(groups), 1)
        exact = np.array([
            _exact_db(reference, spec, trial)
            for trial in _row_trials(groups, first, second)
        ])
        monkeypatch.setattr(analytical, "_ROW_CHUNK", 7)
        model = _fresh_model(context)
        shapes = []
        moments = model._site_moments

        def record(fwl, iwl, edge):
            shapes.append(fwl.shape)
            return moments(fwl, iwl, edge)

        monkeypatch.setattr(model, "_site_moments", record)
        trials = model.group_trials(spec, groups)
        assert len(shapes) == -(-len(exact) // 7)
        assert all(shape[0] <= 7 for shape in shapes)
        for constraint in np.quantile(exact, [0.0, 0.3, 0.7, 1.0]):
            got = np.concatenate((
                trials.violations(spec, constraint),
                trials.violations(spec, constraint, first, second),
            ))
            assert got.tolist() == (exact > constraint).tolist()
        assert np.all(trials.bounds[0] <= exact)
        assert np.all(exact <= trials.bounds[1])

    def test_overfill_stays_within_cap(self, paper_contexts, monkeypatch):
        """The tables of one model never hold more than
        ``_TABLE_ROW_CAP`` rows (keys charged too); a full model empties
        them and later visits rebuild what they need, with the same
        decisions."""
        context = paper_contexts["fir"]
        cap = 3 * (64 + analytical._TABLE_KEY_ROWS)
        expected = _joint_searches(
            context, _fresh_model(context), slp_aware.slp_round_accuracy_aware,
            True,
        )
        monkeypatch.setattr(analytical, "_TABLE_ROW_CAP", cap)
        model = _fresh_model(context)
        held = []
        build = model.group_trials

        def visit(spec, groups):
            trials = build(spec, groups)
            held.append(sum(t.charge for t in model._trial_tables.values()))
            return trials

        monkeypatch.setattr(model, "group_trials", visit)
        got = _joint_searches(
            context, model, slp_aware.slp_round_accuracy_aware, True
        )
        assert got == expected
        assert max(held) <= cap
        assert model.table_builds > len(model._trial_tables)  # some dropped
        # A table larger than the cap is used, never stored.
        _block, spec, groups = _first_rounds(
            paper_contexts["conv"], get_target("vex-4").word_lengths
        )[0]
        big = _fresh_model(paper_contexts["conv"])
        trials = big.group_trials(spec, groups)
        assert trials.charge > cap
        assert not big._trial_tables
