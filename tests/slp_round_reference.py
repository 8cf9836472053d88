"""Reference joint SLP round: one trial per accuracy question.

This is how :func:`repro.slp.accuracy_aware.slp_round_accuracy_aware`
decided its checks before they moved onto the accuracy model's batched
trial tables: every validity and pair check is a trial on the round's
spec (save, ``SETMAXWL`` of each group, ``noise_power``, revert),
answered from a memo keyed on the question, which the rounds of one
model share.  The tests hold every round of the table path to it, and
``benchmarks/test_bench_micro.py`` times it as the ``joint_round``
baseline.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable
from unittest import mock

from repro.slp.accuracy_aware import set_group_wl
from repro.slp.extraction import SelectionStats, block_slp
from repro.utils import power_to_db
from repro.wlo import slp_aware


class TrialMemo:
    """A question-keyed trial memo and the round that asks through it."""

    def __init__(self) -> None:
        self.answers: dict[Hashable, float] = {}
        self.questions = 0
        self.hits = 0

    def trial_power(self, spec, model, question, apply) -> float:
        """Noise power of ``spec`` after ``apply(spec)``, memoized on
        ``question``; ``spec`` is kept."""
        self.questions += 1
        found = self.answers.get(question)
        if found is not None:
            self.hits += 1
            return found
        token = spec.save()
        apply(spec)
        found = model.noise_power(spec)
        spec.revert(token)
        self.answers[question] = found
        return found

    def round(self, program, block, items, word_lengths, spec, model,
              constraint_db, stats: SelectionStats | None = None,
              accuracy_conflicts: bool = True):
        """One extraction round of Fig. 1c, a question at a time."""
        slp = block_slp(program, block)
        candidates = slp.candidates(items, word_lengths)
        if stats is not None:
            stats.rounds += 1
            stats.candidates_seen += len(candidates)
        # The question (base, group, ...) determines the trial state.
        base = spec.state_key()

        def violates(*groups) -> bool:
            def apply(trial) -> None:
                for lanes, wl in groups:
                    set_group_wl(trial, program, lanes, wl)

            power = self.trial_power(spec, model, (base, *groups), apply)
            return power_to_db(power) > constraint_db

        valid = []
        for candidate in candidates:
            if violates((candidate.lanes, candidate.wl)):
                if stats is not None:
                    stats.accuracy_rejections += 1
            else:
                valid.append(candidate)
        candidates = valid

        conflicts = slp.conflicts(candidates)
        if stats is not None:
            stats.structural_conflicts += len(conflicts)
        if accuracy_conflicts:
            groups = [(c.lanes, c.wl) for c in candidates]
            for i in range(len(candidates)):
                for j in range(i + 1, len(candidates)):
                    pair = frozenset((i, j))
                    if pair in conflicts:  # structural: no accuracy check
                        continue
                    if violates(groups[i], groups[j]):
                        conflicts.add(pair)
                        if stats is not None:
                            stats.accuracy_conflicts += 1

        def on_select(candidate) -> None:
            set_group_wl(spec, program, candidate.lanes, candidate.wl)

        return slp.select(candidates, conflicts, items, on_select, stats)

    @contextmanager
    def installed(self):
        """Run :func:`~repro.wlo.wlo_slp_optimize` through this round."""
        with mock.patch.object(slp_aware, "slp_round_accuracy_aware", self.round):
            yield self
