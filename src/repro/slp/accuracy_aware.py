"""Accuracy-aware SLP extraction (paper Fig. 1c).

The joint algorithm's inner engine.  Differences from plain SLP:

* ``SETMAXWL`` (here :func:`set_group_wl`) — selecting a group narrows
  the word length of all its lanes to eq. (1)'s ``m`` and narrows the
  multiply operand edges to the lane width;
* *invalid candidates* — a candidate that violates the accuracy
  constraint even with every other node at maximum word length can
  never be implemented as a SIMD instruction and is eliminated up
  front (lines 6-12);
* *accuracy conflicts* — two candidates that cannot coexist without
  violating the constraint conflict exactly like structural conflicts
  (lines 14-25).

Every check is a trial on the round's spec: ``SETMAXWL`` of one
candidate group (validity) or of two (a pair), then ``EVALACC``.  The
accuracy model evaluates all of a round's trials at once, as the rows
of one trial table (:meth:`~repro.accuracy.AccuracyModel.group_trials`)
memoized on the round's state and candidates, and each visit decides
its checks against its own constraint from the table: the 7
constraints of a panel replay the same rounds from the same states.
Candidates, structural conflicts and the selection come from the
block's :class:`~repro.slp.extraction.BlockSlp` for the same reason.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.accuracy.analytical import AccuracyModel
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.program import Program
from repro.slp.candidates import Candidate, PackItem
from repro.slp.extraction import SelectionStats, block_slp
from repro.targets.model import WordLengths

__all__ = ["set_group_wl", "slp_round_accuracy_aware"]


def set_group_wl(
    spec: FixedPointSpec,
    program: Program,
    lanes: tuple[int, ...],
    wl: int,
) -> None:
    """The paper's ``SETMAXWL``: apply eq. (1)'s lane width to a group.

    Every lane node is narrowed to ``wl`` (keeping its range-derived
    ``iwl``, so only precision is traded); multiply lanes additionally
    record that their operands are consumed through ``wl``-bit lanes,
    which the accuracy model prices as pack-boundary narrowing.  The
    writes are :meth:`~repro.fixedpoint.FixedPointSpec.group_writes`,
    which the trial tables apply to their rows too.
    """
    spec.write_all(spec.group_writes(program, lanes), wl)


def slp_round_accuracy_aware(
    program: Program,
    block: BasicBlock,
    items: list[PackItem],
    word_lengths: WordLengths,
    spec: FixedPointSpec,
    model: AccuracyModel,
    constraint_db: float,
    stats: SelectionStats | None = None,
    accuracy_conflicts: bool = True,
) -> list[Candidate]:
    """One extraction round of Fig. 1c; selections mutate ``spec``.

    Returns the selected candidates (possibly empty, which terminates
    the widening loop of Fig. 1a).  ``accuracy_conflicts=False``
    disables the joint-selection conflict class (ablation B), keeping
    only the per-candidate validity check.
    """
    slp = block_slp(program, block)
    candidates = slp.candidates(items, word_lengths)
    if stats is not None:
        stats.rounds += 1
        stats.candidates_seen += len(candidates)
    trials = model.group_trials(
        spec, tuple((candidate.lanes, candidate.wl) for candidate in candidates)
    )

    # --- Candidates Extraction: eliminate accuracy-invalid ones -------
    valid = np.flatnonzero(~trials.violations(spec, constraint_db))
    if stats is not None:
        stats.accuracy_rejections += len(candidates) - valid.size
    candidates = [candidates[i] for i in valid.tolist()]

    # --- Conflicts Detection ------------------------------------------
    conflicts = slp.conflicts(candidates)
    if stats is not None:
        stats.structural_conflicts += len(conflicts)
    if accuracy_conflicts and len(candidates) > 1:
        # Every pair of valid candidates without a structural conflict,
        # as positions in the valid list; a structural conflict needs
        # no accuracy check.
        ends = np.fromiter(
            chain.from_iterable(conflicts), np.intp, 2 * len(conflicts)
        ).reshape(-1, 2)
        structural = np.zeros((len(candidates),) * 2, dtype=bool)
        structural[ends[:, 0], ends[:, 1]] = True
        structural |= structural.T
        first, second = np.triu_indices(len(candidates), 1)
        open_pairs = ~structural[first, second]
        first, second = first[open_pairs], second[open_pairs]
        violated = trials.violations(
            spec, constraint_db, valid[first], valid[second]
        )
        conflicts.update(
            frozenset(pair)
            for pair in zip(first[violated].tolist(), second[violated].tolist())
        )
        if stats is not None:
            stats.accuracy_conflicts += int(np.count_nonzero(violated))

    # --- SIMD Groups Selection (SETMAXWL applied permanently) ----------
    def on_select(candidate: Candidate) -> None:
        set_group_wl(spec, program, candidate.lanes, candidate.wl)

    return slp.select(candidates, conflicts, items, on_select, stats)
