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

Every check is a trial on the round's spec, asked through the accuracy
model's trial memo: the 7 constraints of a panel replay the same rounds
from the same states, so most questions repeat.  Candidates, structural
conflicts and the selection come from the block's
:class:`~repro.slp.extraction.BlockSlp` for the same reason.
"""

from __future__ import annotations

from repro.accuracy.analytical import AccuracyModel
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.slp.candidates import Candidate, PackItem
from repro.slp.extraction import SelectionStats, block_slp
from repro.targets.model import WordLengths
from repro.utils import power_to_db

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
    which the accuracy model prices as pack-boundary narrowing.
    """
    for opid in lanes:
        spec.set_wl(opid, wl)
        if program.op(opid).kind is OpKind.MUL:
            spec.set_edge_wl(opid, 0, wl)
            spec.set_edge_wl(opid, 1, wl)


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

    # A trial's state is a function of the round's base state and the
    # (lanes, wl) groups applied in order: lane op kinds come from the
    # model's program, which shares op ids with ``program``.  So the
    # question (base, group, ...) determines the answer.
    base = spec.state_key()

    def violates(*groups: tuple[tuple[int, ...], int]) -> bool:
        """EVALACC on the round's spec with ``groups`` applied."""

        def apply(trial: FixedPointSpec) -> None:
            for lanes, wl in groups:
                set_group_wl(trial, program, lanes, wl)

        power = model.trial_noise_power(spec, (base, *groups), apply)
        return power_to_db(power) > constraint_db

    # --- Candidates Extraction: eliminate accuracy-invalid ones -------
    valid: list[Candidate] = []
    for candidate in candidates:
        if violates((candidate.lanes, candidate.wl)):
            if stats is not None:
                stats.accuracy_rejections += 1
        else:
            valid.append(candidate)
    candidates = valid

    # --- Conflicts Detection ------------------------------------------
    conflicts = slp.conflicts(candidates)
    if stats is not None:
        stats.structural_conflicts += len(conflicts)
    if accuracy_conflicts:
        groups = [(candidate.lanes, candidate.wl) for candidate in candidates]
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                pair = frozenset((i, j))
                if pair in conflicts:  # structural: no accuracy check
                    continue
                if violates(groups[i], groups[j]):
                    conflicts.add(pair)
                    if stats is not None:
                        stats.accuracy_conflicts += 1

    # --- SIMD Groups Selection (SETMAXWL applied permanently) ----------
    def on_select(candidate: Candidate) -> None:
        set_group_wl(spec, program, candidate.lanes, candidate.wl)

    return slp.select(candidates, conflicts, items, on_select, stats)
