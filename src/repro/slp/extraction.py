"""SLP extraction driver.

Implements Liu et al.'s selection loop over (candidates, conflicts):
iteratively select the highest-benefit candidate, eliminate everything
that conflicts with it, and repeat; then *widen* by collapsing the
selected pairs into items and re-extracting, as long as the target
supports a larger group size (paper Fig. 1a lines 6-14).

Two front ends use this driver:

* :func:`extract_groups_decoupled` — the accuracy-*blind* extraction of
  the WLO-First baseline (paper Fig. 5): grouping is restricted to ops
  whose already-chosen word lengths agree and fit a SIMD width; the
  spec is never modified.
* ``repro.slp.accuracy_aware`` — the paper's contribution, which
  filters candidates and conflicts through the accuracy model and
  narrows word lengths (``SETMAXWL``) as groups are selected.

Both ask their questions through one :class:`BlockSlp` per block
(:func:`block_slp`), which answers repeated candidate, conflict and
selection questions from memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.errors import SLPError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.deps import dependence_graph
from repro.ir.optypes import OpKind
from repro.ir.program import Program, block_memo
from repro.slp.benefit import BenefitEstimator
from repro.slp.candidates import (
    Candidate,
    PackItem,
    extract_candidates,
    initial_items,
)
from repro.slp.conflicts import conflict_matrix
from repro.slp.groups import GroupSet, SIMDGroup
from repro.targets.model import WordLengths
from repro.utils import remember

__all__ = [
    "DEFAULT_MIN_BENEFIT",
    "BlockSlp",
    "SelectionStats",
    "block_slp",
    "select_groups",
    "merge_items",
    "build_group_set",
    "extract_groups_decoupled",
]


@dataclass
class SelectionStats:
    """Bookkeeping of one extraction run (exposed in flow reports)."""

    rounds: int = 0
    candidates_seen: int = 0
    candidates_selected: int = 0
    accuracy_rejections: int = 0
    accuracy_conflicts: int = 0
    structural_conflicts: int = 0
    benefit_evaluations: int = 0


#: Candidates scoring below this reuse/cost ratio are never selected:
#: their packing overhead would exceed the issue slots they save.  The
#: value sits between "gather pair" (~0.25) and "vector-loadable pair"
#: (~1.5) scores; see ``tests/test_slp_benefit.py`` for the calibration.
DEFAULT_MIN_BENEFIT = 0.6


def select_groups(
    candidates: list[Candidate],
    conflicts: set[frozenset[int]],
    estimator: BenefitEstimator,
    items: list[PackItem],
    on_select: Callable[[Candidate], None] | None = None,
    stats: SelectionStats | None = None,
    min_benefit: float = DEFAULT_MIN_BENEFIT,
) -> list[Candidate]:
    """Liu-style iterative selection (paper Fig. 1c lines 26-35).

    Repeatedly selects the most beneficial live candidate, invokes
    ``on_select`` (the paper's ``SETMAXWL``) and eliminates candidates
    conflicting with the selection, until no candidate scoring at
    least ``min_benefit`` remains.
    """
    live = list(range(len(candidates)))
    selected: list[Candidate] = []
    while live:
        live_candidates = [candidates[i] for i in live]
        pool = estimator.pool(live_candidates, items)
        scored = []
        for index in live:
            benefit = estimator.benefit(
                candidates[index], live_candidates, items, pool
            )
            if stats is not None:
                stats.benefit_evaluations += 1
            scored.append((benefit, -index))
        best_pos = max(range(len(live)), key=lambda p: scored[p])
        if scored[best_pos][0] < min_benefit:
            break
        best = live[best_pos]
        chosen = candidates[best]
        selected.append(chosen)
        if on_select is not None:
            on_select(chosen)
        live = [
            index
            for index in live
            if index != best
            and frozenset((index, best)) not in conflicts
            and not candidates[index].shares_op_with(chosen)
        ]
    if stats is not None:
        stats.candidates_selected += len(selected)
    return selected


#: Most answers one :class:`BlockSlp` memo holds.  The cold paper sweep
#: asks a block at most 16 distinct questions per memo; the cap bounds
#: a long-lived process (``repro serve``).
_SLP_MEMO_CAP = 1 << 10


class BlockSlp:
    """One block's SLP index: its dependence graph, its benefit oracle
    and memos of the questions both extraction front ends ask.

    The 7 constraints of a panel replay the same rounds, and targets
    with equal lane widths ask the same questions, so most repeat:

    * candidates, keyed by (items, word lengths);
    * structural conflicts, keyed by the candidate tuple; each caller
      gets a fresh set, which the joint round may extend with accuracy
      conflicts;
    * selections, keyed by (candidates, conflicts, items), stored as
      the picks plus the number of benefit evaluations.  Selection
      never reads the spec, so a hit replays ``on_select`` in
      selection order and adds the same :class:`SelectionStats`
      increments as a fresh :func:`select_groups` call, which computes
      every miss.
    """

    def __init__(self, program: Program, block: BasicBlock) -> None:
        self.program = program
        self.block = block
        self.deps = dependence_graph(program, block)
        self.estimator = BenefitEstimator(program, block)
        self._candidates: dict[Hashable, tuple[Candidate, ...]] = {}
        self._conflicts: dict[Hashable, frozenset[frozenset[int]]] = {}
        self._selections: dict[Hashable, tuple[tuple[Candidate, ...], int]] = {}

    def candidates(
        self, items: list[PackItem], word_lengths: WordLengths
    ) -> list[Candidate]:
        """:func:`extract_candidates` over ``items`` (memoized)."""
        key = (
            tuple(items), word_lengths.scalar_wl,
            tuple(word_lengths.simd_widths),
        )
        found = self._candidates.get(key)
        if found is None:
            found = tuple(extract_candidates(
                self.program, items, self.deps, word_lengths
            ))
            remember(self._candidates, key, found, _SLP_MEMO_CAP)
        return list(found)

    def conflicts(self, candidates: list[Candidate]) -> set[frozenset[int]]:
        """:func:`conflict_matrix` of ``candidates``, as a fresh set."""
        key = tuple(candidates)
        found = self._conflicts.get(key)
        if found is None:
            found = frozenset(conflict_matrix(candidates, self.deps))
            remember(self._conflicts, key, found, _SLP_MEMO_CAP)
        return set(found)

    def select(
        self,
        candidates: list[Candidate],
        conflicts: set[frozenset[int]],
        items: list[PackItem],
        on_select: Callable[[Candidate], None] | None = None,
        stats: SelectionStats | None = None,
    ) -> list[Candidate]:
        """:func:`select_groups` with this block's estimator (memoized)."""
        key = (tuple(candidates), frozenset(conflicts), tuple(items))
        found = self._selections.get(key)
        if found is None:
            counted = SelectionStats()
            selected = select_groups(
                candidates, conflicts, self.estimator, items, on_select,
                counted,
            )
            found = (tuple(selected), counted.benefit_evaluations)
            remember(self._selections, key, found, _SLP_MEMO_CAP)
        elif on_select is not None:
            for chosen in found[0]:
                on_select(chosen)
        selected, evaluations = found
        if stats is not None:
            stats.benefit_evaluations += evaluations
            stats.candidates_selected += len(selected)
        return list(selected)


def block_slp(program: Program, block: BasicBlock) -> BlockSlp:
    """The :class:`BlockSlp` of ``program``'s ``block``, built once
    (see :func:`~repro.ir.program.block_memo`)."""
    return block_memo(
        program, block, "slp", lambda own: BlockSlp(program, own)
    )


def merge_items(items: list[PackItem], selected: list[Candidate]) -> list[PackItem]:
    """Collapse selected candidates into combined items (widening)."""
    consumed: set[PackItem] = set()
    for candidate in selected:
        if candidate.left in consumed or candidate.right in consumed:
            raise SLPError(
                f"selection is not conflict-free around {candidate}"
            )
        consumed.add(candidate.left)
        consumed.add(candidate.right)
    merged: list[PackItem] = [candidate.lanes for candidate in selected]
    remaining = [item for item in items if item not in consumed]
    return merged + remaining


def build_group_set(
    block: BasicBlock,
    items: list[PackItem],
    program: Program,
    spec: FixedPointSpec,
) -> GroupSet:
    """Materialize items of size >= 2 into a :class:`GroupSet`.

    Lane word length is read back from the specification, which both
    front ends maintain as the single source of truth.
    """
    groups = GroupSet(block.name)
    gid = 0
    for item in items:
        if len(item) < 2:
            continue
        kind = program.op(item[0]).kind
        groups.add(SIMDGroup(gid, block.name, kind, item, spec.wl(item[0])))
        gid += 1
    return groups


# ----------------------------------------------------------------------
# Decoupled (accuracy-blind) extraction — the WLO-First baseline
# ----------------------------------------------------------------------
def _decoupled_legal(
    candidate: Candidate,
    program: Program,
    spec: FixedPointSpec,
    word_lengths: WordLengths,
) -> bool:
    """Legality under fixed, already-optimized word lengths.

    All lanes must share one word length ``w`` that is a SIMD width
    with ``w * size <= datapath``; multiply lanes additionally need
    operand producers no wider than ``w`` (a vector multiply cannot
    consume more operand precision than its lane width, and narrowing
    operands post-WLO would change the accuracy the baseline already
    signed off on).
    """
    wls = {spec.wl(opid) for opid in candidate.lanes}
    if len(wls) != 1:
        return False
    w = wls.pop()
    if (
        w not in word_lengths.simd_widths
        or w * candidate.size > word_lengths.scalar_wl
    ):
        return False
    if candidate.kind is OpKind.MUL:
        for opid in candidate.lanes:
            for producer in program.op(opid).operands:
                if spec.wl(producer) > w:
                    return False
    return True


def extract_groups_decoupled(
    program: Program,
    block: BasicBlock,
    spec: FixedPointSpec,
    word_lengths: WordLengths,
    stats: SelectionStats | None = None,
) -> GroupSet:
    """SLP extraction that takes the spec as immutable input (Fig. 5).

    ``word_lengths`` is the target's
    :class:`~repro.targets.model.WordLengths`.
    """
    slp = block_slp(program, block)
    items = initial_items(block)
    while True:
        candidates = [
            candidate
            for candidate in slp.candidates(items, word_lengths)
            if _decoupled_legal(candidate, program, spec, word_lengths)
        ]
        if stats is not None:
            stats.rounds += 1
            stats.candidates_seen += len(candidates)
        if not candidates:
            break
        conflicts = slp.conflicts(candidates)
        if stats is not None:
            stats.structural_conflicts += len(conflicts)
        selected = slp.select(candidates, conflicts, items, stats=stats)
        if not selected:
            break
        items = merge_items(items, selected)
    return build_group_set(block, items, program, spec)
