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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import SLPError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.deps import build_dependence_graph
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.slp.benefit import BenefitEstimator
from repro.slp.candidates import (
    Candidate,
    PackItem,
    extract_candidates,
    initial_items,
)
from repro.slp.conflicts import conflict_matrix
from repro.slp.groups import GroupSet, SIMDGroup
from repro.targets.model import TargetModel

__all__ = [
    "DEFAULT_MIN_BENEFIT",
    "SelectionStats",
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
    target: TargetModel,
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
    if w not in target.simd_widths or w * candidate.size > target.scalar_wl:
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
    target: TargetModel,
    stats: SelectionStats | None = None,
) -> GroupSet:
    """SLP extraction that takes the spec as immutable input (Fig. 5)."""
    deps = build_dependence_graph(block)
    estimator = BenefitEstimator(program, block)
    items = initial_items(block)
    while True:
        candidates = [
            candidate
            for candidate in extract_candidates(program, items, deps, target)
            if _decoupled_legal(candidate, program, spec, target)
        ]
        if stats is not None:
            stats.rounds += 1
            stats.candidates_seen += len(candidates)
        if not candidates:
            break
        conflicts = conflict_matrix(candidates, deps)
        if stats is not None:
            stats.structural_conflicts += len(conflicts)
        selected = select_groups(
            candidates, conflicts, estimator, items, stats=stats
        )
        if not selected:
            break
        items = merge_items(items, selected)
    return build_group_set(block, items, program, spec)
