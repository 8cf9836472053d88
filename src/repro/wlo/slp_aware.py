"""SLP-aware word-length optimization (paper Fig. 1a) — the
contribution of the reproduced paper.

Joint algorithm: start from maximum word lengths (the most accurate
natively supported spec, and the one with least SLP); process basic
blocks in execution-count priority order; inside each block run the
accuracy-aware SLP extraction (Fig. 1c) repeatedly, widening groups as
long as new selections land; then uniformize scaling shifts
(SCALOPTIM, Fig. 1b).  Word lengths are *derived from grouping
decisions* via eq. (1) rather than searched independently — this is
what makes the accuracy budget land exactly on the operations SIMD can
exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accuracy.analytical import AccuracyModel
from repro.errors import WLOError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.program import Program
from repro.slp.accuracy_aware import set_group_wl, slp_round_accuracy_aware
from repro.slp.candidates import initial_items
from repro.slp.extraction import (
    SelectionStats,
    build_group_set,
    merge_items,
)
from repro.slp.groups import GroupSet
from repro.targets.model import WordLengths
from repro.wlo.boundary import harmonize_boundary_wls
from repro.wlo.continuation import apply_warm_start
from repro.wlo.scaling import ScalingStats, optimize_scalings

__all__ = ["JointWarmStart", "WloSlpOutcome", "wlo_slp_optimize"]


@dataclass
class JointWarmStart:
    """A neighboring constraint's joint solution, usable as a seed.

    The joint engine's state is richer than a word-length vector: the
    grouping *partition* drives the word lengths (eq. (1)), so a
    useful continuation carries both — the final root → WL assignment
    and the per-block group sets of the seeding cell.

    ``partition_safe`` is the adoption guard.  A partition is safe to
    reuse at a *looser* constraint only when the seeding run's
    selection saw **zero** accuracy rejections and **zero** accuracy
    conflicts: then the seed's partition is purely structural/benefit
    driven, and since a looser constraint's accuracy guard rejects a
    subset of what the stricter one did (same spec trajectory, more
    noise headroom), the looser cold extraction would commit the
    *identical* partition — adoption merely skips its accuracy checks.
    A partition shaped by accuracy (rejections or conflicts at the
    stricter constraint) can lock in lane pairings a looser cold run
    would not choose, violating the cost ≤ cold quality contract, so
    the engine ignores unsafe seeds entirely.
    """

    wls: dict[int, int]
    groups: dict[str, GroupSet]
    partition_safe: bool = False


@dataclass
class WloSlpOutcome:
    """Result of the joint optimization: groups per block + statistics."""

    groups: dict[str, GroupSet] = field(default_factory=dict)
    selection: SelectionStats = field(default_factory=SelectionStats)
    scaling: ScalingStats = field(default_factory=ScalingStats)
    boundary_moves: int = 0
    #: Whether the optimization actually continued from a warm-start
    #: seed (``False`` for cold runs and rejected seeds alike).
    warm_start: bool = False

    @property
    def n_groups(self) -> int:
        return sum(len(gs) for gs in self.groups.values())

    def groups_of(self, block: str) -> GroupSet:
        return self.groups[block]


def wlo_slp_optimize(
    program: Program,
    spec: FixedPointSpec,
    model: AccuracyModel,
    word_lengths: WordLengths,
    constraint_db: float,
    harmonize: bool = True,
    scaloptim: bool = True,
    accuracy_conflicts: bool = True,
    warm_start: JointWarmStart | None = None,
) -> WloSlpOutcome:
    """Run the joint WLO + SLP extraction, mutating ``spec`` in place.

    ``harmonize`` enables the boundary word-length pass (see
    ``repro.wlo.boundary``); it only ever narrows ungrouped nodes under
    the accuracy guard.  ``scaloptim`` and ``accuracy_conflicts`` turn
    off Fig. 1b and the accuracy-conflict class of Fig. 1c for the
    ablation benchmarks.  Raises :class:`WLOError` when the constraint
    is infeasible even at maximum word lengths (nothing any WLO could
    do).

    ``warm_start`` (a stricter neighboring constraint's joint solution)
    seeds both halves of the joint state when it is marked
    ``partition_safe``, usable and feasible here: the word lengths
    replace the all-max start, and each block's SLP rounds continue
    from the seed's *partition* (its groups become pre-merged pack
    items) instead of from singletons, so the rounds only explore
    merges the neighbor hadn't already committed to.  An unsafe,
    unusable or infeasible seed falls back to the cold start — see
    :class:`JointWarmStart` for why unsafe partitions must not be
    adopted.
    """
    for root in spec.slotmap.roots:
        spec.set_wl(root, word_lengths.max_wl)
    if model.violates(spec, constraint_db):
        raise WLOError(
            f"accuracy constraint {constraint_db} dB is infeasible at "
            f"{word_lengths.max_wl}-bit word lengths"
        )
    warm = False
    if warm_start is not None and warm_start.partition_safe:
        token = spec.save()
        supported = sorted(word_lengths.supported_wls)
        if apply_warm_start(spec, warm_start.wls, supported):
            # A node-WL assignment alone under-states the seed: SETMAXWL
            # also narrowed the multiply *operand edges* of every group
            # lane (pack-boundary narrowing).  Re-apply it per adopted
            # group so the seeded spec — and hence the feasibility check
            # below — matches the state the seed finished in.
            for group_set in warm_start.groups.values():
                for group in group_set:
                    set_group_wl(spec, program, group.lanes, group.wl)
            if not model.violates(spec, constraint_db):
                warm = True
        if not warm:
            spec.revert(token)

    outcome = WloSlpOutcome(warm_start=warm)
    for block in program.blocks_by_priority():
        items = initial_items(block)
        if warm:
            items = _adopt_items(items, warm_start.groups.get(block.name))
        if len(items) < 2 or word_lengths.max_group_size < 2:
            # An adopted partition can collapse a tiny block to a single
            # merged item; materialize it instead of dropping the group.
            # (Cold runs only reach here with singletons — empty set.)
            group_set = build_group_set(block, items, program, spec)
            if scaloptim and len(group_set):
                scaling = optimize_scalings(
                    program, spec, model, constraint_db, group_set
                )
                _merge_scaling_stats(outcome.scaling, scaling)
            outcome.groups[block.name] = group_set
            continue
        while True:
            selected = slp_round_accuracy_aware(
                program, block, items, word_lengths, spec, model,
                constraint_db, outcome.selection,
                accuracy_conflicts=accuracy_conflicts,
            )
            if not selected:
                break
            items = merge_items(items, selected)
        group_set = build_group_set(block, items, program, spec)
        if scaloptim:
            scaling = optimize_scalings(
                program, spec, model, constraint_db, group_set
            )
            _merge_scaling_stats(outcome.scaling, scaling)
        outcome.groups[block.name] = group_set
    if harmonize:
        all_groups = [
            group
            for group_set in outcome.groups.values()
            for group in group_set
        ]
        grouped_ops = {opid for group in all_groups for opid in group.lanes}
        outcome.boundary_moves = harmonize_boundary_wls(
            program, spec, model, word_lengths, constraint_db, grouped_ops,
            groups=all_groups,
        )
        # Group word lengths may have moved below their eq. (1) maxima:
        # refresh the (frozen) group records from the spec.
        outcome.groups = {
            name: _refresh_group_wls(group_set, spec)
            for name, group_set in outcome.groups.items()
        }
        if scaloptim:
            # Boundary moves may have changed reuse-edge shift vectors;
            # give SCALOPTIM a second look at each block.
            for group_set in outcome.groups.values():
                scaling = optimize_scalings(
                    program, spec, model, constraint_db, group_set
                )
                _merge_scaling_stats(outcome.scaling, scaling)
    return outcome


def _adopt_items(
    items: list[tuple[int, ...]], group_set: GroupSet | None
) -> list[tuple[int, ...]]:
    """Pre-merge singleton items into a seeding cell's partition.

    Every adopted group's lanes become one multi-lane pack item; the
    block's remaining SIMDizable ops stay singletons, so subsequent
    extraction rounds only explore merges the seed hadn't committed.
    Ops the seed grouped but this block no longer exposes (impossible
    for identical programs, cheap to guard) invalidate that group only.
    """
    if group_set is None or not len(group_set):
        return items
    available = {item[0] for item in items}
    merged: list[tuple[int, ...]] = []
    grouped: set[int] = set()
    for group in group_set:
        lanes = tuple(group.lanes)
        if any(opid not in available for opid in lanes):
            continue
        merged.append(lanes)
        grouped.update(lanes)
    return merged + [item for item in items if item[0] not in grouped]


def _refresh_group_wls(group_set: GroupSet, spec: FixedPointSpec) -> GroupSet:
    from repro.slp.groups import SIMDGroup

    refreshed = GroupSet(group_set.block)
    for group in group_set:
        refreshed.add(SIMDGroup(
            group.gid, group.block, group.kind, group.lanes,
            spec.wl(group.lanes[0]),
        ))
    return refreshed


def _merge_scaling_stats(total: ScalingStats, part: ScalingStats) -> None:
    total.reuse_edges += part.reuse_edges
    total.already_uniform += part.already_uniform
    total.fixed_producer_side += part.fixed_producer_side
    total.fixed_consumer_side += part.fixed_consumer_side
    total.rejected_by_accuracy += part.rejected_by_accuracy
    total.skipped_negative += part.skipped_negative
    total.skipped_untieable += part.skipped_untieable
