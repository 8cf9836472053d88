"""Superword-level parallelism extraction."""

from repro.slp.accuracy_aware import set_group_wl, slp_round_accuracy_aware
from repro.slp.benefit import BenefitEstimator, BenefitPool
from repro.slp.candidates import (
    Candidate,
    PackItem,
    extract_candidates,
    initial_items,
)
from repro.slp.conflicts import (
    conflict_matrix,
    have_common_op,
    have_cyclic_dependency,
    structural_conflict,
)
from repro.slp.extraction import (
    BlockSlp,
    SelectionStats,
    block_slp,
    build_group_set,
    extract_groups_decoupled,
    merge_items,
    select_groups,
)
from repro.slp.groups import GroupSet, SIMDGroup, memory_lane_stride

__all__ = [
    "BenefitEstimator",
    "BenefitPool",
    "BlockSlp",
    "Candidate",
    "GroupSet",
    "PackItem",
    "SIMDGroup",
    "SelectionStats",
    "block_slp",
    "build_group_set",
    "conflict_matrix",
    "extract_candidates",
    "extract_groups_decoupled",
    "have_common_op",
    "have_cyclic_dependency",
    "initial_items",
    "memory_lane_stride",
    "merge_items",
    "select_groups",
    "set_group_wl",
    "structural_conflict",
    "slp_round_accuracy_aware",
]
