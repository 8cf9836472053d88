"""Conflict detection between SIMD group candidates.

Two candidates conflict when they cannot both be realized:

* **common operation** — an op can live in only one group;
* **cyclic dependency** — some lane of A depends on a lane of B *and*
  some lane of B depends on a lane of A, so neither group can be
  scheduled atomically before the other.

The accuracy-aware variant of the paper (Fig. 1c lines 14-25) adds a
third class — joint selection violates the accuracy constraint — which
lives in ``repro.slp.accuracy_aware`` because it needs the spec and
the accuracy model.
"""

from __future__ import annotations

from repro.ir.deps import DependenceGraph
from repro.slp.candidates import Candidate

__all__ = [
    "have_common_op",
    "have_cyclic_dependency",
    "structural_conflict",
    "conflict_matrix",
]


def have_common_op(a: Candidate, b: Candidate) -> bool:
    """True when the candidates share an operation."""
    return a.shares_op_with(b)


def have_cyclic_dependency(
    a: Candidate, b: Candidate, deps: DependenceGraph
) -> bool:
    """True when grouping both would create a group-level cycle."""
    a_reaches_b = any(
        deps.depends(lb, la) for la in a.lanes for lb in b.lanes
    )
    if not a_reaches_b:
        return False
    return any(
        deps.depends(la, lb) for la in a.lanes for lb in b.lanes
    )


def structural_conflict(
    a: Candidate, b: Candidate, deps: DependenceGraph
) -> bool:
    """Common-op or cyclic-dependency conflict."""
    return have_common_op(a, b) or have_cyclic_dependency(a, b, deps)


def conflict_matrix(
    candidates: list[Candidate], deps: DependenceGraph
) -> set[frozenset[int]]:
    """All structurally conflicting index pairs among ``candidates``.

    Set-based twin of :func:`structural_conflict`: each candidate's
    lanes and the descendants of its lanes are built once, so a pair
    costs a few set intersections instead of a lanes × lanes scan.
    """
    lanes = [frozenset(c.lanes) for c in candidates]
    reach = [
        frozenset().union(*(deps.descendants(op) for op in c.lanes))
        for c in candidates
    ]
    conflicts: set[frozenset[int]] = set()
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            if not lanes[i].isdisjoint(lanes[j]) or (
                not reach[i].isdisjoint(lanes[j])
                and not reach[j].isdisjoint(lanes[i])
            ):
                conflicts.add(frozenset((i, j)))
    return conflicts
