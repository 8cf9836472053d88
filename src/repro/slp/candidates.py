"""SIMD group candidate extraction.

A *candidate* pairs two packing items (initially single operations;
after a selection round, previously selected groups) into a potential
group of twice the size, following Liu et al.'s iterative widening.
Structural requirements: isomorphic kinds, pairwise independence
between all lanes, a supported lane word length for the combined size
(paper eq. (1)), and same-array accesses for memory ops.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.block import BasicBlock
from repro.ir.deps import DependenceGraph
from repro.ir.optypes import SIMDIZABLE_KINDS, OpKind
from repro.ir.program import Program
from repro.targets.model import WordLengths

__all__ = ["Candidate", "PackItem", "initial_items", "extract_candidates"]

#: A packing item: an ordered tuple of op ids (size 1 = scalar op).
PackItem = tuple[int, ...]


@dataclass(frozen=True)
class Candidate:
    """A potential SIMD group built from two packing items."""

    left: PackItem
    right: PackItem
    kind: OpKind
    #: Lane word length for the combined size (eq. (1)).
    wl: int

    @property
    def lanes(self) -> tuple[int, ...]:
        return self.left + self.right

    @property
    def size(self) -> int:
        return len(self.left) + len(self.right)

    def shares_op_with(self, other: "Candidate") -> bool:
        return bool(set(self.lanes) & set(other.lanes))

    def __str__(self) -> str:
        return f"{self.kind.value}{list(self.lanes)}@{self.wl}b"


def initial_items(block: BasicBlock) -> list[PackItem]:
    """Singleton packing items: every SIMDizable op of the block."""
    return [
        (op.opid,) for op in block.ops if op.kind in SIMDIZABLE_KINDS
    ]


def _items_isomorphic(
    program: Program, left: PackItem, right: PackItem
) -> OpKind | None:
    """Common op kind when the two items can share an instruction."""
    first = program.op(left[0])
    for opid in left + right:
        op = program.op(opid)
        if not first.isomorphic_to(op):
            return None
        if first.touches_memory and op.array != first.array:
            # Lanes of one vector memory access live in one array.
            return None
    return first.kind


def _items_independent(
    deps: DependenceGraph, left: PackItem, right: PackItem
) -> bool:
    for a in left:
        for b in right:
            if not deps.independent(a, b):
                return False
    return True


def extract_candidates(
    program: Program,
    items: list[PackItem],
    deps: DependenceGraph,
    word_lengths: WordLengths,
) -> list[Candidate]:
    """All structurally valid candidates over the current items.

    Items are combined in program (id) order — the natural lane order
    for the generated kernels, where ascending ids follow ascending
    memory addresses.  Only equal-size items combine, so widening
    proceeds 1+1 -> 2, 2+2 -> 4, matching the paper's size-doubling
    extension loop.
    """
    out: list[Candidate] = []
    n = len(items)
    for i in range(n):
        left = items[i]
        for j in range(i + 1, n):
            right = items[j]
            if len(left) != len(right):
                continue
            wl = word_lengths.group_wl(len(left) + len(right))
            if wl is None:
                continue
            kind = _items_isomorphic(program, left, right)
            if kind is None:
                continue
            if not _items_independent(deps, left, right):
                continue
            ordered = (left, right) if left[0] < right[0] else (right, left)
            out.append(Candidate(ordered[0], ordered[1], kind, wl))
    return out
