"""Word-length-relative cost model for the decoupled WLO baselines.

Menard et al.'s assumption (paper Section II-B / V-A): the relative
execution time of an instruction is proportional to the word length it
operates on — a 32-bit scalar op costs 1, a 16-bit op costs 0.5
(because a 2x16 SIMD instruction *would* retire two of them), an 8-bit
op 0.25.  This is precisely the "very optimistic and unrealistic"
assumption the paper criticizes: it prices SIMD without knowing
whether grouping is possible or what packing would cost.  We implement
it faithfully because the WLO-First baseline needs it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.targets.model import WordLengths

__all__ = ["WlCostTable", "wl_relative_cost"]

#: Op kinds that translate into machine instructions (register moves
#: and constants do not).
_COSTING_KINDS = frozenset({
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.MIN, OpKind.MAX,
    OpKind.NEG, OpKind.ABS, OpKind.LOAD, OpKind.STORE,
})


class WlCostTable:
    """The WL-relative cost model of one (program, word lengths), built once.

    Each costing operation contributes ``executions * wl/datapath``: at
    32 bits the full op, at 16 bits half (assuming perfect 2x16
    SIMDization), at 8 bits a quarter.  Word lengths outside the
    supported set are charged at the next wider supported width.

    The table holds the costing op ids in block order, their block
    weights and the effective relative cost per word length, so a
    search pricing thousands of moves walks the program once.
    :meth:`cost` adds the terms in that fixed order, so it returns the
    same float as a walk over the blocks.

    :meth:`move_costs` prices single-root moves from per-root weights
    instead.  When every relative cost is a dyadic rational (a power of
    two in its reduced denominator) and the total weight times the
    largest relative cost and the largest denominator stays below
    2^53, every term and every partial sum is exact in float64, in any
    order, so a delta equals the walk bit for bit; the table checks
    that once (:attr:`exact_deltas`) and prices moves with the walk
    otherwise (e.g. a 48-bit datapath, whose 16-bit lanes cost 1/3).
    """

    def __init__(self, program: Program, word_lengths: WordLengths) -> None:
        supported = sorted(word_lengths.supported_wls)
        costing = [
            (op.opid, float(block.executions))
            for block in program.blocks.values()
            for op in block.ops
            if op.kind in _COSTING_KINDS
        ]
        self._opids = np.array([opid for opid, _ in costing], dtype=np.int64)
        self._weights = [weight for _, weight in costing]
        #: Relative cost by word length; a word length wider than every
        #: supported width is charged at the widest (the last entry).
        self._relative = [
            next(w for w in supported if w >= wl) / word_lengths.scalar_wl
            for wl in range(supported[-1] + 1)
        ]
        self._relative_array = np.array(self._relative)
        ratios = [Fraction(w, word_lengths.scalar_wl) for w in supported]
        denominator = max(r.denominator for r in ratios)
        #: Whether :meth:`move_costs` may price a move by its delta.
        self.exact_deltas = (
            all(r.denominator & (r.denominator - 1) == 0 for r in ratios)
            and sum(map(int, self._weights)) * max(ratios) * denominator
            < 2 ** 53
        )
        self._root_weights: np.ndarray | None = None

    def cost(self, spec: FixedPointSpec) -> float:
        """Execution-time estimate of ``spec`` under the WL-relative model."""
        relative = self._relative
        wls = np.minimum(spec.wl_vector()[self._opids], len(relative) - 1)
        total = 0.0
        for weight, wl in zip(self._weights, wls.tolist()):
            total += weight * relative[wl]
        return total

    def move_costs(
        self,
        spec: FixedPointSpec,
        roots: Sequence[int],
        wls: Sequence[int],
        current: float,
    ) -> np.ndarray:
        """Cost of ``spec`` after each single-root move, bit-identical to
        :meth:`cost` of the moved spec.

        Move ``m`` sets tie-group root ``roots[m]`` to word length
        ``wls[m]``; ``current`` must be ``cost(spec)``.  With exact
        deltas a move costs ``current - W rel[from] + W rel[to]``, where
        ``W`` is the summed executions of the root's costing ops;
        otherwise each move is priced by a walk.  ``spec`` is left as
        it was.
        """
        if not self.exact_deltas:
            priced = []
            for root, wl in zip(roots, wls):
                token = spec.save()
                spec.set_wl(root, wl)
                priced.append(self.cost(spec))
                spec.revert(token)
            return np.array(priced, dtype=np.float64)
        if self._root_weights is None:
            # Any slot map of the program ties the same ops together.
            self._root_weights = np.bincount(
                spec.slotmap.root[self._opids],
                weights=self._weights,
                minlength=spec.slotmap.n_slots,
            )
        roots = spec.slotmap.root[np.asarray(roots, dtype=np.int64)]
        widest = len(self._relative) - 1
        weight = self._root_weights[roots]
        before = np.minimum(spec.wl_vector()[roots], widest)
        after = np.minimum(np.asarray(wls, dtype=np.int64), widest)
        relative = self._relative_array
        return current - weight * relative[before] + weight * relative[after]


def wl_relative_cost(
    program: Program, spec: FixedPointSpec, word_lengths: WordLengths
) -> float:
    """One-shot :meth:`WlCostTable.cost`; searches build the table once."""
    return WlCostTable(program, word_lengths).cost(spec)
