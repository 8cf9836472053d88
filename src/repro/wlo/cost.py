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

    def cost(self, spec: FixedPointSpec) -> float:
        """Execution-time estimate of ``spec`` under the WL-relative model."""
        relative = self._relative
        wls = np.minimum(spec.wl_vector()[self._opids], len(relative) - 1)
        total = 0.0
        for weight, wl in zip(self._weights, wls.tolist()):
            total += weight * relative[wl]
        return total


def wl_relative_cost(
    program: Program, spec: FixedPointSpec, word_lengths: WordLengths
) -> float:
    """One-shot :meth:`WlCostTable.cost`; searches build the table once."""
    return WlCostTable(program, word_lengths).cost(spec)
