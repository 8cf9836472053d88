"""Candidate benefit estimation (Liu et al.'s reuse/cost ratio).

The benefit of selecting a candidate is its contribution to overall
*superword reuse* divided by the *packing/unpacking cost* it incurs
(paper Sections II-A and III-B).  The estimate mirrors the cost rules
of the SIMD lowering (``repro.codegen.simd``) so that what the
selector prefers is what the cycle model rewards:

* operands produced lane-exactly by another group/candidate: free
  (vector register reuse);
* operands that are contiguous same-array loads: vector-loadable;
* the loop-carried accumulator pattern (lanes read variables that the
  same lanes write back): the vector lives in a register across
  iterations — free, and highly reusable;
* everything else must be packed (lane inserts), and lanes consumed by
  scalar ops outside any group must be unpacked (extracts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.block import BasicBlock
from repro.ir.deps import is_loop_invariant_load
from repro.ir.optypes import ARITHMETIC_KINDS, OpKind
from repro.ir.program import Program
from repro.slp.candidates import Candidate, PackItem
from repro.slp.groups import memory_lane_stride

__all__ = ["BenefitEstimator", "BenefitPool"]

#: Relative reuse credit of a match against an already-formed item
#: versus a still-tentative candidate.
_ITEM_WEIGHT = 1.0
_CANDIDATE_WEIGHT = 0.75


@dataclass(frozen=True)
class BenefitPool:
    """What every score of one selection round reads, built once.

    ``credit`` maps a lane tuple to the summed reuse credit of the items
    (1.0 each) and candidates (0.75 each) consuming it lane-exactly as
    an operand, one credit per matching operand position.

    Including the scored candidate's own lanes in ``candidates`` and
    ``credit`` changes no score: an op is never its own operand, so a
    candidate never consumes its own lanes, and its operand tuples are
    longer than the half-vectors :meth:`BenefitEstimator._broken_half_reuse`
    looks up.  The credits are sums of 1.0 and 0.75, exact in binary
    floating point, so their order does not matter either.
    """

    items: set[PackItem]
    candidates: set[tuple[int, ...]]
    credit: dict[tuple[int, ...], float]


@dataclass
class BenefitEstimator:
    """Benefit oracle for one basic block."""

    program: Program
    block: BasicBlock
    #: op -> list of (consumer opid, operand position) within the block.
    _consumers: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    #: producer opid -> variable written from it (WRITEVAR value edges).
    _feeds_var: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for op in self.block.ops:
            for pos, producer in enumerate(op.operands):
                self._consumers.setdefault(producer, []).append((op.opid, pos))
            if op.kind is OpKind.WRITEVAR:
                self._feeds_var[op.operands[0]] = op.var  # type: ignore[assignment]

    # ------------------------------------------------------------------
    def pool(
        self, candidates: list[Candidate], items: list[PackItem]
    ) -> BenefitPool:
        """The reuse context of one selection round (see :class:`BenefitPool`)."""
        item_tuples = set(items)
        cand_tuples = {c.lanes for c in candidates}
        credit: dict[tuple[int, ...], float] = {}
        for consumers, weight in (
            (item_tuples, _ITEM_WEIGHT),
            (cand_tuples, _CANDIDATE_WEIGHT),
        ):
            for other in consumers:
                arity = len(self.program.op(other[0]).operands)
                for pos in range(arity):
                    producers = tuple(
                        self.program.op(o).operands[pos] for o in other
                    )
                    credit[producers] = credit.get(producers, 0.0) + weight
        return BenefitPool(item_tuples, cand_tuples, credit)

    def benefit(
        self,
        candidate: Candidate,
        candidates: list[Candidate],
        items: list[PackItem],
        pool: BenefitPool | None = None,
    ) -> float:
        """Reuse-over-cost score of ``candidate`` in the current state.

        ``pool`` is :meth:`pool` of ``(candidates, items)``, prebuilt by
        a caller scoring many candidates against one state; without it
        the pool is built here.
        """
        if pool is None:
            pool = self.pool(candidates, items)
        lanes = candidate.lanes
        n = candidate.size
        reuse = 0.0
        pack_cost = 0.0
        unpack_cost = 0.0

        if candidate.kind in (OpKind.LOAD, OpKind.STORE):
            if candidate.kind is OpKind.LOAD and all(
                is_loop_invariant_load(self.program, self.program.op(opid))
                for opid in lanes
            ):
                reuse += 1.0  # hoisted: the vector is packed once, free
            else:
                stride = memory_lane_stride(self.program, lanes)
                if stride == 1:
                    reuse += 1.0
                elif stride == -1:
                    pack_cost += 0.5  # one permute after the vector access
                else:
                    pack_cost += n - 1  # gather / scatter
        if candidate.kind in ARITHMETIC_KINDS or candidate.kind is OpKind.STORE:
            arity = len(self.program.op(lanes[0]).operands)
            for pos in range(arity):
                producers = tuple(
                    self.program.op(opid).operands[pos] for opid in lanes
                )
                reuse_gain, cost = self._operand_cost(lanes, producers, pool)
                reuse += reuse_gain
                pack_cost += cost

        if candidate.kind is not OpKind.STORE:
            r_gain, u_cost = self._result_cost(lanes, pool)
            reuse += r_gain
            unpack_cost += u_cost

        saved_issue_slots = 0.5 * (n - 1)
        return (saved_issue_slots + reuse) / (1.0 + pack_cost + unpack_cost)

    # ------------------------------------------------------------------
    def _operand_cost(
        self,
        lanes: tuple[int, ...],
        producers: tuple[int, ...],
        pool: BenefitPool,
    ) -> tuple[float, float]:
        """(reuse gained, pack cost) of one vector operand."""
        n = len(lanes)
        if producers in pool.items:
            return _ITEM_WEIGHT, 0.0
        if producers in pool.candidates:
            supply = [self.program.op(p) for p in producers]
            if all(op.kind is OpKind.LOAD for op in supply):
                stride = memory_lane_stride(self.program, producers)
                if stride not in (1, -1) and not all(
                    is_loop_invariant_load(self.program, op) for op in supply
                ):
                    # The feeding candidate is itself a gather: its
                    # packing cost would land on this chain.
                    return 0.25, 0.0
            return _CANDIDATE_WEIGHT, 0.0
        ops = [self.program.op(p) for p in producers]
        if all(
            op.kind is OpKind.CONST or is_loop_invariant_load(self.program, op)
            for op in ops
        ):
            return 0.25, 0.0  # loop-invariant splat, packed once
        if all(op.kind is OpKind.LOAD for op in ops):
            stride = memory_lane_stride(self.program, producers)
            if stride == 1:
                return 0.5, 0.0  # one vector load feeds the lanes
            return 0.0, float(n - 1)
        if self._is_loop_carried_accumulator(lanes, producers):
            return _ITEM_WEIGHT, 0.0
        if self._single_item_source(producers, pool.items):
            return 0.25, 1.0  # one permute/lane-select op
        return 0.0, float(n - 1)

    def _single_item_source(
        self, producers: tuple[int, ...], items: set[PackItem]
    ) -> bool:
        """All producers are lanes of one existing wider item."""
        produced = set(producers)
        for item in items:
            if len(item) > len(producers) and produced <= set(item):
                return True
        return False

    def _is_loop_carried_accumulator(
        self, lanes: tuple[int, ...], producers: tuple[int, ...]
    ) -> bool:
        """Lanes read variables that the same lanes write back.

        This is the ``vacc += vmul`` reduction pattern: the packed
        accumulator never leaves its vector register across loop
        iterations, so consuming it costs nothing.
        """
        for lane, producer in zip(lanes, producers):
            op = self.program.op(producer)
            if op.kind is not OpKind.READVAR:
                return False
            if self._feeds_var.get(lane) != op.var:
                return False
        return True

    def _result_cost(
        self, lanes: tuple[int, ...], pool: BenefitPool
    ) -> tuple[float, float]:
        """(reuse gained, unpack cost) of the candidate's result.

        Vector consumers (an item or candidate whose operand lanes are
        exactly these lanes) earn reuse credit; loop-carried write-backs
        keep the result in its vector register; any remaining scalar
        consumer forces an extract per use (capped at the lane count —
        a full unpack).
        """
        reuse = pool.credit.get(lanes, 0.0)
        scalar_uses = 0
        for lane in lanes:
            for consumer, _pos in self._consumers.get(lane, ()):
                cop = self.program.op(consumer)
                if cop.kind is OpKind.WRITEVAR and self._reads_var_somewhere(
                    lanes, cop.var
                ):
                    continue  # stays packed across iterations
                scalar_uses += 1
        unpack = 0.0
        if reuse == 0.0 and scalar_uses:
            unpack = float(min(scalar_uses, len(lanes)))
        if reuse == 0.0:
            # Widening a vector whose *halves* are currently consumed
            # lane-exactly breaks working superword reuse: consumers
            # would have to extract their lanes back out.  Charge the
            # repacking this forces on them.
            unpack += self._broken_half_reuse(lanes, pool)
        return reuse, unpack

    def _broken_half_reuse(
        self, lanes: tuple[int, ...], pool: BenefitPool
    ) -> float:
        if len(lanes) < 4:
            return 0.0
        half = len(lanes) // 2
        penalty = 0.0
        for part in (lanes[:half], lanes[half:]):
            if part in pool.credit:
                penalty += float(half)
        return penalty

    def _reads_var_somewhere(self, lanes: tuple[int, ...], var: str | None) -> bool:
        if var is None:
            return False
        for lane in lanes:
            for producer in self.program.op(lane).operands:
                pop = self.program.op(producer)
                if pop.kind is OpKind.READVAR and pop.var == var:
                    return True
        return False
