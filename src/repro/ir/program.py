"""Whole-program IR container.

A :class:`Program` owns the symbol tables, the basic blocks, and the
*loop tree* describing how blocks nest inside counted loops.  The loop
tree is the only control flow in the IR — exactly the structured,
compile-time-counted loops of the paper's DSP kernels — which keeps the
interpreter, the cycle model and the accuracy analysis simple and
mutually consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, TypeVar, Union

import numpy as np

from repro.errors import InterpreterError, IRError
from repro.ir.block import BasicBlock
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.symbols import ArrayDecl, SymbolKind, VarDecl

__all__ = ["BlockRef", "LoopNode", "Program", "block_memo", "flat_index"]

T = TypeVar("T")


@dataclass
class BlockRef:
    """Leaf of the loop tree: run the named block once."""

    name: str


@dataclass
class LoopNode:
    """Counted loop: run ``body`` for ``var`` = 0 .. trip-1."""

    var: str
    trip: int
    body: list[Union["LoopNode", BlockRef]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.trip <= 0:
            raise IRError(f"loop {self.var!r}: trip count must be positive")


ScheduleItem = Union[LoopNode, BlockRef]


@dataclass
class Program:
    """A complete kernel: symbols, blocks and loop structure."""

    name: str
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    variables: dict[str, VarDecl] = field(default_factory=dict)
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    schedule: list[ScheduleItem] = field(default_factory=list)

    # Populated by finalize():
    _ops_by_id: dict[int, Operation] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def finalize(self) -> "Program":
        """Index operations and annotate blocks with loop context."""
        self._ops_by_id = {}
        for block in self.blocks.values():
            for op in block.ops:
                if op.opid in self._ops_by_id:
                    raise IRError(f"duplicate opid {op.opid}")
                self._ops_by_id[op.opid] = op
        self._annotate_loop_context(self.schedule, (), ())
        return self

    def _annotate_loop_context(
        self,
        items: list[ScheduleItem],
        loop_vars: tuple[str, ...],
        trips: tuple[int, ...],
    ) -> None:
        for item in items:
            if isinstance(item, BlockRef):
                if item.name not in self.blocks:
                    raise IRError(f"schedule references unknown block {item.name!r}")
                block = self.blocks[item.name]
                block.loop_vars = loop_vars
                block.trip_counts = trips
            else:
                self._annotate_loop_context(
                    item.body, loop_vars + (item.var,), trips + (item.trip,)
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_ops(self) -> int:
        """Total number of operations across all blocks."""
        return len(self._ops_by_id)

    def op(self, opid: int) -> Operation:
        """Look up any operation by its program-global id."""
        try:
            return self._ops_by_id[opid]
        except KeyError:
            raise IRError(f"program {self.name!r} has no op {opid}") from None

    def all_ops(self) -> Iterator[Operation]:
        """All operations, in ascending id order."""
        for opid in sorted(self._ops_by_id):
            yield self._ops_by_id[opid]

    def block_of(self, opid: int) -> BasicBlock:
        """The block owning operation ``opid``."""
        return self.blocks[self.op(opid).block]

    def input_arrays(self) -> list[ArrayDecl]:
        return [a for a in self.arrays.values() if a.kind is SymbolKind.INPUT]

    def output_arrays(self) -> list[ArrayDecl]:
        return [a for a in self.arrays.values() if a.kind is SymbolKind.OUTPUT]

    def coeff_arrays(self) -> list[ArrayDecl]:
        return [a for a in self.arrays.values() if a.kind is SymbolKind.COEFF]

    def state_arrays(self) -> list[ArrayDecl]:
        return [a for a in self.arrays.values() if a.kind is SymbolKind.STATE]

    def blocks_by_priority(self) -> list[BasicBlock]:
        """Blocks sorted by execution count, highest first.

        This is the priority order of the paper's Fig. 1a (blocks that
        contribute most to execution time are optimized first, so the
        accuracy budget is spent where it pays).  Ties break by block
        name for determinism.
        """
        return sorted(
            self.blocks.values(),
            key=lambda b: (-b.executions, b.name),
        )

    def loop_extents(self) -> dict[str, tuple[int, int]]:
        """Inclusive (lo, hi) iteration ranges of every loop variable."""
        extents: dict[str, tuple[int, int]] = {}

        def visit(items: list[ScheduleItem]) -> None:
            for item in items:
                if isinstance(item, LoopNode):
                    extents[item.var] = (0, item.trip - 1)
                    visit(item.body)

        visit(self.schedule)
        return extents

    def total_arith_ops_executed(self) -> int:
        """Dynamic count of arithmetic/memory operations (profile proxy)."""
        total = 0
        for block in self.blocks.values():
            total += len(block.arithmetic_ops()) * block.executions
        return total

    def output_store_ops(self) -> list[Operation]:
        """Stores into OUTPUT arrays — where accuracy is measured."""
        outs = {a.name for a in self.output_arrays()}
        return [
            op
            for op in self.all_ops()
            if op.kind is OpKind.STORE and op.array in outs
        ]

    def __str__(self) -> str:
        from repro.ir.printer import format_program

        return format_program(self)


def block_memo(
    program: Program,
    block: BasicBlock,
    kind: str,
    build: Callable[[BasicBlock], T],
) -> T:
    """``build(block)``, built once per ``kind`` for ``program``'s ``block``.

    Memoized on the program object, like its content fingerprint, so a
    fresh program starts cold.  A block that is not ``program``'s own
    is never memoized: it gets a fresh ``build(block)``.  Callers must
    not mutate what they get.
    """
    if program.blocks.get(block.name) is not block:
        return build(block)
    memos = getattr(program, "_block_memos", None)
    if memos is None:
        memos = program._block_memos = {}
    key = (kind, block.name)
    found = memos.get(key)
    if found is None:
        found = memos[key] = build(block)
    return found


def flat_index(program: Program, op: Operation, env: Mapping):
    """Flat cell index of memory op ``op`` under the loop bindings ``env``.

    An int when every loop variable is bound to an int; an int array
    when a vector-lane loop binds an ``arange``.  Raises
    :class:`~repro.errors.InterpreterError` when a coordinate leaves
    its extent.  Shared by every executor.
    """
    decl = program.arrays[op.array]  # type: ignore[index]
    assert op.index is not None
    coords = [ix.evaluate(env) for ix in op.index]
    for coord, extent in zip(coords, decl.shape):
        if type(coord) is int:
            inside = 0 <= coord < extent
        else:
            inside = not np.any((coord < 0) | (coord >= extent))
        if not inside:
            shown = ", ".join(
                str(c) if type(c) is int else f"{np.min(c)}..{np.max(c)}"
                for c in coords
            )
            raise InterpreterError(
                f"op {op.opid}: {op.kind.value} {op.array}[{shown}] out of "
                f"bounds {decl.shape}"
            )
    if decl.rank == 1:
        return coords[0]
    return coords[0] * decl.shape[1] + coords[1]
