"""Intra-block dependence analysis.

SLP legality ("two ops are independent") and list scheduling both need
the dependence DAG of a basic block.  Three dependence classes exist:

* **data** — operand edges (RAW through SSA values);
* **memory** — loads/stores on the same array whose affine subscripts
  may refer to the same cell within one block execution;
* **scalar** — reads/writes of the same scalar variable, ordered by
  program order (RAW/WAR/WAW).

Affine disambiguation: two subscripts with identical linear parts alias
iff their constant parts are equal; with different linear parts we
conservatively assume aliasing.  This is exact for the paper's kernels
(all accesses in a block share the loop-variable part).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.ir.block import BasicBlock
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import Program, block_memo

__all__ = [
    "DependenceGraph",
    "may_alias",
    "build_dependence_graph",
    "dependence_graph",
    "is_loop_invariant_load",
]


def is_loop_invariant_load(program, op: Operation) -> bool:
    """True for loads whose address is fixed across block executions.

    Such loads are hoisted out of the loop nest by any optimizing
    compiler (classic LICM): they execute once, so per-iteration cost
    models treat them — and vectors packed purely from them — as free.
    The 3x3 convolution's kernel coefficients are the canonical case.
    """
    if op.kind is not OpKind.LOAD:
        return False
    block = program.blocks[op.block]
    loop_vars = set(block.loop_vars)
    assert op.index is not None
    return not any(
        var in loop_vars for ix in op.index for var in ix.variables
    )


def may_alias(a: Operation, b: Operation) -> bool:
    """Conservatively decide whether two memory ops can touch one cell."""
    if a.array != b.array:
        return False
    assert a.index is not None and b.index is not None
    for ia, ib in zip(a.index, b.index):
        diff = ia.constant_offset_from(ib)
        if diff is None:
            # Different linear parts: cannot disambiguate, assume alias.
            continue
        if diff != 0:
            return False
    return True


@dataclass
class DependenceGraph:
    """Dependence DAG of one basic block with reachability queries."""

    block: BasicBlock
    graph: nx.DiGraph
    _descendants: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        order = list(nx.topological_sort(self.graph))
        desc: dict[int, set[int]] = {n: set() for n in order}
        for node in reversed(order):
            for succ in self.graph.successors(node):
                desc[node].add(succ)
                desc[node] |= desc[succ]
        self._descendants = {n: frozenset(s) for n, s in desc.items()}

    def depends(self, later: int, earlier: int) -> bool:
        """True when op ``later`` transitively depends on ``earlier``."""
        return later in self._descendants.get(earlier, frozenset())

    def independent(self, a: int, b: int) -> bool:
        """True when neither op depends on the other (SLP precondition)."""
        return not self.depends(a, b) and not self.depends(b, a)

    def descendants(self, opid: int) -> frozenset[int]:
        """All ops transitively dependent on ``opid``."""
        return self._descendants.get(opid, frozenset())

    def predecessors(self, opid: int) -> list[int]:
        return list(self.graph.predecessors(opid))

    def topological_order(self) -> list[int]:
        """A topological order respecting all dependences."""
        return list(nx.lexicographical_topological_sort(self.graph))


def build_dependence_graph(block: BasicBlock) -> DependenceGraph:
    """Build the dependence DAG of ``block``.

    Nodes are opids; edges point from the earlier op to the op that
    must follow it.  Edge attribute ``dep`` records the class
    (``data``/``memory``/``scalar``).
    """
    graph = nx.DiGraph()
    for op in block.ops:
        graph.add_node(op.opid)

    # Data dependences (operand edges).
    for op in block.ops:
        for producer in op.operands:
            graph.add_edge(producer, op.opid, dep="data")

    # Memory dependences: pairwise over ops touching the same array,
    # ordering any may-aliasing pair that involves a store.
    mem_ops = [op for op in block.ops if op.touches_memory]
    for i, first in enumerate(mem_ops):
        for second in mem_ops[i + 1:]:
            if first.kind is OpKind.LOAD and second.kind is OpKind.LOAD:
                continue
            if may_alias(first, second):
                graph.add_edge(first.opid, second.opid, dep="memory")

    # Scalar-variable dependences in program order.
    var_ops = [op for op in block.ops if op.kind in (OpKind.READVAR, OpKind.WRITEVAR)]
    by_var: dict[str, list[Operation]] = {}
    for op in var_ops:
        assert op.var is not None
        by_var.setdefault(op.var, []).append(op)
    for ops in by_var.values():
        for i, first in enumerate(ops):
            for second in ops[i + 1:]:
                if first.kind is OpKind.READVAR and second.kind is OpKind.READVAR:
                    continue
                graph.add_edge(first.opid, second.opid, dep="scalar")

    return DependenceGraph(block, graph)


def dependence_graph(program: Program, block: BasicBlock) -> DependenceGraph:
    """The dependence graph of ``program``'s ``block``, built once.

    The SLP front ends and the scalar, SIMD and float lowerings of
    every cell of a sweep ask for the same few graphs; see
    :func:`~repro.ir.program.block_memo`.  Callers must not mutate the
    graph.
    """
    return block_memo(program, block, "deps", build_dependence_graph)
