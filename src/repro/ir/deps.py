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

import heapq
from typing import Hashable, Iterable, Iterator, TypeVar

from repro.errors import IRError
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
    "lexicographic_topological_order",
]

N = TypeVar("N", bound=Hashable)


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


def lexicographic_topological_order(
    nodes: Iterable[N], edges: Iterable[tuple[N, N]]
) -> list[N]:
    """Topological order of a DAG that always takes the smallest ready node.

    The order ``networkx.lexicographical_topological_sort`` returns.
    Every edge endpoint must be in ``nodes``; repeated nodes and edges
    are harmless.  Raises :class:`~repro.errors.IRError` on a cycle.
    """
    successors: dict[N, list[N]] = {node: [] for node in nodes}
    indegree = dict.fromkeys(successors, 0)
    for src, dst in edges:
        successors[src].append(dst)
        indegree[dst] += 1
    ready = [node for node, count in indegree.items() if count == 0]
    heapq.heapify(ready)
    order: list[N] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(successors):
        stuck = len(successors) - len(order)
        raise IRError(f"dependence cycle: {stuck} nodes never become ready")
    return order


class DependenceGraph:
    """Dependence DAG of one basic block with reachability queries.

    Nodes are the block's opids; an edge points from the earlier op to
    the op that must follow it and carries its dependence class
    (``data``/``memory``/``scalar``).  Per op, an insertion-ordered
    dict maps each predecessor to its class.  An edge added twice
    keeps its first position and takes the later class, as
    ``networkx.DiGraph.add_edge`` updates edge data: a
    ``setvar(v, getvar(v))`` block adds a ``data`` edge, then a
    ``scalar`` one, on the same pair.
    """

    def __init__(
        self, block: BasicBlock, edges: Iterable[tuple[int, int, str]]
    ) -> None:
        self.block = block
        self._pred: dict[int, dict[int, str]] = {op.opid: {} for op in block.ops}
        self._succ: dict[int, dict[int, str]] = {op.opid: {} for op in block.ops}
        for src, dst, dep in edges:
            self._succ[src][dst] = dep
            self._pred[dst][src] = dep
        self._order = lexicographic_topological_order(
            self._succ, ((src, dst) for src, dst, _ in self.edges())
        )
        desc: dict[int, set[int]] = {}
        for node in reversed(self._order):
            reach = desc[node] = set()
            for succ in self._succ[node]:
                reach.add(succ)
                reach |= desc[succ]
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

    def ordering_predecessors(self, opid: int) -> list[int]:
        """The memory and scalar predecessors of ``opid``, in edge order."""
        return [p for p, dep in self._pred[opid].items() if dep != "data"]

    def edges(self) -> Iterator[tuple[int, int, str]]:
        """Every ``(src, dst, dep)``, by source in block order."""
        for src, succs in self._succ.items():
            for dst, dep in succs.items():
                yield src, dst, dep

    def topological_order(self) -> list[int]:
        """The topological order that takes the smallest ready opid first."""
        return list(self._order)


def _dependence_edges(block: BasicBlock) -> Iterator[tuple[int, int, str]]:
    # Data dependences (operand edges).
    for op in block.ops:
        for producer in op.operands:
            yield producer, op.opid, "data"

    # Memory dependences: pairwise over ops touching the same array,
    # ordering any may-aliasing pair that involves a store.
    mem_ops = [op for op in block.ops if op.touches_memory]
    for i, first in enumerate(mem_ops):
        for second in mem_ops[i + 1:]:
            if first.kind is OpKind.LOAD and second.kind is OpKind.LOAD:
                continue
            if may_alias(first, second):
                yield first.opid, second.opid, "memory"

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
                yield first.opid, second.opid, "scalar"


def build_dependence_graph(block: BasicBlock) -> DependenceGraph:
    """Build the dependence DAG of ``block``.

    Nodes are opids; edges point from the earlier op to the op that
    must follow it, each with its class (``data``/``memory``/``scalar``).
    """
    return DependenceGraph(block, _dependence_edges(block))


def dependence_graph(program: Program, block: BasicBlock) -> DependenceGraph:
    """The dependence graph of ``program``'s ``block``, built once.

    The SLP front ends and the scalar, SIMD and float lowerings of
    every cell of a sweep ask for the same few graphs; see
    :func:`~repro.ir.program.block_memo`.  Callers must not mutate the
    graph.
    """
    return block_memo(program, block, "deps", build_dependence_graph)
