"""Dynamic instance graph of a program, built from its loop tree.

Every execution of an operation is an *instance*.  Gain extraction
(:mod:`repro.accuracy.adjoint`) needs, per instance, its static op id,
the instances that produced its operands, its value and the local
partial derivatives with respect to those operands.  The tracing
:class:`~repro.ir.interp.Interpreter` records this one Python step per
instance; :func:`instance_graph` derives the same structure from the
loop tree with numpy, and :meth:`InstanceGraph.values` /
:meth:`InstanceGraph.partials` evaluate it.

Simulation range analysis reads the same graph:
:meth:`InstanceGraph.extremes` evaluates it once per stimulus and takes
each op's smallest and largest value over its instances, which is what
the ``batch`` backend's
:meth:`~repro.ir.backend.EvaluationBackend.op_extremes` returns.  A
recurrence then costs one flat step per instance instead of one numpy
call per op execution.

Instances are numbered exactly as the interpreter numbers them.  Pseudo
sources come first: per array, in declaration order, one instance per
INPUT or COEFF cell and one silent instance for any other array; then
one instance per variable, silent for a zero init.  Then come the ops
of every block execution, in schedule order.  A LOAD's operand is the
last earlier STORE to the same cell (else the cell's initial instance),
a READVAR's the last earlier WRITEVAR (else the variable's initial
instance).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.ir.batch import stack_input_columns
from repro.ir.interp import SILENT_SOURCE
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, Program, ScheduleItem, flat_index
from repro.ir.symbols import SymbolKind

__all__ = ["InstanceGraph", "instance_graph"]

# Instance kinds of the forward evaluation.  Sources (pseudo sources and
# CONSTs) hold a preset value; copies (loads, stores, variable accesses)
# forward their one operand.
SOURCE, COPY, ADD, SUB, MUL, MIN, MAX, NEG, ABS = range(9)

_KIND_CODES = {
    OpKind.CONST: SOURCE,
    OpKind.LOAD: COPY,
    OpKind.STORE: COPY,
    OpKind.READVAR: COPY,
    OpKind.WRITEVAR: COPY,
    OpKind.ADD: ADD,
    OpKind.SUB: SUB,
    OpKind.MUL: MUL,
    OpKind.MIN: MIN,
    OpKind.MAX: MAX,
    OpKind.NEG: NEG,
    OpKind.ABS: ABS,
}

_PSEUDO_SOURCED = (SymbolKind.INPUT, SymbolKind.COEFF)


@dataclass(eq=False)
class InstanceGraph:
    """Every executed instance of a program, as flat arrays.

    ``static[i]`` is instance ``i``'s static op id, a pseudo-source id
    (from ``first_pseudo_id`` up) or ``SILENT_SOURCE``.
    ``operands[k, i]`` is the instance producing its ``k``-th operand,
    or -1 past its ``arity[i]``.
    """

    program: Program = field(repr=False)
    static: np.ndarray
    kind: np.ndarray
    operands: np.ndarray
    arity: np.ndarray
    #: first pseudo id (== ``program.n_ops``).
    first_pseudo_id: int
    #: number of pseudo-source instances: the first block instance.
    n_sources: int
    #: initial instance of every array's cell 0, and of every variable
    #: under ``"$" + name`` (the trace's pseudo-source key).  A
    #: pseudo-sourced array's cells follow in flat order; any other
    #: array has this one silent instance for all its cells.
    source: dict[str, int]
    #: static op id -> its instances, ascending.
    op_instances: dict[int, np.ndarray] = field(repr=False)
    #: instances of stores into OUTPUT arrays, execution order.
    output_instances: np.ndarray = field(repr=False)

    @property
    def n_instances(self) -> int:
        return self.static.size

    # ------------------------------------------------------------------
    def values(self, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Float64 value of every instance, with the interpreter's
        semantics: one loop in instance order over the arithmetic
        instances' flat buffers, then one gather for the copies."""
        return self._evaluate(self._plan(), inputs)

    def _evaluate(
        self, plan: tuple, inputs: Mapping[str, np.ndarray]
    ) -> np.ndarray:
        preset, copies, copied, columns = plan
        start = preset.copy()
        for decl in self.program.input_arrays():
            first = self.source[decl.name]
            cells = stack_input_columns(decl, [inputs])[:, 0]
            start[first:first + decl.size] = cells

        value = array("d", start.tobytes())
        for i, kind, a, b in zip(*columns):
            if kind == ADD:
                value[i] = value[a] + value[b]
            elif kind == MUL:
                value[i] = value[a] * value[b]
            elif kind == SUB:
                value[i] = value[a] - value[b]
            elif kind == MIN:
                value[i] = min(value[a], value[b])
            elif kind == MAX:
                value[i] = max(value[a], value[b])
            elif kind == NEG:
                value[i] = -value[a]
            elif kind == ABS:
                value[i] = abs(value[a])
        values = np.frombuffer(value)
        values[copies] = values[copied]
        return values

    def _plan(self) -> tuple:
        """What evaluating the graph on any inputs shares.

        The preset of every source but the inputs' cells; the copy
        instances (loads, stores, variable accesses) with the non-copy
        instance each one ends up forwarding; and the arithmetic
        instances as flat buffers of instance, kind and operands, the
        operands resolved through copies.  The loop then skips the
        copies (two thirds of the paper twins' instances), and one
        gather fills them after it.  :meth:`extremes` builds it once for
        all its stimuli; it is not kept on the graph, which
        ``extract_gains`` holds through its walks.
        """
        program = self.program
        preset = np.zeros(self.n_instances)
        for decl in program.arrays.values():
            if decl.kind is SymbolKind.COEFF:
                assert decl.values is not None
                first = self.source[decl.name]
                preset[first:first + decl.size] = decl.values.reshape(-1)
        for var in program.variables.values():
            preset[self.source["$" + var.name]] = var.init
        for op in program.all_ops():
            if op.kind is OpKind.CONST:
                preset[self.op_instances[op.opid]] = float(op.value)  # type: ignore[arg-type]

        kind, operands = self.kind, self.operands
        copies = np.flatnonzero(kind == COPY)
        copied = operands[0, copies]
        chained = kind[copied] == COPY
        while chained.any():  # pointer jumping: chains are 1-2 deep
            copied = np.where(chained, operands[0, copied], copied)
            chained = kind[copied] == COPY
        resolved = np.arange(self.n_instances)
        resolved[copies] = copied

        arith = np.flatnonzero(kind > COPY)
        first, second = operands[:, arith]
        second = np.where(second >= 0, resolved[second], -1)
        columns = (
            array("q", arith.tobytes()),
            array("b", kind[arith].tobytes()),
            array("q", resolved[first].tobytes()),
            array("q", second.tobytes()),
        )
        return preset, copies, copied, columns

    def extremes(
        self, stimuli: Sequence[Mapping[str, np.ndarray]]
    ) -> dict[int, tuple[float, float]]:
        """Smallest and largest value of every executed op over all
        ``stimuli``, keyed by static op id in first-execution order."""
        ops = sorted(
            (opid for opid, insts in self.op_instances.items() if insts.size),
            key=lambda opid: self.op_instances[opid][0],
        )
        if not ops:
            return {}
        gather = np.concatenate([self.op_instances[opid] for opid in ops])
        sizes = [self.op_instances[opid].size for opid in ops]
        starts = np.cumsum([0] + sizes[:-1])
        plan = self._plan()
        lows = np.full(len(ops), np.inf)
        highs = -lows
        for stimulus in stimuli:
            values = self._evaluate(plan, stimulus)[gather]
            np.minimum(lows, np.minimum.reduceat(values, starts), out=lows)
            np.maximum(highs, np.maximum.reduceat(values, starts), out=highs)
        return {
            opid: (low, high)
            for opid, low, high in zip(ops, lows.tolist(), highs.tolist())
        }

    def partials(self, values: np.ndarray) -> np.ndarray:
        """Local partials ``(2, n)`` of every instance with respect to
        its operands, zero past its arity, by the tracing interpreter's
        rules (``MIN``/``MAX`` ties pick operand 0, ``abs'(-0.0) = 1``)."""
        kind = self.kind
        a = values[self.operands[0]]
        b = values[self.operands[1]]
        partials = np.zeros((2, self.n_instances))
        first, second = partials
        first[(kind == COPY) | (kind == ADD) | (kind == SUB)] = 1.0
        second[kind == ADD] = 1.0
        second[kind == SUB] = -1.0
        mul = kind == MUL
        first[mul] = b[mul]
        second[mul] = a[mul]
        for code, picks_first in ((MIN, a <= b), (MAX, a >= b)):
            mask = kind == code
            first[mask] = np.where(picks_first[mask], 1.0, 0.0)
            second[mask] = np.where(picks_first[mask], 0.0, 1.0)
        first[kind == NEG] = -1.0
        mask = kind == ABS
        first[mask] = np.where(a[mask] >= 0, 1.0, -1.0)
        return partials


# ----------------------------------------------------------------------
def _executions(
    items: list[ScheduleItem], block_ids: Mapping[str, int]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Block index of every block execution of ``items`` in run order,
    and each loop variable's value per execution (-1 where unbound)."""
    parts: list[tuple[np.ndarray, dict[str, np.ndarray]]] = []
    for item in items:
        if isinstance(item, BlockRef):
            parts.append((np.array([block_ids[item.name]]), {}))
            continue
        body, body_env = _executions(item.body, block_ids)
        env = {var: np.tile(col, item.trip) for var, col in body_env.items()}
        env[item.var] = np.repeat(np.arange(item.trip), body.size)
        parts.append((np.tile(body, item.trip), env))
    if not parts:
        return np.zeros(0, dtype=np.int64), {}
    blocks = np.concatenate([part for part, _ in parts])
    names = {var for _, env in parts for var in env}
    env = {
        var: np.concatenate([
            part_env.get(var, np.full(part.size, -1)) for part, part_env in parts
        ])
        for var in names
    }
    return blocks, env


def _last_writes(
    reads: np.ndarray, read_cells: np.ndarray, writes: list, n: int,
    initial: np.ndarray,
) -> np.ndarray:
    """Per read, the last earlier write to its cell, else ``initial``.

    ``writes`` holds ``(instances, cells)`` pairs; sorting them by
    ``(cell, instance)`` puts each read's answer just before it.
    """
    if not writes:
        return initial
    insts = np.concatenate([inst for inst, _ in writes])
    cells = np.concatenate([cell for _, cell in writes])
    order = np.argsort(cells * n + insts)
    insts, cells = insts[order], cells[order]
    found = np.searchsorted(cells * n + insts, read_cells * n + reads) - 1
    hit = found >= 0
    found[~hit] = 0
    hit &= cells[found] == read_cells
    return np.where(hit, insts[found], initial)


def instance_graph(program: Program) -> InstanceGraph:
    """The :class:`InstanceGraph` of one run of ``program``.

    Raises :class:`~repro.errors.InterpreterError` for the first
    instance, in execution order, whose subscript leaves its array — the
    interpreter's error for it.
    """
    first_pseudo_id = program.n_ops
    static_parts: list = []
    source: dict[str, int] = {}
    count, pseudo = 0, first_pseudo_id
    for decl in program.arrays.values():
        source[decl.name] = count
        if decl.kind in _PSEUDO_SOURCED:
            static_parts.append(np.arange(pseudo, pseudo + decl.size))
            pseudo += decl.size
            count += decl.size
        else:
            static_parts.append([SILENT_SOURCE])
            count += 1
    for var in program.variables.values():
        source["$" + var.name] = count
        if var.init == 0.0:
            static_parts.append([SILENT_SOURCE])
        else:
            static_parts.append([pseudo])
            pseudo += 1
        count += 1
    n_sources = count

    names = list(program.blocks)
    blocks, env = _executions(program.schedule, {b: i for i, b in enumerate(names)})
    sizes = np.array([len(program.blocks[name].ops) for name in names])[blocks]
    starts = n_sources + np.cumsum(sizes) - sizes
    n = n_sources + int(sizes.sum())

    static = np.empty(n, dtype=np.int64)
    static[:n_sources] = np.concatenate(static_parts) if static_parts else []
    kind = np.zeros(n, dtype=np.int8)
    operands = np.full((2, n), -1, dtype=np.int64)
    op_instances: dict[int, np.ndarray] = {}
    reads: dict[str, list] = {}  # source key -> (instances, cells) pairs
    writes: dict[str, list] = {}
    first_bad: tuple | None = None  # (instance, op, execution)

    for b, name in enumerate(names):
        block = program.blocks[name]
        execs = np.flatnonzero(blocks == b)
        base = starts[execs]
        block_env = {var: env[var][execs] for var in block.loop_vars}
        position = {op.opid: p for p, op in enumerate(block.ops)}
        for p, op in enumerate(block.ops):
            inst = base + p
            static[inst] = op.opid
            kind[inst] = _KIND_CODES[op.kind]
            op_instances[op.opid] = inst
            for k, src in enumerate(op.operands):
                operands[k, inst] = base + position[src]
            if op.kind is OpKind.LOAD or op.kind is OpKind.STORE:
                cells, bad = _cells(program, op, block_env, inst.size)
                if bad.any():
                    worst = int(np.argmax(bad))
                    if first_bad is None or inst[worst] < first_bad[0]:
                        first_bad = (int(inst[worst]), op, int(execs[worst]))
                key = op.array
            elif op.kind is OpKind.READVAR or op.kind is OpKind.WRITEVAR:
                cells, key = np.zeros_like(inst), "$" + op.var
            else:
                continue
            into = reads if op.kind in (OpKind.LOAD, OpKind.READVAR) else writes
            into.setdefault(key, []).append((inst, cells))

    if first_bad is not None:
        _, op, execution = first_bad
        block = program.blocks[op.block]
        flat_index(program, op, {
            var: int(env[var][execution]) for var in block.loop_vars
        })  # raises the interpreter's out-of-bounds error

    for key, found in reads.items():
        insts = np.concatenate([inst for inst, _ in found])
        cells = np.concatenate([cell for _, cell in found])
        decl = program.arrays.get(key)
        per_cell = decl is not None and decl.kind in _PSEUDO_SOURCED
        initial = source[key] + (cells if per_cell else np.zeros_like(cells))
        operands[0, insts] = _last_writes(
            insts, cells, writes.get(key, []), n, initial
        )

    outputs = [op_instances[op.opid] for op in program.output_store_ops()]
    arity = (operands >= 0).sum(axis=0, dtype=np.int8)
    return InstanceGraph(
        program=program,
        static=static,
        kind=kind,
        operands=operands,
        arity=arity,
        first_pseudo_id=first_pseudo_id,
        n_sources=n_sources,
        source=source,
        op_instances=op_instances,
        output_instances=np.sort(np.concatenate(outputs or [np.zeros(0, np.int64)])),
    )


def _cells(
    program: Program, op, env: Mapping[str, np.ndarray], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell of memory op ``op`` per execution, and where its
    subscript leaves the array (``flat_index`` over all executions)."""
    decl = program.arrays[op.array]
    coords = [
        np.broadcast_to(np.asarray(ix.evaluate(env), dtype=np.int64), (count,))
        for ix in op.index
    ]
    bad = np.zeros(count, dtype=bool)
    for coord, extent in zip(coords, decl.shape):
        bad |= (coord < 0) | (coord >= extent)
    if decl.rank == 1:
        return coords[0], bad
    return coords[0] * decl.shape[1] + coords[1], bad
