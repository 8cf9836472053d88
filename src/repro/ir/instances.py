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

A program whose vector plan has no lane loop (iir's recurrence) also
runs its float simulations from the graph: :class:`FlatSimulation`
keeps the graph's evaluation plan, and its
:meth:`~FlatSimulation.outputs` (float64),
:meth:`~FlatSimulation.format_outputs` (a binary float format) and
:meth:`~FlatSimulation.oracle_outputs` (the ``bigfloat`` oracle) each
run one flat loop per stimulus over the arithmetic instances, bit for
bit as the lane executors of :mod:`repro.ir.batch` do
(:func:`~repro.ir.backend.flat_simulation` makes the choice).  Programs
with lane loops keep the lanes, where one numpy call serves every lane;
without lane loops it would serve one value per stimulus.

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
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.errors import InterpreterError
from repro.ir.batch import stack_input_columns
from repro.ir.interp import SILENT_SOURCE
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, Program, ScheduleItem, flat_index
from repro.ir.symbols import SymbolKind

__all__ = ["FlatSimulation", "InstanceGraph", "instance_graph"]

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
    #: the flat cell each of ``output_instances`` stores into, counted
    #: across the OUTPUT arrays in declaration order.
    output_cells: np.ndarray = field(repr=False)

    @property
    def n_instances(self) -> int:
        return self.static.size

    # ------------------------------------------------------------------
    def values(self, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Float64 value of every instance, with the interpreter's
        semantics: one loop in instance order over the arithmetic
        instances, then one gather for every instance."""
        plan, slot = self._plan()
        return np.frombuffer(_run(plan, _floats(_start(plan, inputs))))[slot]

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
        plan, slot = self._plan()
        gather = slot[np.concatenate([self.op_instances[opid] for opid in ops])]
        sizes = [self.op_instances[opid].size for opid in ops]
        starts = np.cumsum([0] + sizes[:-1])
        lows = np.full(len(ops), np.inf)
        highs = -lows
        for stimulus in stimuli:
            values = np.frombuffer(_run(plan, _floats(_start(plan, stimulus))))[gather]
            np.minimum(lows, np.minimum.reduceat(values, starts), out=lows)
            np.maximum(highs, np.maximum.reduceat(values, starts), out=highs)
        return {
            opid: (low, high)
            for opid, low, high in zip(ops, lows.tolist(), highs.tolist())
        }

    def _plan(self) -> tuple["_Plan", np.ndarray]:
        """What evaluating the graph on any inputs shares, and the slot
        that holds each instance's value.

        Values live in *slots*: the sources (pseudo sources, then
        CONSTs) first, then the arithmetic instances, each in instance
        order.  A copy instance (load, store, variable access) gets the
        slot of the non-copy instance it ends up forwarding, so the loop
        skips the copies (two thirds of the paper twins' instances) and
        holds no value for them.  A pseudo source's slot is its
        instance.  The plan is built per call, not kept on the graph,
        which ``extract_gains`` holds through its walks.
        """
        program = self.program
        kind, operands = self.kind, self.operands
        # Masks, not index arrays, and int32 slots: the graph is alive
        # while its plan is built, so the plan's transient adds to it.
        is_source, is_arith, is_copy = kind == SOURCE, kind > COPY, kind == COPY
        n_sources = int(np.count_nonzero(is_source))
        slot = np.empty(self.n_instances, dtype=np.int32)
        slot[is_source] = np.arange(n_sources)
        slot[is_arith] = np.arange(n_sources, n_sources + np.count_nonzero(is_arith))
        copied = operands[0][is_copy]
        chained = np.flatnonzero(kind[copied] == COPY)
        while chained.size:  # pointer jumping: chains are 1-2 deep
            copied[chained] = operands[0, copied[chained]]
            chained = chained[kind[copied[chained]] == COPY]
        slot[is_copy] = slot[copied]
        del copied

        preset = np.zeros(n_sources)
        for decl in program.arrays.values():
            if decl.kind is SymbolKind.COEFF:
                assert decl.values is not None
                first = self.source[decl.name]
                preset[first:first + decl.size] = decl.values.reshape(-1)
        for var in program.variables.values():
            preset[self.source["$" + var.name]] = var.init
        for op in program.all_ops():
            if op.kind is OpKind.CONST:
                preset[slot[self.op_instances[op.opid]]] = float(op.value)  # type: ignore[arg-type]

        second = operands[1][is_arith]
        seconds = slot[second]
        seconds[second < 0] = -1
        plan = _Plan(
            preset=preset,
            inputs=tuple(
                (decl, self.source[decl.name]) for decl in program.input_arrays()
            ),
            kinds=array("b", kind[is_arith].tobytes()),
            firsts=array("i", slot[operands[0][is_arith]].tobytes()),
            seconds=array("i", seconds.tobytes()),
        )
        return plan, slot

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


class FlatSimulation:
    """A program's float simulations as one flat loop per stimulus.

    Built from the program's :class:`InstanceGraph`, it keeps the
    graph's evaluation plan and the slot of each output cell's last
    store, and not the graph.  Its three value domains give the lane
    executors' outputs (:mod:`repro.ir.batch`) bit for bit; an output
    cell holds its last store in instance order, or 0.0 where nothing
    was stored, like the executors' zero-initialized storage.
    """

    def __init__(self, graph: InstanceGraph) -> None:
        self.program = graph.program
        plan, slot = graph._plan()
        self._plan = plan
        cells = graph.output_cells
        last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
        self._cells = cells[last]
        self._slots = slot[graph.output_instances[last]].tolist()

        # The oracle drops each value at its last read, so a run holds
        # only the live BigFloats (about 150 bytes each); the output
        # cells' last stores live to the end.
        firsts = np.frombuffer(plan.firsts, dtype=np.int32)
        seconds = np.frombuffer(plan.seconds, dtype=np.int32)
        step = np.arange(firsts.size)
        binary = seconds >= 0
        read = np.full(plan.preset.size + firsts.size, -1)
        np.maximum.at(read, firsts, step)
        np.maximum.at(read, seconds[binary], step[binary])
        read[self._slots] = firsts.size
        drops = (read[firsts] == step) | (binary & (read[seconds] == step)) << 1
        self._drops = array("b", drops.astype(np.int8).tobytes())

    def outputs(
        self, stimuli: Sequence[Mapping[str, np.ndarray]]
    ) -> list[dict[str, np.ndarray]]:
        """Float64 outputs, as :class:`~repro.ir.batch.BatchInterpreter`
        computes them."""
        return self._outputs(stimuli, _floats)

    def format_outputs(
        self, stimuli: Sequence[Mapping[str, np.ndarray]], format_spec
    ) -> list[dict[str, np.ndarray]]:
        """Outputs in a binary float format, as
        :class:`~repro.ir.batch.FormatBatchInterpreter` computes them:
        every source (input and coefficient cells, CONSTs, variable
        inits) rounds into the format, and so does every ADD, SUB and
        MUL result."""
        return self._outputs(
            stimuli,
            lambda start: _floats(format_spec.quantize_array(start)),
            format_spec.round_value,
        )

    def oracle_outputs(
        self, stimuli: Sequence[Mapping[str, np.ndarray]]
    ) -> list[dict[str, np.ndarray]]:
        """Outputs of the ``bigfloat`` oracle, as
        :class:`~repro.ir.batch.OracleBatchInterpreter` computes them:
        every source becomes a :class:`~repro.formats.BigFloat`, and
        every output comes back as its nearest float64."""
        from repro.formats import BigFloat, big_to_float

        return self._outputs(
            stimuli,
            lambda start: [BigFloat.from_float(v) for v in start.tolist()],
            lower=big_to_float,
            drops=self._drops,
        )

    def _outputs(
        self,
        stimuli: Sequence[Mapping[str, np.ndarray]],
        lift: Callable[[np.ndarray], list | array],
        rnd: Callable | None = None,
        lower: Callable | None = None,
        drops: array | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """Run each stimulus with its sources put in a value domain by
        ``lift``; ``rnd`` rounds each ADD, SUB and MUL result, ``lower``
        brings a stored value back to float64, and ``drops`` is
        :func:`_run`'s."""
        if not stimuli:
            raise InterpreterError("batch run needs at least one stimulus")
        arrays = self.program.output_arrays()
        bounds = np.cumsum([0] + [decl.size for decl in arrays])
        results = []
        for stimulus in stimuli:
            value = _run(self._plan, lift(_start(self._plan, stimulus)), rnd, drops)
            stored = [value[s] for s in self._slots]
            del value
            flat = np.zeros(bounds[-1])
            flat[self._cells] = stored if lower is None else [lower(v) for v in stored]
            results.append({
                decl.name: flat[bounds[k]:bounds[k + 1]].reshape(decl.shape)
                for k, decl in enumerate(arrays)
            })
        return results


class _Plan(NamedTuple):
    """See :meth:`InstanceGraph._plan`."""

    #: float64 value of every source slot, the inputs' cells zero.
    preset: np.ndarray
    #: each INPUT array and the slot of its first cell.
    inputs: tuple
    #: per arithmetic instance, in instance order: its kind and the
    #: slots of its operands (-1 past its arity).
    kinds: array
    firsts: array
    seconds: array


def _floats(values: np.ndarray) -> array:
    """Float64 values as a flat ``array('d')``: 8 bytes a value, and no
    float object kept alive between operations."""
    return array("d", values.tobytes())


def _start(plan: _Plan, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
    """Every source slot's float64 value on ``inputs``."""
    start = plan.preset.copy()
    for decl, first in plan.inputs:
        start[first:first + decl.size] = stack_input_columns(decl, [inputs])[:, 0]
    return start


def _run(
    plan: _Plan,
    value: list | array,
    rnd: Callable | None = None,
    drops: array | None = None,
) -> list | array:
    """Append every arithmetic instance's value to ``value``, which
    holds the sources' values in slot order, and return it.

    The values are floats (an ``array('d')``) or
    :class:`~repro.formats.BigFloat` values (a list), and the operators
    are the lane executors'.  ``rnd`` rounds each ADD, SUB and MUL
    result.  MIN and MAX are the builtins, which take ``b`` only when
    ``b < a`` (``b > a``), as the lanes' ``np.where`` does.
    ``drops`` has, per arithmetic instance, bit 0 (1) set when this is
    the last read of its first (second) operand, which then becomes
    ``None``.
    """
    append = value.append
    for kind, a, b, drop in zip(
        plan.kinds, plan.firsts, plan.seconds, drops or repeat(0)
    ):
        if kind == ADD:
            result = value[a] + value[b]
        elif kind == MUL:
            result = value[a] * value[b]
        elif kind == SUB:
            result = value[a] - value[b]
        elif kind == MIN:
            result = min(value[a], value[b])
        elif kind == MAX:
            result = max(value[a], value[b])
        elif kind == NEG:
            result = -value[a]
        else:
            result = abs(value[a])
        if rnd is not None and kind <= MUL:
            result = rnd(result)
        append(result)
        if drop:
            if drop & 1:
                value[a] = None
            if drop & 2:
                value[b] = None
    return value


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
    output_offset: dict[str, int] = {}  # OUTPUT array -> its first cell
    for decl in program.output_arrays():
        output_offset[decl.name] = sum(
            program.arrays[name].size for name in output_offset
        )
    output_stores = [(np.zeros(0, np.int64), np.zeros(0, np.int64))]
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
            if op.kind is OpKind.STORE and key in output_offset:
                output_stores.append((inst, output_offset[key] + cells))

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

    output_instances = np.concatenate([inst for inst, _ in output_stores])
    order = np.argsort(output_instances)
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
        output_instances=output_instances[order],
        output_cells=np.concatenate([cells for _, cells in output_stores])[order],
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
