"""Reference floating-point interpreter.

Executes a :class:`~repro.ir.Program` over numpy float64 storage.  This
is the semantic ground truth: the fixed-point interpreter, the
analytical accuracy model and the generated C all measure themselves
against it.

Two optional hooks support the analyses built on top:

* ``range_observer`` — called with every produced value; used by
  simulation-based dynamic-range analysis.
* ``trace`` — when a :class:`ExecutionTrace` is supplied, every
  executed operation becomes an *instance* with links to the instances
  that produced its operands and the local partial derivatives.  Gain
  extraction (``repro.accuracy.adjoint``) builds the same instances
  from the loop tree instead (:mod:`repro.ir.instances`); the trace is
  the reference the tests hold that instance graph and its gains to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.errors import InterpreterError
from repro.ir.block import BasicBlock
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, LoopNode, Program, flat_index
from repro.ir.symbols import SymbolKind

__all__ = ["ExecutionTrace", "Interpreter", "run_program"]

#: Sentinel static id for noise-free pseudo sources (zero initialization).
SILENT_SOURCE = -1


@dataclass
class ExecutionTrace:
    """Flat record of every executed operation instance.

    Instances are numbered densely in execution order.  For instance
    ``i``, ``static[i]`` is the static op id (or a pseudo-source id for
    array cells / variable initial values), ``operands[i]`` the
    producing instance ids and ``partials[i]`` the local derivatives of
    the instance value with respect to each operand value.
    """

    static: list[int] = field(default_factory=list)
    operands: list[tuple[int, ...]] = field(default_factory=list)
    partials: list[tuple[float, ...]] = field(default_factory=list)
    #: instance id -> flat cell index, for STORE instances only.
    store_cell: dict[int, int] = field(default_factory=dict)
    #: pseudo-source registry: (symbol, flat index) -> static pseudo id.
    cell_sources: dict[tuple[str, int], int] = field(default_factory=dict)
    #: instance ids of stores into OUTPUT arrays, execution order.
    output_instances: list[int] = field(default_factory=list)
    #: first pseudo id (== program.n_ops at build time).
    first_pseudo_id: int = 0

    def add(
        self,
        static_id: int,
        operands: tuple[int, ...] = (),
        partials: tuple[float, ...] = (),
    ) -> int:
        """Append an instance, returning its id."""
        inst = len(self.static)
        self.static.append(static_id)
        self.operands.append(operands)
        self.partials.append(partials)
        return inst

    def pseudo_source(self, symbol: str, flat_index: int) -> int:
        """Static pseudo id for an externally-produced cell value."""
        key = (symbol, flat_index)
        found = self.cell_sources.get(key)
        if found is None:
            found = self.first_pseudo_id + len(self.cell_sources)
            self.cell_sources[key] = found
        return found

    @property
    def n_instances(self) -> int:
        return len(self.static)


class Interpreter:
    """Float64 executor for IR programs."""

    def __init__(self, program: Program) -> None:
        self.program = program

    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        range_observer: Callable[[int, float], None] | None = None,
        trace: ExecutionTrace | None = None,
    ) -> dict[str, np.ndarray]:
        """Execute the program and return its output arrays.

        Parameters
        ----------
        inputs:
            One float array per INPUT array symbol, matching shapes.
        range_observer:
            Optional ``(static_id, value)`` callback invoked for every
            value produced (op results and variable initial values).
        trace:
            Optional :class:`ExecutionTrace` to fill during execution.
        """
        storage = self._init_storage(inputs)
        owners = self._init_owners(storage, trace) if trace is not None else None
        var_values: dict[str, float] = {}
        var_owner: dict[str, int] = {}
        for name, decl in self.program.variables.items():
            var_values[name] = decl.init
            if trace is not None:
                assert owners is not None
                if decl.init == 0.0:
                    var_owner[name] = trace.add(SILENT_SOURCE)
                else:
                    var_owner[name] = trace.add(
                        trace.pseudo_source("$" + name, 0)
                    )
            if range_observer is not None:
                pass  # variable initial values are covered by writes

        state = _ExecState(storage, owners, var_values, var_owner,
                           range_observer, trace)
        env: dict[str, int] = {}
        self._run_items(self.program.schedule, env, state)

        return {
            a.name: storage[a.name]
            for a in self.program.output_arrays()
        }

    # ------------------------------------------------------------------
    def _init_storage(
        self, inputs: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        storage: dict[str, np.ndarray] = {}
        for decl in self.program.arrays.values():
            if decl.kind is SymbolKind.INPUT:
                if decl.name not in inputs:
                    raise InterpreterError(f"missing input array {decl.name!r}")
                data = np.asarray(inputs[decl.name], dtype=np.float64)
                if data.shape != decl.shape:
                    raise InterpreterError(
                        f"input {decl.name!r}: shape {data.shape} != "
                        f"declared {decl.shape}"
                    )
                storage[decl.name] = data.copy()
            elif decl.kind is SymbolKind.COEFF:
                assert decl.values is not None
                storage[decl.name] = decl.values.copy()
            else:
                storage[decl.name] = np.zeros(decl.shape, dtype=np.float64)
        return storage

    def _init_owners(
        self, storage: dict[str, np.ndarray], trace: ExecutionTrace
    ) -> dict[str, np.ndarray]:
        """Create pseudo-source instances for every pre-existing cell."""
        trace.first_pseudo_id = max(trace.first_pseudo_id, self.program.n_ops)
        owners: dict[str, np.ndarray] = {}
        for decl in self.program.arrays.values():
            cells = np.empty(decl.size, dtype=np.int64)
            if decl.kind in (SymbolKind.INPUT, SymbolKind.COEFF):
                for flat in range(decl.size):
                    pseudo = trace.pseudo_source(decl.name, flat)
                    cells[flat] = trace.add(pseudo)
            else:
                silent = trace.add(SILENT_SOURCE)
                cells[:] = silent
            owners[decl.name] = cells
        return owners

    # ------------------------------------------------------------------
    def _run_items(self, items, env: dict[str, int], state: "_ExecState") -> None:
        for item in items:
            if isinstance(item, BlockRef):
                self._run_block(self.program.blocks[item.name], env, state)
            elif isinstance(item, LoopNode):
                for i in range(item.trip):
                    env[item.var] = i
                    self._run_items(item.body, env, state)
                del env[item.var]
            else:  # pragma: no cover - defensive
                raise InterpreterError(f"bad schedule item {item!r}")

    def _run_block(
        self, block: BasicBlock, env: Mapping[str, int], state: "_ExecState"
    ) -> None:
        values: dict[int, float] = {}
        insts: dict[int, int] = {}
        trace = state.trace
        for op in block.ops:
            kind = op.kind
            if kind is OpKind.CONST:
                result = float(op.value)  # type: ignore[arg-type]
                if trace is not None:
                    insts[op.opid] = trace.add(op.opid)
            elif kind is OpKind.LOAD:
                flat = flat_index(self.program, op, env)
                result = float(state.storage[op.array].flat[flat])
                if trace is not None:
                    owner = int(state.owners[op.array][flat])  # type: ignore[index]
                    insts[op.opid] = trace.add(op.opid, (owner,), (1.0,))
            elif kind is OpKind.STORE:
                src = op.operands[0]
                result = values[src]
                flat = flat_index(self.program, op, env)
                state.storage[op.array].flat[flat] = result
                if trace is not None:
                    inst = trace.add(op.opid, (insts[src],), (1.0,))
                    insts[op.opid] = inst
                    state.owners[op.array][flat] = inst  # type: ignore[index]
                    trace.store_cell[inst] = flat
                    decl = self.program.arrays[op.array]  # type: ignore[index]
                    if decl.kind is SymbolKind.OUTPUT:
                        trace.output_instances.append(inst)
            elif kind is OpKind.READVAR:
                result = state.var_values[op.var]  # type: ignore[index]
                if trace is not None:
                    insts[op.opid] = trace.add(
                        op.opid, (state.var_owner[op.var],), (1.0,)
                    )
            elif kind is OpKind.WRITEVAR:
                src = op.operands[0]
                result = values[src]
                state.var_values[op.var] = result  # type: ignore[index]
                if trace is not None:
                    inst = trace.add(op.opid, (insts[src],), (1.0,))
                    insts[op.opid] = inst
                    state.var_owner[op.var] = inst  # type: ignore[index]
            else:
                result = self._arith(op, values, insts, trace)
            values[op.opid] = result
            if state.range_observer is not None:
                # Stores/var-writes are observed too: their slot aliases
                # the symbol's, so range analysis sees symbol contents
                # without separate bookkeeping.
                state.range_observer(op.opid, result)

    def _arith(
        self,
        op: Operation,
        values: dict[int, float],
        insts: dict[int, int],
        trace: ExecutionTrace | None,
    ) -> float:
        kind = op.kind
        if op.is_binary:
            a = values[op.operands[0]]
            b = values[op.operands[1]]
            if kind is OpKind.ADD:
                result, pa, pb = a + b, 1.0, 1.0
            elif kind is OpKind.SUB:
                result, pa, pb = a - b, 1.0, -1.0
            elif kind is OpKind.MUL:
                result, pa, pb = a * b, b, a
            elif kind is OpKind.MIN:
                result = min(a, b)
                pa, pb = (1.0, 0.0) if a <= b else (0.0, 1.0)
            elif kind is OpKind.MAX:
                result = max(a, b)
                pa, pb = (1.0, 0.0) if a >= b else (0.0, 1.0)
            else:  # pragma: no cover - enum is closed
                raise InterpreterError(f"unhandled binary op {kind}")
            if trace is not None:
                insts[op.opid] = trace.add(
                    op.opid,
                    (insts[op.operands[0]], insts[op.operands[1]]),
                    (pa, pb),
                )
            return result
        a = values[op.operands[0]]
        if kind is OpKind.NEG:
            result, pa = -a, -1.0
        elif kind is OpKind.ABS:
            result = abs(a)
            pa = 1.0 if a >= 0 else -1.0
        else:  # pragma: no cover - enum is closed
            raise InterpreterError(f"unhandled unary op {kind}")
        if trace is not None:
            insts[op.opid] = trace.add(op.opid, (insts[op.operands[0]],), (pa,))
        return result


@dataclass
class _ExecState:
    storage: dict[str, np.ndarray]
    owners: dict[str, np.ndarray] | None
    var_values: dict[str, float]
    var_owner: dict[str, int]
    range_observer: Callable[[int, float], None] | None
    trace: ExecutionTrace | None


def run_program(
    program: Program, inputs: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(program).run(inputs)
