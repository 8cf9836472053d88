"""Batched floating-point interpreter.

Evaluates a :class:`~repro.ir.Program` over *all* stimuli of a
simulation at once: every runtime value is a float64 array with the
stimulus set as its trailing axis, and loops the
:mod:`~repro.ir.vectorize` analysis proves independent additionally
run as array *lanes* (leading axis) instead of Python iterations.

Because every operation remains elementwise float64 and program order
is preserved per lane, results are bit-identical to
:class:`~repro.ir.interp.Interpreter` — the golden contract pinned by
``tests/test_backend.py``.  The scalar interpreter stays the semantic
reference (and the only executor supporting tracing); this one exists
to make simulation-backed evaluation fast.

The lanes serve programs with lane loops (fir, conv), where one numpy
call evaluates every lane, and every run with a ``range_probe``.  A
program without lane loops (iir's recurrence) would pay one numpy call
per op execution for one value per stimulus, so its float simulations
run as flat loops over its instance graph instead
(:class:`~repro.ir.instances.FlatSimulation`, chosen by
:func:`~repro.ir.backend.flat_simulation`).  The three executors here
stay the graph's bit-identity reference in their value domains
(``tests/test_flat_simulation.py``).

``range_probe`` is the batched counterpart of the scalar
``range_observer`` hook: it receives every produced value *array*
(instead of one call per scalar), which is all min/max range
observation needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.errors import InterpreterError
from repro.ir.block import BasicBlock
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, LoopNode, Program, flat_index
from repro.ir.symbols import SymbolKind
from repro.ir.vectorize import VectorPlan, vector_plan

__all__ = [
    "BatchExecutorBase",
    "BatchInterpreter",
    "FormatBatchInterpreter",
    "OracleBatchInterpreter",
    "run_program_batch",
    "stack_input_columns",
]

#: Batched range-observation hook: ``(static op id, value array)``.
RangeProbe = Callable[[int, np.ndarray], None]


def stack_input_columns(decl, stimuli: Sequence[Mapping[str, np.ndarray]]):
    """One input array across all stimuli as flat (cells, stimuli) columns.

    Validates presence and shape per stimulus exactly like the scalar
    interpreters do; shared by the float and fixed-point batch
    executors (the latter quantizes the result afterwards).
    """
    columns = []
    for stimulus in stimuli:
        if decl.name not in stimulus:
            raise InterpreterError(f"missing input array {decl.name!r}")
        data = np.asarray(stimulus[decl.name], dtype=np.float64)
        if data.shape != decl.shape:
            raise InterpreterError(
                f"input {decl.name!r}: shape {data.shape} != "
                f"declared {decl.shape}"
            )
        columns.append(data.reshape(-1))
    return np.stack(columns, axis=1)


class BatchExecutorBase:
    """Shared structure walk of the batch executors.

    Subclasses implement ``_run_block`` (the per-op semantics over
    whichever value domain they execute in); the schedule walk — with
    plan-selected loops running as ``arange`` lanes instead of Python
    iterations — is identical for every domain and lives here.
    """

    def __init__(self, program: Program, plan: VectorPlan | None = None) -> None:
        self.program = program
        self.plan = plan if plan is not None else vector_plan(program)

    def _run_items(self, items, env: dict, state) -> None:
        for item in items:
            if isinstance(item, BlockRef):
                self._run_block(self.program.blocks[item.name], env, state)
            elif isinstance(item, LoopNode):
                if self.plan.is_vectorized(item):
                    env[item.var] = np.arange(item.trip)
                    self._run_items(item.body, env, state)
                    del env[item.var]
                else:
                    for i in range(item.trip):
                        env[item.var] = i
                        self._run_items(item.body, env, state)
                    del env[item.var]
            else:  # pragma: no cover - defensive
                raise InterpreterError(f"bad schedule item {item!r}")

    def _run_block(self, block: BasicBlock, env: Mapping, state) -> None:
        raise NotImplementedError  # pragma: no cover


class BatchInterpreter(BatchExecutorBase):
    """Float64 executor evaluating every stimulus in one pass.

    The four ``_const`` / ``_lift_scalar`` / ``_probe_value`` /
    ``_arith_result`` hooks parameterize the *value domain* without
    touching the walk: this class is the identity on all of them
    (plain float64 — bit-identical to the pre-hook executor), while
    :class:`OracleBatchInterpreter` and :class:`FormatBatchInterpreter`
    re-point them at :mod:`repro.formats` value types.
    """

    # ------------------------------------------------------------------
    # Value-domain hooks.
    def _const(self, op: Operation):
        """Domain value of a CONST literal."""
        return float(op.value)  # type: ignore[arg-type]

    def _lift_scalar(self, value):
        """Lift a program-declared scalar (variable init) into the domain."""
        return value

    def _probe_value(self, value):
        """Value as handed to ``range_probe`` (float64 for analyses)."""
        return value

    def _arith_result(self, op: Operation, values: dict):
        """Arithmetic in the domain (post-op rounding goes here)."""
        return _arith(op, values)

    # ------------------------------------------------------------------
    def run(
        self,
        stimuli: Sequence[Mapping[str, np.ndarray]],
        range_probe: RangeProbe | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """Execute over ``stimuli``; returns one output dict per stimulus."""
        if not stimuli:
            raise InterpreterError("batch run needs at least one stimulus")
        storage = self._init_storage(stimuli)
        var_values: dict[str, np.ndarray | float] = {
            name: self._lift_scalar(decl.init)
            for name, decl in self.program.variables.items()
        }
        state = _BatchState(storage, var_values, range_probe)
        self._run_items(self.program.schedule, {}, state)
        return [
            {
                decl.name: storage[decl.name][:, s].copy().reshape(decl.shape)
                for decl in self.program.output_arrays()
            }
            for s in range(len(stimuli))
        ]

    # ------------------------------------------------------------------
    def _init_storage(
        self, stimuli: Sequence[Mapping[str, np.ndarray]]
    ) -> dict[str, np.ndarray]:
        """Flat (cells, stimuli) float64 columns per array symbol."""
        n_stimuli = len(stimuli)
        storage: dict[str, np.ndarray] = {}
        for decl in self.program.arrays.values():
            if decl.kind is SymbolKind.INPUT:
                storage[decl.name] = stack_input_columns(decl, stimuli)
            elif decl.kind is SymbolKind.COEFF:
                assert decl.values is not None
                flat = decl.values.reshape(-1).astype(np.float64)
                storage[decl.name] = np.repeat(flat[:, None], n_stimuli, axis=1)
            else:
                storage[decl.name] = np.zeros(
                    (decl.size, n_stimuli), dtype=np.float64
                )
        return storage

    # ------------------------------------------------------------------
    def _run_block(
        self, block: BasicBlock, env: Mapping, state: "_BatchState"
    ) -> None:
        values: dict[int, np.ndarray | float] = {}
        for op in block.ops:
            kind = op.kind
            if kind is OpKind.CONST:
                result = self._const(op)
            elif kind is OpKind.LOAD:
                flat = flat_index(self.program, op, env)
                result = state.storage[op.array][flat]
                if type(flat) is int:
                    # Basic indexing views the storage row; copy so the
                    # value is immune to later stores into the cell.
                    result = result.copy()
            elif kind is OpKind.STORE:
                result = values[op.operands[0]]
                flat = flat_index(self.program, op, env)
                state.storage[op.array][flat] = result
            elif kind is OpKind.READVAR:
                result = state.var_values[op.var]  # type: ignore[index]
            elif kind is OpKind.WRITEVAR:
                result = values[op.operands[0]]
                state.var_values[op.var] = result  # type: ignore[index]
            else:
                result = self._arith_result(op, values)
            values[op.opid] = result
            if state.range_probe is not None:
                state.range_probe(op.opid, self._probe_value(result))


def _arith(op: Operation, values: dict):
    kind = op.kind
    if op.is_binary:
        a = values[op.operands[0]]
        b = values[op.operands[1]]
        if kind is OpKind.ADD:
            return a + b
        if kind is OpKind.SUB:
            return a - b
        if kind is OpKind.MUL:
            return a * b
        # MIN/MAX mirror Python's min/max exactly — "b only if it
        # strictly improves on a" — so ties, signed zeros and NaN
        # operands all resolve to the same bits as the scalar
        # interpreter's min(a, b) / max(a, b).
        if kind is OpKind.MIN:
            return np.where(b < a, b, a)
        if kind is OpKind.MAX:
            return np.where(b > a, b, a)
        raise InterpreterError(f"unhandled binary op {kind}")  # pragma: no cover
    a = values[op.operands[0]]
    if kind is OpKind.NEG:
        return -a
    if kind is OpKind.ABS:
        return np.abs(a)
    raise InterpreterError(f"unhandled unary op {kind}")  # pragma: no cover


@dataclass
class _BatchState:
    storage: dict[str, np.ndarray]
    var_values: dict[str, np.ndarray | float]
    range_probe: RangeProbe | None


def run_program_batch(
    program: Program, stimuli: Sequence[Mapping[str, np.ndarray]]
) -> list[dict[str, np.ndarray]]:
    """One-shot convenience wrapper around :class:`BatchInterpreter`."""
    return BatchInterpreter(program).run(stimuli)


# ----------------------------------------------------------------------
# Format-domain executors (:mod:`repro.formats`).  Imported lazily:
# ``repro.formats`` pulls in the fixed-point package, which imports
# this module — a top-level import here would cycle.


def _object_map(func, array: np.ndarray) -> np.ndarray:
    """Elementwise ``func`` over ``array`` into a fresh object ndarray."""
    out = np.empty(array.shape, dtype=object)
    out.reshape(-1)[:] = [func(v) for v in array.reshape(-1).tolist()]
    return out


class OracleBatchInterpreter(BatchInterpreter):
    """The ``bigfloat`` oracle executor: exact-int binary floats.

    Same walk, but every runtime value is a
    :class:`~repro.formats.BigFloat` (object-dtype lanes), so each
    operation rounds at oracle precision (~4x float64) instead of 53
    bits.  Outputs and probed ranges come back as nearest-float64.
    """

    def __init__(
        self,
        program: Program,
        plan: VectorPlan | None = None,
        precision: int | None = None,
    ) -> None:
        super().__init__(program, plan)
        from repro.formats import ORACLE_PRECISION, BigFloat

        self._big = BigFloat
        self.precision = ORACLE_PRECISION if precision is None else precision

    def _from_float(self, value) -> object:
        return self._big.from_float(float(value), self.precision)

    # -- hooks ---------------------------------------------------------
    def _const(self, op: Operation):
        return self._from_float(op.value)

    def _lift_scalar(self, value):
        return self._from_float(value)

    def _probe_value(self, value):
        if isinstance(value, np.ndarray):
            return _object_map(float, value).astype(np.float64)
        return float(value)

    def _init_storage(self, stimuli):
        storage = super()._init_storage(stimuli)
        return {
            name: _object_map(self._from_float, columns)
            for name, columns in storage.items()
        }

    def run(self, stimuli, range_probe=None):
        outputs = super().run(stimuli, range_probe)
        return [
            {
                name: _object_map(float, arr).astype(np.float64)
                for name, arr in per_stimulus.items()
            }
            for per_stimulus in outputs
        ]


class FormatBatchInterpreter(BatchInterpreter):
    """Quantized execution in a reduced-precision binary float format.

    Inputs, coefficients, constants and variable inits are rounded
    into the format, and every ADD/SUB/MUL result is re-rounded — the
    correctly-rounded (RNE) semantics of running the kernel in that
    format.  MIN/MAX/NEG/ABS and data movement are exact on
    representable values, so no rounding is spent there.  Values are
    carried in float64 arrays, which represents every constructible
    format exactly (see :class:`repro.formats.FloatFormat`).
    """

    def __init__(
        self,
        program: Program,
        format_spec,
        plan: VectorPlan | None = None,
    ) -> None:
        super().__init__(program, plan)
        if format_spec.kind != "float":
            from repro.errors import FormatError

            raise FormatError(
                f"format {format_spec.name!r} (kind {format_spec.kind!r}) "
                f"is not a binary float execution format"
            )
        self.format = format_spec

    # -- hooks ---------------------------------------------------------
    def _const(self, op: Operation):
        return self.format.round_value(float(op.value))

    def _lift_scalar(self, value):
        return self.format.round_value(float(value))

    def _arith_result(self, op: Operation, values: dict):
        result = _arith(op, values)
        if op.kind in (OpKind.ADD, OpKind.SUB, OpKind.MUL):
            if isinstance(result, np.ndarray):
                return self.format.quantize_array(result)
            return self.format.round_value(float(result))
        return result

    def _init_storage(self, stimuli):
        storage = super()._init_storage(stimuli)
        for decl in self.program.arrays.values():
            if decl.kind in (SymbolKind.INPUT, SymbolKind.COEFF):
                storage[decl.name] = self.format.quantize_array(
                    storage[decl.name]
                )
        return storage
