"""Batched bit-accurate fixed-point interpreter.

The array counterpart of
:class:`~repro.fixedpoint.fxpinterp.FixedPointInterpreter`: runtime
mantissas are ndarray columns with the stimulus set as the trailing
axis, and loops proven independent by :mod:`repro.ir.vectorize` run as
array lanes.  Each operation quantizes, computes and applies overflow
on the whole array at once through the ``*_array`` primitives of
:mod:`repro.fixedpoint.quantize`, whose elementwise semantics are the
scalar primitives' — which makes this executor bit-identical to the
scalar one on every program (the golden contract of
``tests/test_backend.py``).

Execution tiers
---------------
The interpreter picks one of two lane representations per program at
construction time:

* ``int64`` — native numpy lanes, used when the width proof of
  :mod:`repro.fixedpoint.widthproof` certifies that every mantissa and
  every transient (multiply products, pre-overflow sums, rounding
  offsets) fits a signed 64-bit word.  Same per-op code, same
  primitives' core, ~an order of magnitude faster.
* ``object`` — ndarrays of Python ints (arbitrary precision), the
  universal fallback for programs the proof cannot bound.

The choice is transparent: both tiers are bit-identical by
construction, so nothing downstream (accuracy numbers, caches, golden
tests) may depend on it.  ``force_object=True`` or the
``REPRO_FXP_FORCE_OBJECT=1`` environment knob pin the object tier, so
the fallback path stays reachable on machines where every kernel
proves int64-safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InterpreterError
from repro.fixedpoint.fxpinterp import FxpConfig, check_spec_compatible
from repro.fixedpoint.quantize import (
    apply_overflow,
    apply_overflow_array,
    apply_overflow_array_i64,
    float_to_mantissa,
    float_to_mantissa_array,
    mantissa_to_float_array,
    requantize_array,
    requantize_array_i64,
)
from repro.fixedpoint.spec import FixedPointSpec
from repro.fixedpoint.widthproof import prove_int64_safe
from repro.ir.batch import BatchExecutorBase, stack_input_columns
from repro.ir.block import BasicBlock
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import Program, flat_index
from repro.ir.symbols import SymbolKind
from repro.ir.vectorize import VectorPlan

__all__ = [
    "FORCE_OBJECT_ENV",
    "BatchFixedPointInterpreter",
    "fixed_point_tier",
    "run_fixed_point_batch",
]

#: Environment knob pinning the object tier (any value but ``0``/empty).
FORCE_OBJECT_ENV = "REPRO_FXP_FORCE_OBJECT"


def _force_object_env() -> bool:
    return os.environ.get(FORCE_OBJECT_ENV, "").strip() not in ("", "0")


def fixed_point_tier(
    program: Program,
    spec: FixedPointSpec,
    config: FxpConfig | None = None,
    force_object: bool = False,
) -> str:
    """The lane tier (``"int64"``/``"object"``) the batch interpreter
    would pick, without building one (no vectorization plan needed)."""
    if force_object or _force_object_env():
        return "object"
    proof = prove_int64_safe(program, spec, config)
    return "int64" if proof.safe else "object"


class BatchFixedPointInterpreter(BatchExecutorBase):
    """Integer executor evaluating every stimulus in one pass."""

    def __init__(
        self,
        program: Program,
        spec: FixedPointSpec,
        config: FxpConfig | None = None,
        plan: VectorPlan | None = None,
        force_object: bool = False,
    ) -> None:
        check_spec_compatible(program, spec)
        super().__init__(program, plan)
        self.spec = spec
        self.config = config or FxpConfig()
        self.proof = prove_int64_safe(program, spec, self.config)
        self.native = bool(
            self.proof.safe and not force_object and not _force_object_env()
        )
        if self.native:
            self._requantize = requantize_array_i64
            self._apply_overflow = apply_overflow_array_i64
        else:
            self._requantize = requantize_array
            self._apply_overflow = apply_overflow_array

    @property
    def tier(self) -> str:
        """Lane representation this instance runs on."""
        return "int64" if self.native else "object"

    # ------------------------------------------------------------------
    def run(
        self, stimuli: Sequence[Mapping[str, np.ndarray]]
    ) -> list[dict[str, np.ndarray]]:
        """Execute over ``stimuli``; one dequantized dict per stimulus."""
        if not stimuli:
            raise InterpreterError("batch run needs at least one stimulus")
        state = self._init_state(stimuli)
        self._run_items(self.program.schedule, {}, state)
        outputs: list[dict[str, np.ndarray]] = []
        floats = {
            decl.name: mantissa_to_float_array(
                state.arrays[decl.name],
                self.spec.fwl(self.spec.slotmap.slot_of_symbol(decl.name)),
            )
            for decl in self.program.output_arrays()
        }
        for s in range(len(stimuli)):
            outputs.append({
                name: column[:, s].copy().reshape(
                    self.program.arrays[name].shape
                )
                for name, column in floats.items()
            })
        return outputs

    # ------------------------------------------------------------------
    def _init_state(
        self, stimuli: Sequence[Mapping[str, np.ndarray]]
    ) -> "_BatchFxpState":
        cfg = self.config
        n_stimuli = len(stimuli)
        # The initial float -> mantissa conversion always runs on the
        # exact object path (stimuli are unbounded until overflow is
        # applied); in the native tier the post-overflow columns are
        # then cast to int64 lanes — lossless, because the width proof
        # guarantees every array word length fits the lane.
        lane_dtype = np.int64 if self.native else object
        arrays: dict[str, np.ndarray] = {}
        for decl in self.program.arrays.values():
            slot = self.spec.slotmap.slot_of_symbol(decl.name)
            fwl = self.spec.fwl(slot)
            wl = self.spec.wl(slot)
            if decl.kind is SymbolKind.INPUT:
                stacked = stack_input_columns(decl, stimuli)
                arrays[decl.name] = apply_overflow_array(
                    float_to_mantissa_array(stacked, fwl, cfg.input_mode),
                    wl, cfg.overflow,
                ).astype(lane_dtype)
            elif decl.kind is SymbolKind.COEFF:
                assert decl.values is not None
                column = apply_overflow_array(
                    float_to_mantissa_array(
                        decl.values.reshape(-1), fwl, cfg.const_mode
                    ),
                    wl, cfg.overflow,
                ).astype(lane_dtype)
                arrays[decl.name] = np.repeat(
                    column[:, None], n_stimuli, axis=1
                )
            else:
                arrays[decl.name] = np.zeros(
                    (decl.size, n_stimuli), dtype=lane_dtype
                )
        variables: dict[str, object] = {}
        for var in self.program.variables.values():
            slot = self.spec.slotmap.slot_of_symbol(var.name)
            variables[var.name] = float_to_mantissa(
                var.init, self.spec.fwl(slot), cfg.const_mode
            )
        return _BatchFxpState(arrays, variables)

    # ------------------------------------------------------------------
    def _run_block(
        self, block: BasicBlock, env: Mapping, state: "_BatchFxpState"
    ) -> None:
        cfg = self.config
        spec = self.spec
        values: dict[int, object] = {}
        fwls: dict[int, int] = {}
        for op in block.ops:
            kind = op.kind
            node_fwl = spec.fwl(op.opid)
            node_wl = spec.wl(op.opid)
            if kind is OpKind.CONST:
                m = float_to_mantissa(float(op.value), node_fwl, cfg.const_mode)  # type: ignore[arg-type]
                m = apply_overflow(m, node_wl, cfg.overflow)
            elif kind is OpKind.LOAD:
                flat = flat_index(self.program, op, env)
                m = state.arrays[op.array][flat]
                if type(flat) is int:
                    m = m.copy()  # detach from later stores into the row
            elif kind is OpKind.STORE:
                src = op.operands[0]
                m = self._requantize(values[src], fwls[src], node_fwl,
                                     cfg.quant_mode)
                m = self._apply_overflow(m, node_wl, cfg.overflow)
                state.arrays[op.array][flat_index(self.program, op, env)] = m
            elif kind is OpKind.READVAR:
                m = state.variables[op.var]  # type: ignore[index]
            elif kind is OpKind.WRITEVAR:
                # Exact register move (formats tied by construction).
                m = values[op.operands[0]]
                state.variables[op.var] = m  # type: ignore[index]
            elif kind is OpKind.MUL:
                m = self._exec_mul(op, values, fwls, node_fwl, node_wl)
            elif op.is_binary:
                a = self._requantize(values[op.operands[0]],
                                     fwls[op.operands[0]],
                                     node_fwl, cfg.quant_mode)
                b = self._requantize(values[op.operands[1]],
                                     fwls[op.operands[1]],
                                     node_fwl, cfg.quant_mode)
                if kind is OpKind.ADD:
                    m = a + b
                elif kind is OpKind.SUB:
                    m = a - b
                elif kind is OpKind.MIN:
                    m = _minimum(a, b)
                else:  # MAX
                    m = _maximum(a, b)
                m = self._apply_overflow(m, node_wl, cfg.overflow)
            else:  # unary NEG / ABS
                a = self._requantize(values[op.operands[0]],
                                     fwls[op.operands[0]],
                                     node_fwl, cfg.quant_mode)
                m = -a if kind is OpKind.NEG else abs(a)
                m = self._apply_overflow(m, node_wl, cfg.overflow)
            values[op.opid] = m
            fwls[op.opid] = node_fwl

    def _exec_mul(
        self,
        op: Operation,
        values: dict[int, object],
        fwls: dict[int, int],
        node_fwl: int,
        node_wl: int,
    ) -> object:
        """Multiply with per-edge operand narrowing (SLP lane widths)."""
        cfg = self.config
        spec = self.spec
        factors = []
        cons_fwls = []
        for pos in (0, 1):
            src = op.operands[pos]
            f_cons = spec.consumption_fwl(op.opid, pos)
            factors.append(self._requantize(values[src], fwls[src], f_cons,
                                            cfg.quant_mode))
            cons_fwls.append(f_cons)
        product = factors[0] * factors[1]
        m = self._requantize(product, cons_fwls[0] + cons_fwls[1], node_fwl,
                             cfg.quant_mode)
        return self._apply_overflow(m, node_wl, cfg.overflow)


def _minimum(a, b):
    """Elementwise ``min`` in Python's exact form (b only if b < a)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b < a, b, a)
    return min(a, b)


def _maximum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.where(b > a, b, a)
    return max(a, b)


@dataclass
class _BatchFxpState:
    arrays: dict[str, np.ndarray]
    variables: dict[str, object]


def run_fixed_point_batch(
    program: Program,
    spec: FixedPointSpec,
    stimuli: Sequence[Mapping[str, np.ndarray]],
    config: FxpConfig | None = None,
    force_object: bool = False,
) -> list[dict[str, np.ndarray]]:
    """One-shot convenience wrapper."""
    return BatchFixedPointInterpreter(
        program, spec, config, force_object=force_object
    ).run(stimuli)
