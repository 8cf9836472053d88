"""Bit-accurate fixed-point interpreter.

Executes a program over integer mantissas under a
:class:`~repro.fixedpoint.spec.FixedPointSpec`, implementing exactly
the quantization discipline described in DESIGN.md Section 3.1 (the
same discipline the analytical accuracy model and the generated C
follow):

* ``ADD/SUB/MIN/MAX`` align both operands to the node's ``fwl``;
* ``MUL`` consumes operands at their (possibly edge-narrowed) formats
  and requantizes the full-precision product to the node's ``fwl``;
* ``STORE``/array input conversion requantize to the array's format;
* variable reads/writes are exact register moves (their formats are
  tied by construction).

Overflow handling is configurable; the default is saturation, matching
the DSP targets.  The interpreter is the measurement side of every
"does the analytical model tell the truth" test in the suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import InterpreterError
from repro.fixedpoint.quantize import (
    OverflowMode,
    QuantMode,
    apply_overflow,
    float_to_mantissa,
    mantissa_to_float,
    requantize,
)
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, LoopNode, Program, flat_index
from repro.ir.symbols import SymbolKind

__all__ = [
    "FxpConfig",
    "FixedPointInterpreter",
    "check_spec_compatible",
    "run_fixed_point",
]


def check_spec_compatible(program: Program, spec: FixedPointSpec) -> None:
    """Reject specs built for a structurally different program.

    The spec may come from an analysis twin of the same kernel
    (identical ops and symbols, shorter loops) — see AnalysisContext
    in repro.pipeline.flows.  Shared by the scalar and batch executors.
    """
    twin = spec.slotmap.program
    if twin is not program and (
        twin.n_ops != program.n_ops
        or sorted(twin.arrays) != sorted(program.arrays)
        or sorted(twin.variables) != sorted(program.variables)
    ):
        raise InterpreterError("spec was built for a different program")


@dataclass(frozen=True)
class FxpConfig:
    """Quantization-policy knobs of the fixed-point semantics."""

    #: Disposal of discarded signal bits (paper default: truncation).
    quant_mode: QuantMode = QuantMode.TRUNCATE
    #: Conversion of environment inputs into their array format.
    input_mode: QuantMode = QuantMode.TRUNCATE
    #: Conversion of compile-time constants/coefficients.  Rounding is
    #: the universal choice for constants (a one-time conversion).
    const_mode: QuantMode = QuantMode.ROUND
    #: Overflow disposal on every written word.
    overflow: OverflowMode = OverflowMode.SATURATE


class FixedPointInterpreter:
    """Integer executor for a program under a fixed-point spec."""

    def __init__(
        self,
        program: Program,
        spec: FixedPointSpec,
        config: FxpConfig | None = None,
    ) -> None:
        check_spec_compatible(program, spec)
        self.program = program
        self.spec = spec
        self.config = config or FxpConfig()

    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Execute and return output arrays as *floats* (dequantized)."""
        state = self._init_state(inputs)
        env: dict[str, int] = {}
        self._run_items(self.program.schedule, env, state)
        outputs: dict[str, np.ndarray] = {}
        for decl in self.program.output_arrays():
            fwl = self.spec.fwl(self.spec.slotmap.slot_of_symbol(decl.name))
            flat = np.array(
                [mantissa_to_float(m, fwl) for m in state.arrays[decl.name]],
                dtype=np.float64,
            )
            outputs[decl.name] = flat.reshape(decl.shape)
        return outputs

    # ------------------------------------------------------------------
    def _init_state(self, inputs: Mapping[str, np.ndarray]) -> "_FxpState":
        cfg = self.config
        arrays: dict[str, list[int]] = {}
        for decl in self.program.arrays.values():
            slot = self.spec.slotmap.slot_of_symbol(decl.name)
            fwl = self.spec.fwl(slot)
            wl = self.spec.wl(slot)
            if decl.kind is SymbolKind.INPUT:
                if decl.name not in inputs:
                    raise InterpreterError(f"missing input array {decl.name!r}")
                data = np.asarray(inputs[decl.name], dtype=np.float64)
                if data.shape != decl.shape:
                    raise InterpreterError(
                        f"input {decl.name!r}: shape {data.shape} != "
                        f"declared {decl.shape}"
                    )
                arrays[decl.name] = [
                    apply_overflow(
                        float_to_mantissa(float(v), fwl, cfg.input_mode),
                        wl, cfg.overflow,
                    )
                    for v in data.flat
                ]
            elif decl.kind is SymbolKind.COEFF:
                assert decl.values is not None
                arrays[decl.name] = [
                    apply_overflow(
                        float_to_mantissa(float(v), fwl, cfg.const_mode),
                        wl, cfg.overflow,
                    )
                    for v in decl.values.flat
                ]
            else:
                arrays[decl.name] = [0] * decl.size
        variables: dict[str, int] = {}
        for var in self.program.variables.values():
            slot = self.spec.slotmap.slot_of_symbol(var.name)
            variables[var.name] = float_to_mantissa(
                var.init, self.spec.fwl(slot), cfg.const_mode
            )
        return _FxpState(arrays, variables)

    def _run_items(self, items, env: dict[str, int], state: "_FxpState") -> None:
        for item in items:
            if isinstance(item, BlockRef):
                self._run_block(self.program.blocks[item.name], env, state)
            elif isinstance(item, LoopNode):
                for i in range(item.trip):
                    env[item.var] = i
                    self._run_items(item.body, env, state)
                del env[item.var]

    # ------------------------------------------------------------------
    def _run_block(self, block, env: Mapping[str, int], state: "_FxpState") -> None:
        cfg = self.config
        spec = self.spec
        values: dict[int, int] = {}
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
                m = state.arrays[op.array][flat]  # type: ignore[index]
            elif kind is OpKind.STORE:
                src = op.operands[0]
                m = requantize(values[src], fwls[src], node_fwl, cfg.quant_mode)
                m = apply_overflow(m, node_wl, cfg.overflow)
                flat = flat_index(self.program, op, env)
                state.arrays[op.array][flat] = m  # type: ignore[index]
            elif kind is OpKind.READVAR:
                m = state.variables[op.var]  # type: ignore[index]
            elif kind is OpKind.WRITEVAR:
                # The written value's producer is format-tied to the
                # variable, so this is an exact register move.
                m = values[op.operands[0]]
                state.variables[op.var] = m  # type: ignore[index]
            elif kind is OpKind.MUL:
                m = self._exec_mul(op, values, fwls, node_fwl, node_wl)
            elif op.is_binary:
                a = requantize(values[op.operands[0]], fwls[op.operands[0]],
                               node_fwl, cfg.quant_mode)
                b = requantize(values[op.operands[1]], fwls[op.operands[1]],
                               node_fwl, cfg.quant_mode)
                if kind is OpKind.ADD:
                    m = a + b
                elif kind is OpKind.SUB:
                    m = a - b
                elif kind is OpKind.MIN:
                    m = min(a, b)
                else:  # MAX
                    m = max(a, b)
                m = apply_overflow(m, node_wl, cfg.overflow)
            else:  # unary NEG / ABS
                a = requantize(values[op.operands[0]], fwls[op.operands[0]],
                               node_fwl, cfg.quant_mode)
                m = -a if kind is OpKind.NEG else abs(a)
                m = apply_overflow(m, node_wl, cfg.overflow)
            values[op.opid] = m
            fwls[op.opid] = node_fwl

    def _exec_mul(
        self,
        op: Operation,
        values: dict[int, int],
        fwls: dict[int, int],
        node_fwl: int,
        node_wl: int,
    ) -> int:
        """Multiply with per-edge operand narrowing (SLP lane widths)."""
        cfg = self.config
        spec = self.spec
        factors: list[int] = []
        cons_fwls: list[int] = []
        for pos in (0, 1):
            src = op.operands[pos]
            f_cons = spec.consumption_fwl(op.opid, pos)
            m = requantize(values[src], fwls[src], f_cons, cfg.quant_mode)
            factors.append(m)
            cons_fwls.append(f_cons)
        product = factors[0] * factors[1]
        m = requantize(product, cons_fwls[0] + cons_fwls[1], node_fwl,
                       cfg.quant_mode)
        return apply_overflow(m, node_wl, cfg.overflow)


@dataclass
class _FxpState:
    arrays: dict[str, list[int]]
    variables: dict[str, int]
    clock: int = field(default=0)


def run_fixed_point(
    program: Program,
    spec: FixedPointSpec,
    inputs: Mapping[str, np.ndarray],
    config: FxpConfig | None = None,
) -> dict[str, np.ndarray]:
    """One-shot convenience wrapper."""
    return FixedPointInterpreter(program, spec, config).run(inputs)
