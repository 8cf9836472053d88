"""Floating-point lowering.

Lowers blocks as single-precision float code — the reference the
paper's Fig. 6 compares against.  On targets with hardware floating
point (ST240) each arithmetic op is one pipelined FPU instruction; on
FPU-less targets (XENTIUM, VEX) every float operation expands into a
soft-float emulation call, modeled as a long-latency op on a single
serialized ``sfu`` unit — which is why fixed-point conversion buys the
paper's 15-45x there.
"""

from __future__ import annotations

from repro.errors import CodegenError
from repro.ir.block import BasicBlock
from repro.ir.deps import dependence_graph
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.scheduler.machineop import MachineBlock
from repro.targets.model import TargetModel

__all__ = ["lower_float_block", "lower_float_program"]

_FLOAT_NAMES = {
    OpKind.ADD: "fadd",
    OpKind.SUB: "fsub",
    OpKind.MUL: "fmul",
}
#: Sign manipulations and comparisons are integer-cheap even in float
#: code paths (sign-bit flips, compare-select).
_CHEAP_ALU = {OpKind.NEG, OpKind.ABS, OpKind.MIN, OpKind.MAX}


def lower_float_block(
    program: Program, block: BasicBlock, target: TargetModel
) -> MachineBlock:
    """Lower one block as floating-point code."""
    machine = MachineBlock(block.name)
    deps = dependence_graph(program, block)
    value_mid: dict[int, int | None] = {}
    anchor_mid: dict[int, int | None] = {}
    var_mid: dict[str, int | None] = {}

    def order_preds(opid: int) -> tuple[int, ...]:
        anchors = (anchor_mid.get(p) for p in deps.ordering_predecessors(opid))
        return tuple(a for a in anchors if a is not None)

    for op in block.ops:
        kind = op.kind
        if kind is OpKind.CONST:
            value_mid[op.opid] = None
            anchor_mid[op.opid] = None
        elif kind is OpKind.READVAR:
            value_mid[op.opid] = var_mid.get(op.var)  # type: ignore[arg-type]
            anchor_mid[op.opid] = None
        elif kind is OpKind.WRITEVAR:
            mid = value_mid[op.operands[0]]
            var_mid[op.var] = mid  # type: ignore[index]
            value_mid[op.opid] = mid
            anchor_mid[op.opid] = None
        elif kind is OpKind.LOAD:
            mid = machine.add(
                "ld", "mem", target.latency("mem"),
                preds=order_preds(op.opid), origin=op.opid,
            )
            value_mid[op.opid] = mid
            anchor_mid[op.opid] = mid
        elif kind is OpKind.STORE:
            src = value_mid[op.operands[0]]
            preds = tuple(p for p in (src,) if p is not None)
            mid = machine.add(
                "st", "mem", target.latency("mem"),
                preds=preds + order_preds(op.opid), origin=op.opid,
            )
            value_mid[op.opid] = mid
            anchor_mid[op.opid] = mid
        elif kind in _FLOAT_NAMES:
            name = _FLOAT_NAMES[kind]
            operand_mids = tuple(
                m for m in (value_mid[p] for p in op.operands) if m is not None
            )
            if target.has_hw_float:
                # fsub shares the adder pipeline with fadd.
                latency = target.float_latencies.get(
                    name, target.float_latencies["fadd"]
                )
                mid = machine.add(
                    name, "mul", latency, preds=operand_mids, origin=op.opid,
                )
            else:
                mid = machine.add(
                    name, "sfu", target.softfloat_latency(name),
                    preds=operand_mids, origin=op.opid,
                )
            value_mid[op.opid] = mid
            anchor_mid[op.opid] = mid
        elif kind in _CHEAP_ALU:
            operand_mids = tuple(
                m for m in (value_mid[p] for p in op.operands) if m is not None
            )
            mid = machine.add(
                kind.value, "alu", target.latency("alu"),
                preds=operand_mids, origin=op.opid,
            )
            value_mid[op.opid] = mid
            anchor_mid[op.opid] = mid
        else:  # pragma: no cover - enum closed
            raise CodegenError(f"cannot float-lower kind {kind}")
    return machine


def lower_float_program(
    program: Program, target: TargetModel
) -> dict[str, MachineBlock]:
    """Lower every block as floating-point code."""
    return {
        name: lower_float_block(program, block, target)
        for name, block in program.blocks.items()
    }
