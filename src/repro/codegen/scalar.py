"""Scalar fixed-point lowering.

Translates an IR block into machine ops under a fixed-point spec,
following the same quantization discipline as the interpreters:
operand alignment shifts before adds, requantization shifts after
multiplies and before stores.  Register moves (variable reads/writes,
constants) cost nothing — their values live in registers / immediates.

The result of ``lower_scalar_program`` feeds the list scheduler, which
produces the baseline cycle counts of the paper's eq. (2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CodegenError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.block import BasicBlock
from repro.ir.deps import dependence_graph, is_loop_invariant_load
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import Program
from repro.scheduler.machineop import MachineBlock
from repro.targets.model import TargetModel

__all__ = ["ScalarLowering", "lower_scalar_block", "lower_scalar_program"]

#: Machine-op mnemonics per IR kind for the plain ALU cases.
_ALU_NAMES = {
    OpKind.ADD: "add",
    OpKind.SUB: "sub",
    OpKind.MIN: "min",
    OpKind.MAX: "max",
    OpKind.NEG: "neg",
    OpKind.ABS: "abs",
}


@dataclass
class ScalarLowering:
    """Shared lowering machinery for one block (scalar path).

    The SIMD lowering subclasses the operand-fetch behaviour; keeping
    the requantization helpers here guarantees both paths charge the
    same shifts for the same format conversions.
    """

    program: Program
    block: BasicBlock
    spec: FixedPointSpec
    target: TargetModel
    machine: MachineBlock = field(init=False)
    #: IR opid -> machine id of its value (None = free: live-in reg or imm).
    value_mid: dict[int, int | None] = field(default_factory=dict)
    #: IR opid -> machine id anchoring ordering deps (memory/scalar).
    anchor_mid: dict[int, int | None] = field(default_factory=dict)
    #: variable name -> machine id of its current in-block value.
    var_mid: dict[str, int | None] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.machine = MachineBlock(self.block.name)
        self.deps = dependence_graph(self.program, self.block)

    # ------------------------------------------------------------------
    # Helpers shared with the SIMD lowering
    # ------------------------------------------------------------------
    def order_preds(self, op: Operation) -> tuple[int, ...]:
        """Machine ids enforcing memory/scalar ordering for ``op``."""
        anchors = (
            self.anchor_mid.get(pred)
            for pred in self.deps.ordering_predecessors(op.opid)
        )
        return tuple(a for a in anchors if a is not None)

    def emit_shift(
        self, source: int | None, amount: int, comment: str
    ) -> int | None:
        """Requantization shift by ``amount`` bits (no-op when 0)."""
        if amount == 0:
            return source
        name = "shr" if amount > 0 else "shl"
        preds = (source,) if source is not None else ()
        return self.machine.add(
            name, "alu", self.target.shift_latency(amount),
            preds=tuple(p for p in preds if p is not None),
            comment=comment,
        )

    def fetch(self, opid: int) -> int | None:
        """Machine id of an IR value (hook point for the SIMD path)."""
        return self.value_mid[opid]

    # ------------------------------------------------------------------
    def lower(self) -> MachineBlock:
        for op in self.block.ops:
            self.lower_op(op)
        return self.machine

    def lower_op(self, op: Operation) -> None:
        kind = op.kind
        if kind is OpKind.CONST:
            self.value_mid[op.opid] = None  # immediate
            self.anchor_mid[op.opid] = None
        elif kind is OpKind.READVAR:
            self.value_mid[op.opid] = self.var_mid.get(op.var)  # type: ignore[arg-type]
            self.anchor_mid[op.opid] = None
        elif kind is OpKind.WRITEVAR:
            mid = self.fetch(op.operands[0])
            self.var_mid[op.var] = mid  # type: ignore[index]
            self.value_mid[op.opid] = mid
            self.anchor_mid[op.opid] = None
        elif kind is OpKind.LOAD:
            if is_loop_invariant_load(self.program, op):
                # Hoisted by LICM: lives in a register across the loop.
                self.value_mid[op.opid] = None
                self.anchor_mid[op.opid] = None
                return
            mid = self.machine.add(
                "ld", "mem", self.target.latency("mem"),
                preds=self.order_preds(op), origin=op.opid,
                comment=f"{op.array}",
            )
            self.value_mid[op.opid] = mid
            self.anchor_mid[op.opid] = mid
        elif kind is OpKind.STORE:
            self.lower_store(op)
        elif kind is OpKind.MUL:
            self.lower_mul(op)
        elif kind in _ALU_NAMES:
            self.lower_alu(op)
        else:  # pragma: no cover - enum closed
            raise CodegenError(f"cannot lower op kind {kind}")

    # ------------------------------------------------------------------
    def lower_store(self, op: Operation) -> None:
        producer = op.operands[0]
        delta = self.spec.fwl(producer) - self.spec.fwl(op.opid)
        mid = self.emit_shift(self.fetch(producer), delta, "store requant")
        preds = tuple(p for p in (mid,) if p is not None) + self.order_preds(op)
        store = self.machine.add(
            "st", "mem", self.target.latency("mem"), preds=preds,
            origin=op.opid, comment=f"{op.array}",
        )
        self.value_mid[op.opid] = store
        self.anchor_mid[op.opid] = store

    def lower_alu(self, op: Operation) -> None:
        node_fwl = self.spec.fwl(op.opid)
        operand_mids = []
        for producer in op.operands:
            delta = self.spec.fwl(producer) - node_fwl
            operand_mids.append(
                self.emit_shift(self.fetch(producer), delta, "align")
            )
        preds = tuple(m for m in operand_mids if m is not None)
        mid = self.machine.add(
            _ALU_NAMES[op.kind], "alu", self.target.latency("alu"),
            preds=preds, origin=op.opid,
        )
        self.value_mid[op.opid] = mid
        self.anchor_mid[op.opid] = mid

    def lower_mul(self, op: Operation) -> None:
        cons_fwls = []
        operand_mids = []
        for pos, producer in enumerate(op.operands):
            f_cons = self.spec.consumption_fwl(op.opid, pos)
            delta = self.spec.fwl(producer) - f_cons
            operand_mids.append(
                self.emit_shift(self.fetch(producer), delta, "narrow")
            )
            cons_fwls.append(f_cons)
        preds = tuple(m for m in operand_mids if m is not None)
        mul = self.machine.add(
            "mul", "mul", self.target.latency("mul"), preds=preds,
            origin=op.opid,
        )
        delta_out = (cons_fwls[0] + cons_fwls[1]) - self.spec.fwl(op.opid)
        mid = self.emit_shift(mul, delta_out, "mul requant")
        self.value_mid[op.opid] = mid
        self.anchor_mid[op.opid] = mul if mid is None else mid


def lower_scalar_block(
    program: Program,
    block: BasicBlock,
    spec: FixedPointSpec,
    target: TargetModel,
) -> MachineBlock:
    """Lower one block to scalar fixed-point machine ops."""
    return ScalarLowering(program, block, spec, target).lower()


def lower_scalar_program(
    program: Program,
    spec: FixedPointSpec,
    target: TargetModel,
) -> dict[str, MachineBlock]:
    """Lower every block of ``program`` (scalar fixed-point)."""
    return {
        name: lower_scalar_block(program, block, spec, target)
        for name, block in program.blocks.items()
    }
