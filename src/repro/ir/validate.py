"""Structural validation of IR programs.

``validate_program`` is run automatically by the builder; it enforces
the invariants the rest of the library assumes (def-before-use, opid
uniqueness, in-range constant indices, acyclic blocks, every block
scheduled exactly once).
"""

from __future__ import annotations

from repro.errors import IRError, ValidationError
from repro.ir.deps import build_dependence_graph
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, LoopNode, Program

__all__ = ["validate_program"]


def validate_program(program: Program) -> None:
    """Raise :class:`ValidationError` on any structural violation."""
    _check_schedule(program)
    _check_blocks(program)
    _check_indices(program)
    _check_acyclic(program)


def _check_schedule(program: Program) -> None:
    seen: set[str] = set()

    def visit(items) -> None:
        for item in items:
            if isinstance(item, BlockRef):
                if item.name in seen:
                    raise ValidationError(
                        f"block {item.name!r} scheduled more than once"
                    )
                seen.add(item.name)
            elif isinstance(item, LoopNode):
                visit(item.body)

    visit(program.schedule)
    missing = set(program.blocks) - seen
    if missing:
        raise ValidationError(f"blocks never scheduled: {sorted(missing)}")


def _check_blocks(program: Program) -> None:
    for block in program.blocks.values():
        defined: set[int] = set()
        for op in block.ops:
            for operand in op.operands:
                if operand not in defined:
                    raise ValidationError(
                        f"block {block.name!r}: op {op.opid} uses %{operand} "
                        "before definition (or from another block)"
                    )
            if op.opid in defined:
                raise ValidationError(f"duplicate opid {op.opid}")
            defined.add(op.opid)
            if op.kind in (OpKind.LOAD, OpKind.STORE):
                if op.array not in program.arrays:
                    raise ValidationError(
                        f"op {op.opid}: unknown array {op.array!r}"
                    )
            if op.kind in (OpKind.READVAR, OpKind.WRITEVAR):
                if op.var not in program.variables:
                    raise ValidationError(
                        f"op {op.opid}: unknown variable {op.var!r}"
                    )


def _check_indices(program: Program) -> None:
    extents = program.loop_extents()
    for op in program.all_ops():
        if not op.touches_memory:
            continue
        decl = program.arrays[op.array]  # type: ignore[index]
        block = program.blocks[op.block]
        visible = set(block.loop_vars)
        assert op.index is not None
        for dim, ix in enumerate(op.index):
            for var in ix.variables:
                if var not in visible:
                    raise ValidationError(
                        f"op {op.opid}: index uses loop var {var!r} not "
                        f"enclosing block {block.name!r}"
                    )
            lo, hi = ix.bounds(extents)
            if lo < 0 or hi >= decl.shape[dim]:
                raise ValidationError(
                    f"op {op.opid}: {op.array}[dim {dim}] subscript range "
                    f"[{lo}, {hi}] exceeds extent {decl.shape[dim]}"
                )


def _check_acyclic(program: Program) -> None:
    for block in program.blocks.values():
        try:
            build_dependence_graph(block)
        except IRError as exc:
            raise ValidationError(
                f"block {block.name!r} has a dependence cycle"
            ) from exc
