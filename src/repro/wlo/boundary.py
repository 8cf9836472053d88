"""Boundary word-length harmonization.

A refinement pass run after SCALOPTIM (and in its spirit): the paper's
Fig. 1a leaves every *ungrouped* node at the maximum word length, so
each dataflow edge crossing a group boundary (vector lane -> scalar
consumer, scalar producer -> vector lane) needs a format-conversion
shift.  This pass walks ungrouped arithmetic/store nodes adjacent to
narrower neighbours and tries to narrow them to the widest adjacent
word length, accepting each move only when the accuracy constraint
still holds.

Word lengths only ever shrink toward the target's supported widths, so
the result stays implementable; the accuracy model guards every move
exactly like SCALOPTIM's.  Disable with ``harmonize=False`` on
``wlo_slp_optimize`` to measure its effect (ablation benchmark B2).
"""

from __future__ import annotations

from repro.accuracy.analytical import AccuracyModel
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.optypes import ARITHMETIC_KINDS, OpKind
from repro.ir.program import Program
from repro.slp.accuracy_aware import set_group_wl
from repro.targets.model import WordLengths

__all__ = ["harmonize_boundary_wls"]

_ELIGIBLE = ARITHMETIC_KINDS | {OpKind.STORE}


def harmonize_boundary_wls(
    program: Program,
    spec: FixedPointSpec,
    model: AccuracyModel,
    word_lengths: WordLengths,
    constraint_db: float,
    grouped_ops: set[int],
    groups: list | None = None,
    max_passes: int = 4,
) -> int:
    """Narrow nodes toward their neighbours' word lengths.

    Two move classes, both accuracy-guarded:

    * *scalar moves* — an ungrouped arithmetic/store node narrows to
      the widest word length among its narrower neighbours;
    * *group moves* — a whole SIMD group narrows below its eq. (1)
      maximum to match an adjacent narrower group (e.g. a 16-bit pair
      consuming an 8-bit quad), eliminating the lane-width conversion
      at the boundary.  Narrowing keeps ``wl * size <= datapath``, so
      legality is preserved.

    Returns the number of accepted moves.
    """
    consumers: dict[int, list[int]] = {}
    for op in program.all_ops():
        for producer in op.operands:
            consumers.setdefault(producer, []).append(op.opid)

    supported = sorted(word_lengths.supported_wls)
    accepted = 0
    for _ in range(max_passes):
        changed = False
        for op in program.all_ops():
            if op.opid in grouped_ops or op.kind not in _ELIGIBLE:
                continue
            current = spec.wl(op.opid)
            wanted = _wanted_wl(
                spec, program, (op.opid,), consumers, supported, current
            )
            if wanted is None:
                continue
            token = spec.save()
            spec.set_wl(op.opid, wanted)
            if model.violates(spec, constraint_db):
                spec.revert(token)
                continue
            accepted += 1
            changed = True
        for group in groups or ():
            current = spec.wl(group.lanes[0])
            wanted = _wanted_wl(
                spec, program, group.lanes, consumers, supported, current,
                exclude=set(group.lanes),
            )
            if wanted is None or wanted not in word_lengths.simd_widths:
                continue
            token = spec.save()
            set_group_wl(spec, program, group.lanes, wanted)
            if model.violates(spec, constraint_db):
                spec.revert(token)
                continue
            accepted += 1
            changed = True
        if not changed:
            break
    return accepted


def _wanted_wl(
    spec: FixedPointSpec,
    program: Program,
    opids: tuple[int, ...],
    consumers: dict[int, list[int]],
    supported: list[int],
    current: int,
    exclude: set[int] | None = None,
) -> int | None:
    """Widest narrower-neighbour word length, snapped to supported."""
    exclude = exclude or set()
    neighbour_wls = []
    for opid in opids:
        op = program.op(opid)
        for neighbour in (*op.operands, *consumers.get(opid, ())):
            if neighbour in exclude:
                continue
            if program.op(neighbour).kind is OpKind.CONST:
                continue
            neighbour_wls.append(spec.wl(neighbour))
    narrower = [w for w in neighbour_wls if w < current]
    if not narrower:
        return None
    wanted = max(narrower)
    wanted = next((w for w in supported if w >= wanted), current)
    if wanted >= current:
        return None
    return wanted
