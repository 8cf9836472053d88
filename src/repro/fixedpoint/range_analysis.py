"""Dynamic-range determination.

Two analyzers implement the two classic range-determination approaches
the paper cites (Section II-B): *interval arithmetic* (an abstract
interpreter over :class:`~repro.fixedpoint.interval.Interval` values)
and *simulation statistics* (min/max observation over representative
executions).  ``analyze_ranges`` tries intervals first and falls back
to simulation for programs where interval iteration diverges —
recursive filters, exactly the case ID.Fix handles with its simulation
mode.  The simulation path asks an evaluation backend for every op's
extremes over a fixed stimulus set
(:meth:`~repro.ir.backend.EvaluationBackend.op_extremes`); the default
``batch`` backend reads them off the program's instance graph.

The interval interpreter executes loops whose variable appears in a
coefficient subscript *concretely* (so each tap multiplies its actual
coefficient — the accumulated bound is the filter's L1 norm, not the
``trip * max|h|`` blow-up), and other loops *abstractly*, iterating
their body to a fixpoint of the array/variable summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import RangeAnalysisError
from repro.fixedpoint.interval import Interval
from repro.fixedpoint.spec import SlotMap
from repro.ir.backend import DEFAULT_BACKEND, get_backend
from repro.ir.ops import Operation
from repro.ir.optypes import OpKind
from repro.ir.program import BlockRef, LoopNode, Program
from repro.ir.symbols import SymbolKind

__all__ = [
    "RangeResult",
    "interval_ranges",
    "simulation_ranges",
    "analyze_ranges",
]


@dataclass
class RangeResult:
    """Per-tie-group value ranges plus provenance."""

    slotmap: SlotMap
    ranges: dict[int, Interval]
    method: str

    def range_of(self, slot: int) -> Interval:
        """Range of any slot (resolved through its tie-group root)."""
        root = self.slotmap.root_of(slot)
        found = self.ranges.get(root)
        if found is None:
            raise RangeAnalysisError(
                f"no range recorded for {self.slotmap.describe(slot)}"
            )
        return found

    def magnitude_of(self, slot: int) -> float:
        return self.range_of(slot).magnitude


# ----------------------------------------------------------------------
# Simulation-based analysis
# ----------------------------------------------------------------------
def _stimulus_set(
    program: Program, n_random: int, rng: np.random.Generator
) -> list[dict[str, np.ndarray]]:
    """Representative inputs: range extremes, alternation, random draws."""
    stimuli: list[dict[str, np.ndarray]] = []

    def build(maker) -> dict[str, np.ndarray]:
        inputs = {}
        for decl in program.input_arrays():
            lo, hi = decl.value_range  # type: ignore[misc]
            inputs[decl.name] = maker(lo, hi, decl.shape)
        return inputs

    stimuli.append(build(lambda lo, hi, s: np.full(s, hi)))
    stimuli.append(build(lambda lo, hi, s: np.full(s, lo)))

    def alternating(lo: float, hi: float, shape) -> np.ndarray:
        flat = np.empty(int(np.prod(shape)))
        flat[0::2] = hi
        flat[1::2] = lo
        return flat.reshape(shape)

    stimuli.append(build(alternating))
    for _ in range(n_random):
        stimuli.append(build(lambda lo, hi, s: rng.uniform(lo, hi, size=s)))
    return stimuli


def simulation_ranges(
    program: Program,
    slotmap: SlotMap | None = None,
    n_random: int = 6,
    margin: float = 0.5,
    seed: int = 2017,
    backend: str = DEFAULT_BACKEND,
) -> RangeResult:
    """Measure per-slot ranges by executing representative inputs.

    ``margin`` widens every measured interval relatively (0.5 = half
    again), compensating for extremes the stimuli missed; it costs at
    most one integer bit.  ``backend`` names the evaluation backend
    whose per-op extremes are folded into the tie-group roots, in the
    order the ops first execute.  ``scalar`` folds its interpreter's
    probe, ``batch`` walks the instance graph once per stimulus; both
    compute bit-identical values, so they give identical ranges.
    ``bigfloat`` probes the nearest float64 of its oracle-precision
    values, which can differ from them in the last bits.  That is why
    the backend is part of the range-analysis pass signature.
    """
    slotmap = slotmap or SlotMap(program)
    rng = np.random.default_rng(seed)
    extremes = get_backend(backend).op_extremes(
        program, _stimulus_set(program, n_random, rng)
    )
    ranges: dict[int, Interval] = {}
    for opid, (low, high) in extremes.items():
        root = slotmap.root_of(opid)
        found = ranges.get(root)
        observed = Interval(low, high)
        ranges[root] = observed if found is None else found.join(observed)
    _seed_symbol_ranges(program, slotmap, ranges)
    if margin:
        ranges = {r: iv.widen_relative(margin) for r, iv in ranges.items()}
    return RangeResult(slotmap, ranges, "simulation")


def _seed_symbol_ranges(
    program: Program, slotmap: SlotMap, ranges: dict[int, Interval]
) -> None:
    """Fold declared input/coefficient ranges into the result."""
    for decl in program.arrays.values():
        if decl.value_range is None:
            continue
        root = slotmap.root_of(slotmap.slot_of_symbol(decl.name))
        declared = Interval(*decl.value_range)
        found = ranges.get(root)
        ranges[root] = declared if found is None else found.join(declared)
    for var in program.variables.values():
        root = slotmap.root_of(slotmap.slot_of_symbol(var.name))
        init = Interval.point(var.init)
        found = ranges.get(root)
        ranges[root] = init if found is None else found.join(init)


# ----------------------------------------------------------------------
# Interval abstract interpretation
# ----------------------------------------------------------------------
@dataclass
class _AbstractState:
    program: Program
    slotmap: SlotMap
    arrays: dict[str, Interval]
    vars: dict[str, Interval]
    ranges: dict[int, Interval] = field(default_factory=dict)

    def join_slot(self, slot: int, interval: Interval) -> None:
        root = self.slotmap.root_of(slot)
        found = self.ranges.get(root)
        self.ranges[root] = interval if found is None else found.join(interval)

    def snapshot(self) -> tuple:
        return (
            tuple(sorted(self.arrays.items())),
            tuple(sorted(self.vars.items())),
            tuple(sorted(self.ranges.items())),
        )


def _coeff_index_vars(program: Program) -> frozenset[str]:
    """Loop variables appearing in any coefficient-array subscript."""
    coeff_names = {a.name for a in program.coeff_arrays()}
    vars_: set[str] = set()
    for op in program.all_ops():
        if op.kind is OpKind.LOAD and op.array in coeff_names:
            assert op.index is not None
            for ix in op.index:
                vars_.update(ix.variables)
    return frozenset(vars_)


def interval_ranges(
    program: Program,
    slotmap: SlotMap | None = None,
    max_abstract_iters: int = 64,
) -> RangeResult:
    """Bound per-slot ranges by abstract interpretation over intervals.

    Raises :class:`~repro.errors.RangeAnalysisError` when an abstractly
    iterated loop fails to reach a fixpoint within
    ``max_abstract_iters`` iterations (divergent recurrences such as
    IIR feedback); callers should fall back to simulation.
    """
    slotmap = slotmap or SlotMap(program)
    concrete_vars = _coeff_index_vars(program)

    arrays: dict[str, Interval] = {}
    for decl in program.arrays.values():
        if decl.kind is SymbolKind.INPUT:
            arrays[decl.name] = Interval(*decl.value_range)  # type: ignore[misc]
        elif decl.kind is SymbolKind.COEFF:
            assert decl.values is not None
            arrays[decl.name] = Interval(
                float(decl.values.min()), float(decl.values.max())
            )
        else:
            arrays[decl.name] = Interval.point(0.0)
    vars_ = {v.name: Interval.point(v.init) for v in program.variables.values()}

    state = _AbstractState(program, slotmap, arrays, vars_)
    env: dict[str, int | None] = {}
    _abstract_items(program.schedule, env, state, concrete_vars,
                    max_abstract_iters)

    _seed_symbol_ranges(program, slotmap, state.ranges)
    for name, interval in state.arrays.items():
        state.join_slot(slotmap.slot_of_symbol(name), interval)
    for name, interval in state.vars.items():
        state.join_slot(slotmap.slot_of_symbol(name), interval)
    return RangeResult(slotmap, state.ranges, "interval")


def _abstract_items(
    items,
    env: dict[str, int | None],
    state: _AbstractState,
    concrete_vars: frozenset[str],
    max_iters: int,
) -> None:
    for item in items:
        if isinstance(item, BlockRef):
            _abstract_block(
                state.program.blocks[item.name], env, state
            )
        elif isinstance(item, LoopNode):
            if item.var in concrete_vars:
                for i in range(item.trip):
                    env[item.var] = i
                    _abstract_items(item.body, env, state, concrete_vars,
                                    max_iters)
                del env[item.var]
            else:
                env[item.var] = None
                bound = min(item.trip, max_iters)
                stable = False
                for iteration in range(bound):
                    before = state.snapshot()
                    _abstract_items(item.body, env, state, concrete_vars,
                                    max_iters)
                    if state.snapshot() == before:
                        stable = True
                        break
                del env[item.var]
                if not stable and item.trip > bound:
                    raise RangeAnalysisError(
                        f"interval iteration over loop {item.var!r} did not "
                        f"converge within {bound} iterations (recurrence?)"
                    )


def _abstract_block(block, env: Mapping[str, int | None], state: _AbstractState) -> None:
    program = state.program
    values: dict[int, Interval] = {}
    for op in block.ops:
        interval = _abstract_op(op, values, env, state, program)
        values[op.opid] = interval
        state.join_slot(op.opid, interval)


def _abstract_op(
    op: Operation,
    values: dict[int, Interval],
    env: Mapping[str, int | None],
    state: _AbstractState,
    program: Program,
) -> Interval:
    kind = op.kind
    if kind is OpKind.CONST:
        return Interval.point(float(op.value))  # type: ignore[arg-type]
    if kind is OpKind.LOAD:
        decl = program.arrays[op.array]  # type: ignore[index]
        if decl.kind is SymbolKind.COEFF:
            cell = _resolve_coeff_cell(op, env, decl)
            if cell is not None:
                return Interval.point(cell)
        return state.arrays[op.array]  # type: ignore[index]
    if kind is OpKind.STORE:
        interval = values[op.operands[0]]
        current = state.arrays[op.array]  # type: ignore[index]
        state.arrays[op.array] = current.join(interval)  # type: ignore[index]
        return interval
    if kind is OpKind.READVAR:
        return state.vars[op.var]  # type: ignore[index]
    if kind is OpKind.WRITEVAR:
        interval = values[op.operands[0]]
        state.vars[op.var] = interval  # type: ignore[index]
        return interval
    a = values[op.operands[0]]
    if kind is OpKind.NEG:
        return -a
    if kind is OpKind.ABS:
        return a.abs()
    b = values[op.operands[1]]
    if kind is OpKind.ADD:
        return a + b
    if kind is OpKind.SUB:
        return a - b
    if kind is OpKind.MUL:
        return a * b
    if kind is OpKind.MIN:
        return a.min_with(b)
    if kind is OpKind.MAX:
        return a.max_with(b)
    raise RangeAnalysisError(f"unhandled op kind {kind}")  # pragma: no cover


def _resolve_coeff_cell(op: Operation, env: Mapping[str, int | None], decl):
    """Exact coefficient value when the subscript is fully concrete."""
    assert op.index is not None and decl.values is not None
    coords = []
    for ix in op.index:
        for var in ix.variables:
            if env.get(var) is None:
                return None
        coords.append(ix.evaluate({k: v for k, v in env.items() if v is not None}))
    try:
        return float(decl.values[tuple(coords)])
    except IndexError:
        return None


# ----------------------------------------------------------------------
def analyze_ranges(
    program: Program,
    slotmap: SlotMap | None = None,
    method: str = "auto",
    backend: str = DEFAULT_BACKEND,
    **kwargs,
) -> RangeResult:
    """Range analysis entry point.

    ``method`` is ``"interval"``, ``"simulation"`` or ``"auto"``
    (interval with simulation fallback on divergence); ``backend``
    names the evaluation backend of the simulation path.
    """
    slotmap = slotmap or SlotMap(program)
    if method == "interval":
        return interval_ranges(program, slotmap, **kwargs)
    if method == "simulation":
        return simulation_ranges(program, slotmap, backend=backend, **kwargs)
    if method != "auto":
        raise RangeAnalysisError(f"unknown range analysis method {method!r}")
    try:
        return interval_ranges(program, slotmap)
    except RangeAnalysisError:
        return simulation_ranges(program, slotmap, backend=backend, **kwargs)
