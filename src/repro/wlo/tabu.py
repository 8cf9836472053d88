"""Tabu-search word-length optimization (the WLO-First engine).

Re-implementation of the Tabu WLO of Nguyen (EUSIPCO 2011) as used by
the paper's baseline flow (Section V-A): minimize the WL-relative cost
model subject to the accuracy constraint, moving one tie-group at a
time through the target's supported word lengths, with a recency tabu
list and best-solution aspiration.

The search is deterministic for a given program/constraint — but its
solutions respond discontinuously to the constraint, which is exactly
the "varies randomly" behaviour Table I reports for WLO-First.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accuracy.analytical import AccuracyModel
from repro.errors import WLOError
from repro.fixedpoint.spec import FixedPointSpec
from repro.ir.program import Program
from repro.targets.model import WordLengths
from repro.wlo.continuation import apply_warm_start
from repro.wlo.cost import WlCostTable

__all__ = ["TabuConfig", "TabuResult", "tabu_wlo"]


@dataclass(frozen=True)
class TabuConfig:
    """Tuning knobs of the Tabu search."""

    max_iterations: int = 120
    tenure: int = 7
    #: Stop after this many consecutive non-improving iterations.
    patience: int = 30
    #: Stall budget when a warm-start seed was adopted.  A continuation
    #: seed already sits next to the optimum, so the long plateau
    #: patience of a cold descent would only pad the termination tail;
    #: the warm quality contract (cost ≤ cold) stays pinned by
    #: ``tests/test_wlo_continuation.py``.
    warm_patience: int = 6


@dataclass
class TabuResult:
    """Outcome of a Tabu WLO run."""

    best_cost: float
    iterations: int
    evaluations: int
    improved_moves: int = 0
    best_assignment: dict[int, int] = field(default_factory=dict)
    #: Whether the search actually continued from a warm-start seed
    #: (``False`` for cold runs *and* for rejected/unusable seeds).
    warm_start: bool = False


def _step_table(supported: list[int]) -> np.ndarray:
    """The supported word lengths one step narrower and one step wider
    than each supported word length, indexed by it (0: no such step)."""
    table = np.zeros((max(supported) + 1, 2), dtype=np.int64)
    for wl in supported:
        table[wl] = (
            max((w for w in supported if w < wl), default=0),
            min((w for w in supported if w > wl), default=0),
        )
    return table


def tabu_wlo(
    program: Program,
    spec: FixedPointSpec,
    model: AccuracyModel,
    word_lengths: WordLengths,
    constraint_db: float,
    config: TabuConfig | None = None,
    warm_start: dict[int, int] | None = None,
) -> TabuResult:
    """Optimize ``spec`` in place; returns search statistics.

    Starts from the all-maximum-WL assignment (the most accurate
    natively supported spec); raises :class:`WLOError` when even that
    violates the constraint (infeasible problem).

    ``warm_start`` (a root → word-length assignment, typically the
    nearest stricter constraint's solution) replaces the all-max
    starting point when it is complete, supported and feasible at this
    constraint — the tabu search then begins next to the optimum and
    terminates on patience after a handful of iterations instead of
    descending the full width ladder.  An unusable or infeasible seed
    falls back to the cold start.  The search stays deterministic for
    fixed inputs: one (program, constraint, warm start) triple always
    produces the same trajectory.
    """
    config = config or TabuConfig()
    slotmap = spec.slotmap
    roots = slotmap.roots
    supported = sorted(word_lengths.supported_wls)

    for root in roots:
        spec.set_wl(root, word_lengths.max_wl)
    if model.violates(spec, constraint_db):
        raise WLOError(
            f"accuracy constraint {constraint_db} dB is infeasible even at "
            f"{word_lengths.max_wl}-bit word lengths"
        )
    warm = False
    if warm_start is not None:
        token = spec.save()
        if apply_warm_start(spec, warm_start, supported) and not model.violates(
            spec, constraint_db
        ):
            warm = True
        else:
            spec.revert(token)

    def snapshot() -> dict[int, int]:
        return {root: spec.wl(root) for root in roots}

    costs = WlCostTable(program, word_lengths)
    current = best_cost = costs.cost(spec)
    best = snapshot()
    root_array = np.array(roots, dtype=np.int64)
    steps = _step_table(supported)
    tabu_until = np.zeros(slotmap.n_slots, dtype=np.int64)
    evaluations = 0
    improved = 0
    stall = 0
    iteration = 0

    for iteration in range(1, config.max_iterations + 1):
        # The neighbourhood in (root, word length) order: roots
        # ascending, the narrower step before the wider one.
        step = steps[spec.wl_vector()[root_array]]
        exists = step > 0
        move_roots = np.repeat(root_array, 2)[exists.ravel()]
        move_wls = step[exists]
        evaluations += move_roots.size
        violated = model.move_violations(spec, move_roots, move_wls, constraint_db)
        move_costs = costs.move_costs(spec, move_roots, move_wls, current)
        # Aspiration: a tabu root moves only to beat the best cost.
        allowed = ~violated & (
            (tabu_until[move_roots] < iteration) | (move_costs < best_cost)
        )
        if not allowed.any():
            break  # no feasible move at all
        # The moves are in (root, wl) order, so the first minimum is
        # the least (cost, root, wl).
        pick = int(np.argmin(np.where(allowed, move_costs, np.inf)))
        root = int(move_roots[pick])
        current = float(move_costs[pick])
        spec.set_wl(root, int(move_wls[pick]))
        tabu_until[root] = iteration + config.tenure
        if current < best_cost - 1e-12:
            best_cost = current
            best = snapshot()
            improved += 1
            stall = 0
        else:
            stall += 1
            if stall >= (config.warm_patience if warm else config.patience):
                break

    for root, wl in best.items():
        spec.set_wl(root, wl)
    if model.violates(spec, constraint_db):  # pragma: no cover - invariant
        raise WLOError("tabu search returned an infeasible best solution")
    return TabuResult(best_cost, iteration, evaluations, improved, best, warm)
