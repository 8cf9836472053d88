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


def _neighbor_wls(current: int, supported: list[int]) -> list[int]:
    """Supported word lengths one step away from ``current``."""
    narrower = [w for w in supported if w < current]
    wider = [w for w in supported if w > current]
    moves = []
    if narrower:
        moves.append(max(narrower))
    if wider:
        moves.append(min(wider))
    return moves


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
    best_cost = costs.cost(spec)
    best = snapshot()
    tabu_until: dict[int, int] = {}
    evaluations = 0
    improved = 0
    stall = 0
    iteration = 0

    for iteration in range(1, config.max_iterations + 1):
        best_move: tuple[float, int, int] | None = None
        for root in roots:
            current_wl = spec.wl(root)
            for wl in _neighbor_wls(current_wl, supported):
                token = spec.save()
                spec.set_wl(root, wl)
                evaluations += 1
                feasible = not model.violates(spec, constraint_db)
                cost = costs.cost(spec) if feasible else None
                spec.revert(token)
                if cost is None:
                    continue
                is_tabu = tabu_until.get(root, 0) >= iteration
                if is_tabu and cost >= best_cost:
                    continue  # aspiration: tabu only breaks for records
                key = (cost, root, wl)
                if best_move is None or key < best_move:
                    best_move = key
        if best_move is None:
            break  # no feasible move at all
        cost, root, wl = best_move
        spec.set_wl(root, wl)
        tabu_until[root] = iteration + config.tenure
        if cost < best_cost - 1e-12:
            best_cost = cost
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
