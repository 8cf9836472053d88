"""Cross-constraint continuation for warm-started WLO.

A constraint sweep's cells differ only in ``constraint_db``; their WLO
solutions are near-identical between neighboring constraints.  This
module is the process-global store the WLO passes
(:mod:`repro.pipeline.passes`) use to hand one cell's solution to the
next cell as a *warm start*:

* :func:`record_continuation` files a finished cell's assignment under
  a constraint-independent key (the pass builds it from the artifact
  fingerprints of everything the engine read *except* the constraint).
* :func:`lookup_continuation` answers the nearest available solution
  at a constraint **at least as strict** (``<=``) as the asking
  cell's.  Noise is monotone in word length, so a spec that satisfies
  ``-65`` dB satisfies ``-55`` dB too — a stricter neighbor is always
  a *feasible* seed, never a correctness hazard.  Warm sweeps order
  their grid strictest-first (see
  :meth:`~repro.experiments.engine.SweepPlan.build`) exactly so this
  lookup hits on every cell after the first.
* :func:`lookup_frontier` / :func:`record_frontier` memoize the
  single-search Pareto frontiers of :mod:`repro.wlo.pareto` under the
  same kind of key.

The store is best-effort by design: a miss means a cold search, and a
cell's numbers are *quality-contracted* (feasible, cost no worse than
the engine's cold result — pinned by ``tests/test_wlo_continuation``)
rather than bit-pinned to a particular neighbor being available.  Pool
workers each hold their own store, so ``workqueue`` sweeps degrade to
per-worker (or cold) continuation without coordination.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

from repro.fixedpoint.spec import FixedPointSpec

__all__ = [
    "CONTINUATION_MODES",
    "apply_warm_start",
    "clear_continuations",
    "lookup_continuation",
    "lookup_frontier",
    "record_continuation",
    "record_frontier",
]

#: The WLO pass continuation modes: ``""`` (cold, the default — every
#: cell searches from scratch), ``"warm"`` (seed each cell from the
#: nearest stricter solution) and ``"pareto"`` (one frontier search
#: per kernel × target, projected onto each cell's constraint).  Part
#: of the pass signature, hence of both cache keys: warm and cold
#: cells can never alias.
CONTINUATION_MODES: tuple[str, ...] = ("", "warm", "pareto")

_LOCK = threading.Lock()
#: key -> [(constraint_db, payload)] sorted ascending by constraint.
_SOLUTIONS: dict[str, list[tuple[float, Any]]] = {}
_FRONTIERS: dict[str, Any] = {}


def record_continuation(key: str, constraint_db: float, payload: Any) -> None:
    """File one solved cell's solution payload under its key."""
    constraint_db = float(constraint_db)
    with _LOCK:
        entries = _SOLUTIONS.setdefault(key, [])
        for index, (existing, _) in enumerate(entries):
            if existing == constraint_db:
                entries[index] = (constraint_db, payload)
                return
        entries.append((constraint_db, payload))
        entries.sort(key=lambda entry: entry[0])


def lookup_continuation(key: str, constraint_db: float) -> Any | None:
    """The payload of the nearest constraint at least as strict.

    "At least as strict" means ``entry <= constraint_db`` (decibel
    constraints are negative; more negative is stricter), so the
    returned solution is guaranteed feasible at ``constraint_db``.
    Returns ``None`` when no such entry exists — the caller searches
    cold.
    """
    constraint_db = float(constraint_db)
    with _LOCK:
        best: tuple[float, Any] | None = None
        for entry_db, payload in _SOLUTIONS.get(key, ()):
            if entry_db <= constraint_db:
                best = (entry_db, payload)
            else:
                break  # entries are sorted ascending
        return None if best is None else best[1]


def record_frontier(key: str, frontier: Any) -> None:
    """Memoize one kernel × target's Pareto frontier."""
    with _LOCK:
        _FRONTIERS[key] = frontier


def lookup_frontier(key: str) -> Any | None:
    with _LOCK:
        return _FRONTIERS.get(key)


def clear_continuations() -> None:
    """Drop every stored solution and frontier (tests, benchmarks)."""
    with _LOCK:
        _SOLUTIONS.clear()
        _FRONTIERS.clear()


# ----------------------------------------------------------------------
def apply_warm_start(
    spec: FixedPointSpec,
    warm_start: dict[int, int] | None,
    supported: Iterable[int],
) -> bool:
    """Seed ``spec`` from a root → word-length assignment, if usable.

    A usable warm start covers every tie-group root of the spec with a
    word length the target supports; anything else (a partial
    assignment, a foreign slot map, an unsupported width) is rejected
    wholesale and the spec is left untouched — the engine then falls
    back to its cold starting point.  Feasibility at the engine's
    constraint is the *caller's* check: this helper is
    constraint-agnostic.
    """
    if warm_start is None:
        return False
    supported_set = set(supported)
    roots = spec.slotmap.roots
    for root in roots:
        if warm_start.get(root) not in supported_set:
            return False
    for root in roots:
        spec.set_wl(root, warm_start[root])
    return True
