"""WLO engine lookup by name (mirrors :mod:`repro.targets.registry`).

Every engine shares one calling convention::

    engine(program, spec, model, word_lengths, constraint_db) -> stats

mutating ``spec`` in place and returning its search statistics.
``word_lengths`` is the target's
:class:`~repro.targets.model.WordLengths` (scalar datapath and SIMD
lane widths), the only target facts a search may read: the ``wlo``
pass keys its cache on them, so targets sharing a datapath share one
search, and an engine reaching for another target field fails loudly
instead of being cached under the wrong key.
Engines *may* additionally accept a ``warm_start`` keyword (a root →
word-length assignment seeding the search; see
:mod:`repro.wlo.continuation`) — the ``wlo`` pipeline pass detects the
keyword by signature inspection and only passes a seed to engines that
declare it, so engines without it simply always run cold.  The
flows' ``wlo`` pipeline pass resolves engines exclusively through
this registry, so a new engine registered here is immediately
selectable by name from ``repro run --wlo``, ``repro sweep --wlo``
and any declared flow variant.

Registrations are process-local.  Parallel sweeps (``--jobs N``) on
platforms whose multiprocessing start method is ``spawn`` or
``forkserver`` re-import this package in each worker: a custom engine
used from a worker must therefore be registered at import time of a
module the worker also imports (flow *declarations* are shipped to
workers automatically; engine callables are not).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import WLOError, unknown_name_error
from repro.wlo.greedy import max_minus_one, min_plus_one
from repro.wlo.tabu import tabu_wlo

__all__ = [
    "WloEngine",
    "available_wlo_engines",
    "get_wlo_engine",
    "register_wlo_engine",
]

#: (program, spec, model, word_lengths, constraint_db) -> engine statistics.
WloEngine = Callable[..., Any]

_ENGINES: dict[str, WloEngine] = {
    "tabu": tabu_wlo,
    "max-1": max_minus_one,
    "min+1": min_plus_one,
}


def get_wlo_engine(name: str) -> WloEngine:
    """Look an engine up by name (case-insensitive)."""
    engine = _ENGINES.get(name.lower())
    if engine is None:
        raise unknown_name_error(
            WLOError, "WLO engine", name, available_wlo_engines()
        )
    return engine


def available_wlo_engines() -> list[str]:
    """Names accepted by :func:`get_wlo_engine`."""
    return sorted(_ENGINES)


def register_wlo_engine(
    name: str, engine: WloEngine, *, overwrite: bool = False
) -> None:
    """Register a custom engine (used by examples and tests)."""
    key = name.lower()
    if key in _ENGINES and not overwrite:
        raise WLOError(
            f"WLO engine {name!r} is already registered; "
            f"pass overwrite=True to replace it"
        )
    _ENGINES[key] = engine
