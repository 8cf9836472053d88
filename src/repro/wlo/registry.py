"""WLO engine lookup by name (a :class:`repro.registry.Registry`).

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

from repro.errors import WLOError
from repro.registry import Registry
from repro.wlo.greedy import max_minus_one, min_plus_one
from repro.wlo.tabu import tabu_wlo

__all__ = [
    "WLO_ENGINES",
    "WloEngine",
    "available_wlo_engines",
    "get_wlo_engine",
    "register_wlo_engine",
]

#: (program, spec, model, word_lengths, constraint_db) -> engine statistics.
WloEngine = Callable[..., Any]

WLO_ENGINES: Registry[WloEngine] = Registry("WLO engine", WLOError)
WLO_ENGINES.register("tabu", tabu_wlo)
WLO_ENGINES.register("max-1", max_minus_one)
WLO_ENGINES.register("min+1", min_plus_one)
get_wlo_engine = WLO_ENGINES.get
available_wlo_engines = WLO_ENGINES.names
register_wlo_engine = WLO_ENGINES.register
