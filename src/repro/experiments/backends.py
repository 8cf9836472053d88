"""Pluggable sweep execution backends (the fourth registry).

The sweep engine separates *what* to evaluate (the
:class:`~repro.experiments.engine.SweepPlan`) from *how* the missing
cells are dispatched.  Dispatch strategies are
:class:`ExecutionBackend` instances resolved by name from
:data:`EXECUTION_BACKENDS`, a :class:`repro.registry.Registry` like
the tables of flows (:mod:`repro.pipeline`), WLO engines
(:mod:`repro.wlo.registry`) and simulation backends
(:mod:`repro.ir.backend`):

* ``serial`` — in-process evaluation, one cell at a time.  No pickling,
  no pool start-up; the reference dispatcher.
* ``workqueue`` — the one parallel dispatcher
  (:mod:`repro.experiments.workqueue`): an active coordinator leasing
  cells to pull-based worker processes, kernel by kernel.  Workers load
  and store cells directly in the shared on-disk
  :class:`~repro.experiments.cache.SweepCache`, so several hosts
  pointed at one cache directory (``--cache-dir`` or
  ``$REPRO_CACHE_DIR`` on a network mount) cooperatively fill the same
  sweep, and completed cells survive even if the coordinating process
  dies mid-sweep.

Failures are data, not control flow: every backend returns a
:class:`CellResult` per request, carrying either the evaluated
:class:`~repro.experiments.engine.Cell` or the exception text of the
cell that raised.  One infeasible constraint can therefore never abort
a sweep or drop in-flight completed cells — the executor keeps
draining, persists every survivor, and surfaces the failures in its
:class:`~repro.experiments.engine.SweepStats`.

Both backends are bit-identical on the surviving cells of *cold*
sweeps: dispatch changes *where*
:func:`~repro.experiments.engine.evaluate_cell` runs, never what it
computes.  Warm-continuation sweeps (``continuation="warm"``, see
:mod:`repro.wlo.continuation`) relax this to the continuation quality
contract: the continuation store is per process, so ``serial`` hands
every cell its neighbor's seed, while a panel split across
``workqueue`` workers runs partly cold — always-correct, feasible,
never costlier than cold, but not bit-pinned across dispatch
strategies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import ExecutionBackendError
from repro.experiments.engine import (
    Cell,
    CellRequest,
    KernelConfig,
    evaluate_cell,
)
from repro.registry import Registry

__all__ = [
    "EXECUTION_BACKENDS",
    "CellResult",
    "ExecutionBackend",
    "SerialBackend",
    "available_execution_backends",
    "evaluate_request",
    "get_execution_backend",
    "register_execution_backend",
]


@dataclass(frozen=True)
class CellResult:
    """One dispatched cell: a :class:`Cell`, or the error that ate it.

    ``source`` is ``"computed"`` or ``"cache"`` (a worker-side hit in
    the shared disk cache — another process or host got there first);
    ``stored`` means the worker already persisted the cell, so the
    executor must not write it again.
    """

    request: CellRequest
    cell: Cell | None = None
    error: str | None = None
    source: str = "computed"
    stored: bool = False


def evaluate_request(
    config: KernelConfig, request: CellRequest, flows: tuple = ()
) -> CellResult:
    """:func:`evaluate_cell` with per-cell fault capture.

    Any exception — an infeasible constraint's
    :class:`~repro.errors.WLOError` as much as an unexpected bug —
    becomes a ``"failed"`` :class:`CellResult` carrying the exception
    text, so one bad cell never aborts the batch it travels with.
    """
    try:
        return CellResult(request, evaluate_cell(config, request, flows))
    except Exception as error:
        return CellResult(
            request, None, error=f"{type(error).__name__}: {error}"
        )


# ----------------------------------------------------------------------
# Backends.


class ExecutionBackend:
    """One way of dispatching a batch of missing sweep cells."""

    name: str = "backend"
    description: str = ""

    def evaluate(
        self,
        config: KernelConfig,
        misses: list[CellRequest],
        *,
        jobs: int = 1,
        cache=None,
    ) -> Iterator[CellResult]:
        """Yield one :class:`CellResult` per request, any order.

        ``cache`` is the executor's :class:`SweepCache` (or ``None``);
        backends that persist worker-side mark their results
        ``stored``.  Implementations must yield a result for *every*
        request — failures included — and never raise for a per-cell
        error.
        """
        raise NotImplementedError

    def listing(self) -> dict[str, str]:
        """The backend's entry in :func:`repro.api.registry_listing`."""
        return {"name": self.name, "description": self.description}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SerialBackend(ExecutionBackend):
    """In-process, one cell at a time — the reference dispatcher."""

    name = "serial"
    description = "in-process evaluation, no pool, no pickling"

    def evaluate(self, config, misses, *, jobs=1, cache=None):
        for request in misses:
            yield evaluate_request(config, request)


# ----------------------------------------------------------------------
# Registry.

EXECUTION_BACKENDS: Registry[ExecutionBackend] = Registry(
    "execution backend", ExecutionBackendError
)
#: Bound once: perfbench's probe replaces this object by identity, and
#: ``SweepExecutor`` reads the module attribute at dispatch time.
get_execution_backend = EXECUTION_BACKENDS.get
available_execution_backends = EXECUTION_BACKENDS.names


def register_execution_backend(
    backend: ExecutionBackend, *, overwrite: bool = False
) -> ExecutionBackend:
    """Register a backend instance; returns it (decorator-friendly)."""
    return EXECUTION_BACKENDS.register(backend.name, backend, overwrite=overwrite)


register_execution_backend(SerialBackend())
