"""The parallel execution backend: an active work queue.

``workqueue`` dispatches every ``--jobs N`` sweep (``serial`` is the
in-process reference).  An active coordinator owns the queue and
*pull-based* worker processes ask for work one lease at a time:

* **Kernel affinity** — a worker is leased the next queued cell of the
  kernel it last leased; when that kernel has none left, the first
  queued cell of a kernel no other worker holds, and failing that the
  first queued cell.  A kernel's analysis prefix and its twin-target
  searches, which each process caches, thus run in one worker rather
  than in every worker.
* **Leases** — an assignment is a (ticket, cell) lease with a
  deadline.  Workers heartbeat while evaluating; a lease whose
  deadline lapses (dead or stalled worker) is reclaimed and handed to
  the next ready worker.  First result wins; a stale failure from a
  reclaimed lease is discarded.
* **Fail once** — a cell that raised fails with the worker's exception
  text, exactly as ``serial`` reports it: cell evaluation is
  deterministic, so a retry could only raise again.  Only a lost
  lease is retried, up to ``max_attempts`` leases per cell, after
  which the loss becomes a normal ``"failed"``
  :class:`~repro.experiments.backends.CellResult` (fault capture
  unchanged — one infeasible constraint still never aborts a sweep).
* **Cache-first assignment** — before a queued cell is leased, the
  coordinator re-checks the shared on-disk
  :class:`~repro.experiments.cache.SweepCache`: cells another host
  (or a previous attempt of a now-dead worker) already persisted are
  completed straight from the cache and never assigned.  Workers
  load/store the cache directly too, so completed cells survive any
  crash, and several hosts pointed at one cache directory fill one
  sweep together.
* **Worker respawn** — dead workers are detected by the coordinator,
  their leases reclaimed immediately, and replacements spawned from a
  bounded respawn budget; if every worker is gone and the budget is
  spent, the remaining cells fail with a clear error instead of
  hanging.

The scheduling core (:class:`WorkQueueScheduler`) is pure and
clock-injected — every transition that reads the clock takes an
explicit ``now`` — so assignment, lease-reclaim and dedup logic is
deterministically unit tested without real processes;
:class:`WorkQueueBackend` drives it with real workers over
``multiprocessing`` queues.

Like ``serial``, ``workqueue`` is bit-identical on surviving cells: it
changes *where* and *when*
:func:`~repro.experiments.engine.evaluate_cell` runs, never what it
computes.  ``repro serve`` (:mod:`repro.serve`) wraps this backend in
a long-lived HTTP job service.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ExecutionBackendError
from repro.experiments.backends import (
    CellResult,
    ExecutionBackend,
    evaluate_request,
    register_execution_backend,
)
from repro.experiments.engine import CellRequest, KernelConfig
from repro.pipeline import get_flow

__all__ = [
    "WorkQueueBackend",
    "WorkQueueScheduler",
]


# ----------------------------------------------------------------------
# Scheduling core (pure, clock-injected).


@dataclass
class _Lease:
    ticket: int
    worker: str
    expires_at: float


@dataclass
class _CellState:
    request: CellRequest
    #: ``queued`` | ``leased`` | ``done`` | ``failed``
    status: str = "queued"
    attempts: int = 0
    lease: _Lease | None = None
    result: CellResult | None = None


@dataclass(frozen=True)
class Assignment:
    """One lease handed to a worker."""

    ticket: int
    request: CellRequest


class WorkQueueScheduler:
    """Lease bookkeeping and kernel-affine assignment of the work queue.

    Pure state machine over the plan's cells — every method that reads
    the clock takes an explicit ``now`` (any monotonic float), so tests
    drive dead-worker reclaim and lease exhaustion with a fake clock.
    Transitions::

        queued --next_assignment--> leased --complete--> done
          ^                           |
          +-- reclaim / release ------+  (lease lost)
                                      |
                                      +--fail, or lease lost
                                         max_attempts times--> failed

    Terminal transitions return the cell's final :class:`CellResult`
    so the driving backend can stream it; non-terminal ones return
    ``None``.  Duplicate/stale deliveries are idempotent: the first
    result for a cell wins, anything later is dropped.
    """

    def __init__(
        self,
        requests: list[CellRequest],
        *,
        max_attempts: int = 3,
        lease_timeout: float = 60.0,
    ) -> None:
        if max_attempts < 1:
            raise ExecutionBackendError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.max_attempts = max_attempts
        self.lease_timeout = float(lease_timeout)
        # Plan order is preserved for assignment fairness and for
        # yielding deterministic `outcomes()`.
        self._cells: dict[CellRequest, _CellState] = {
            request: _CellState(request) for request in requests
        }
        self._tickets: dict[int, CellRequest] = {}
        self._next_ticket = 0
        #: The kernel of each worker's latest lease (its affinity).
        self._kernels: dict[str, str] = {}

    # -- queries -------------------------------------------------------
    @property
    def finished(self) -> bool:
        return all(
            cell.status in ("done", "failed")
            for cell in self._cells.values()
        )

    def counts(self) -> dict[str, int]:
        tally = {"queued": 0, "leased": 0, "done": 0, "failed": 0}
        for cell in self._cells.values():
            tally[cell.status] += 1
        return tally

    def outcomes(self) -> list[CellResult]:
        """Terminal results in plan order (every cell, once finished)."""
        return [
            cell.result
            for cell in self._cells.values()
            if cell.result is not None
        ]

    # -- transitions ---------------------------------------------------
    def next_assignment(
        self, worker: str, now: float
    ) -> Assignment | None:
        """Lease ``worker`` a queued cell, kernel-affine.

        In plan order: the first queued cell of the kernel the worker
        last leased; else the first of a kernel no other worker holds;
        else the first queued cell.
        """
        queued = [
            cell for cell in self._cells.values() if cell.status == "queued"
        ]
        if not queued:
            return None
        own = self._kernels.get(worker)
        held = {
            kernel for other, kernel in self._kernels.items()
            if other != worker
        }
        cell = next(
            (c for c in queued if c.request.kernel == own),
            next((c for c in queued if c.request.kernel not in held), queued[0]),
        )
        self._next_ticket += 1
        ticket = self._next_ticket
        cell.status = "leased"
        cell.attempts += 1
        cell.lease = _Lease(ticket, worker, now + self.lease_timeout)
        self._tickets[ticket] = cell.request
        self._kernels[worker] = cell.request.kernel
        return Assignment(ticket, cell.request)

    def heartbeat(self, worker: str, now: float) -> None:
        """Extend the deadlines of every lease ``worker`` holds."""
        for cell in self._cells.values():
            if (
                cell.status == "leased"
                and cell.lease is not None
                and cell.lease.worker == worker
            ):
                cell.lease.expires_at = now + self.lease_timeout

    def complete(self, ticket: int, result: CellResult) -> CellResult | None:
        """Deliver a successful result; first delivery wins.

        Accepts the result even off a reclaimed (stale) lease — the
        work is done and bit-identical, discarding it would only waste
        the re-assigned attempt.  Returns the terminal result when
        this delivery finished the cell, ``None`` when the cell was
        already terminal (duplicate)."""
        request = self._tickets.get(ticket)
        if request is None:
            return None
        cell = self._cells[request]
        if cell.status in ("done", "failed"):
            return None
        cell.status = "done"
        cell.lease = None
        cell.result = result
        return result

    def mark_done(self, request: CellRequest, result: CellResult) -> CellResult | None:
        """Coordinator-side completion (cache-first hit, no lease)."""
        cell = self._cells[request]
        if cell.status in ("done", "failed"):
            return None
        cell.status = "done"
        cell.lease = None
        cell.result = result
        return result

    def fail(self, ticket: int, error: str) -> CellResult | None:
        """Deliver a failure: the cell is final, with ``error`` as the
        worker reported it.

        Ignored when the ticket is stale (the cell was reclaimed and
        re-leased, or already finished) — only the lease currently on
        the cell may fail it."""
        request = self._tickets.get(ticket)
        if request is None:
            return None
        cell = self._cells[request]
        if (
            cell.status != "leased"
            or cell.lease is None
            or cell.lease.ticket != ticket
        ):
            return None
        return self._fail_cell(cell, error)

    def reclaim(self, now: float) -> list[CellResult]:
        """Requeue every lease whose deadline lapsed (dead or stalled
        worker); returns the terminal failures of cells whose attempts
        were already exhausted."""
        exhausted: list[CellResult] = []
        for cell in self._cells.values():
            if (
                cell.status == "leased"
                and cell.lease is not None
                and cell.lease.expires_at <= now
            ):
                terminal = self._lose_lease(
                    cell,
                    f"lease expired on worker {cell.lease.worker!r} "
                    f"(dead or stalled)",
                )
                if terminal is not None:
                    exhausted.append(terminal)
        return exhausted

    def release_worker(self, worker: str) -> list[CellResult]:
        """Immediately requeue every lease of a known-dead worker and
        forget its kernel, which the next worker that asks may take."""
        self._kernels.pop(worker, None)
        exhausted: list[CellResult] = []
        for cell in self._cells.values():
            if (
                cell.status == "leased"
                and cell.lease is not None
                and cell.lease.worker == worker
            ):
                terminal = self._lose_lease(cell, f"worker {worker!r} died")
                if terminal is not None:
                    exhausted.append(terminal)
        return exhausted

    def abort_pending(self, error: str) -> list[CellResult]:
        """Terminally fail every non-finished cell (no workers left)."""
        return [
            self._fail_cell(cell, error)
            for cell in self._cells.values()
            if cell.status not in ("done", "failed")
        ]

    # ------------------------------------------------------------------
    def _fail_cell(self, cell: _CellState, error: str) -> CellResult:
        cell.status = "failed"
        cell.lease = None
        cell.result = CellResult(cell.request, None, error=error)
        return cell.result

    def _lose_lease(self, cell: _CellState, error: str) -> CellResult | None:
        """Requeue a cell whose lease was lost, or fail it once its
        leases are spent."""
        if cell.attempts >= self.max_attempts:
            return self._fail_cell(
                cell, f"{error} (after {cell.attempts} attempts)"
            )
        cell.status = "queued"
        cell.lease = None
        return None


# ----------------------------------------------------------------------
# Worker side (module-level for pickling/spawn).


def _workqueue_worker(
    worker_id: str,
    tasks,
    events,
    config: KernelConfig,
    flows: tuple,
    cache_dir: str | None,
    heartbeat_interval: float,
    chaos: str | None = None,
) -> None:
    """Pull-based worker loop: ready → lease → heartbeat → result.

    Messages *to* the worker on its private ``tasks`` queue:
    ``("cell", ticket, request)`` and ``("stop",)``.  Events back on
    the shared ``events`` queue: ``("ready"|"heartbeat"|"bye",
    worker_id, None)`` and ``("result", worker_id, (ticket,
    CellResult))``.  Heartbeats come from a background thread while
    the (potentially long) evaluation runs, so a slow cell and a dead
    worker are distinguishable coordinator-side.

    ``chaos="kill-first-lease"`` hard-kills the process on its first
    assignment *before* any result is sent — the test hook behind the
    "a killed worker loses no completed cells" guarantee.
    """
    cache = None
    if cache_dir is not None:
        from repro.experiments.cache import SweepCache

        cache = SweepCache(cache_dir)
    events.put(("ready", worker_id, None))
    while True:
        message = tasks.get()
        if message[0] == "stop":
            events.put(("bye", worker_id, None))
            return
        _kind, ticket, request = message
        if chaos == "kill-first-lease":
            os._exit(1)

        stop_beat = threading.Event()

        def _beat() -> None:
            while not stop_beat.wait(heartbeat_interval):
                events.put(("heartbeat", worker_id, None))

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        try:
            result = None
            if cache is not None:
                found = cache.load(config, request)
                if found is not None:
                    result = CellResult(
                        request, found, source="cache", stored=True
                    )
            if result is None:
                result = evaluate_request(config, request, flows)
                if result.cell is not None and cache is not None:
                    cache.store(config, request, result.cell)
                    result = CellResult(
                        request, result.cell, source=result.source,
                        stored=True,
                    )
        finally:
            stop_beat.set()
        events.put(("result", worker_id, (ticket, result)))
        events.put(("ready", worker_id, None))


@dataclass
class _WorkerHandle:
    process: multiprocessing.Process
    tasks: object
    stopped: bool = False
    #: Tickets assigned and not yet resolved (for dead-worker cleanup).
    busy: bool = field(default=False)


# ----------------------------------------------------------------------
# Backend.


def _shippable_flow_specs(requests: list[CellRequest]) -> tuple:
    """The plan's flow declarations, filtered to what pickling allows.

    Every flow a worker will resolve is shipped — the requests' joint
    flows plus the ``float``/``wlo-first`` roles of every cell — so
    runtime declarations *and* runtime re-declarations of built-ins
    reach spawn-started workers (whose registries otherwise hold only
    the stock declarations, silently diverging from the cache key the
    parent computed).  A spec holding unpicklable callables (e.g.
    closures defined in a REPL) is silently skipped — on fork
    platforms the worker inherits it anyway, elsewhere the worker
    raises the registry's clear unknown-flow error.
    """
    names = dict.fromkeys(["float", "wlo-first"])
    names.update(dict.fromkeys(r.flow for r in requests))
    specs = []
    for name in names:
        spec = get_flow(name)
        try:
            pickle.dumps(spec)
        except Exception:
            continue
        specs.append(spec)
    return tuple(specs)


class WorkQueueBackend(ExecutionBackend):
    """Coordinator + pull-based leased workers (see module docstring).

    Class attributes are the tuning knobs, overridable per instance:

    * ``max_attempts`` — leases of a cell before a lost lease (dead or
      stalled worker) becomes its final error;
    * ``lease_timeout`` — seconds without a heartbeat before a lease
      is reclaimed;
    * ``respawns`` — replacement workers spawned after deaths;
    * ``chaos`` — test hook forwarded to the *first* initial worker
      (``"kill-first-lease"``).
    """

    name = "workqueue"
    description = (
        "active coordinator with leased pull-based workers; "
        "kernel-affine assignment, heartbeats, lease reclaim, "
        "cache-first assignment"
    )

    max_attempts = 3
    lease_timeout = 60.0
    respawns = 2
    #: Coordinator event-loop tick (seconds) when idle.
    tick = 0.05
    chaos: str | None = None

    def evaluate(self, config, misses, *, jobs=1, cache=None):
        if not misses:
            return
        flows = _shippable_flow_specs(misses)
        cache_dir = str(cache.directory) if cache is not None else None
        scheduler = WorkQueueScheduler(
            misses,
            max_attempts=self.max_attempts,
            lease_timeout=self.lease_timeout,
        )
        context = multiprocessing.get_context()
        events = context.Queue()
        fleet: dict[str, _WorkerHandle] = {}
        spawned = 0
        respawns_left = self.respawns
        heartbeat_interval = max(0.01, self.lease_timeout / 4.0)

        def spawn(chaos: str | None = None) -> str:
            nonlocal spawned
            worker_id = f"wq-{spawned}"
            spawned += 1
            tasks = context.Queue()
            process = context.Process(
                target=_workqueue_worker,
                args=(
                    worker_id, tasks, events, config, flows, cache_dir,
                    heartbeat_interval, chaos,
                ),
                daemon=True,
            )
            process.start()
            fleet[worker_id] = _WorkerHandle(process, tasks)
            return worker_id

        def assign(worker_id: str) -> list[CellResult]:
            """Lease the next eligible cell to a ready worker —
            cache-first: anything already persisted completes here
            and is never assigned."""
            finished: list[CellResult] = []
            handle = fleet[worker_id]
            while True:
                assignment = scheduler.next_assignment(
                    worker_id, time.monotonic()
                )
                if assignment is None:
                    handle.busy = False
                    return finished
                if cache is not None:
                    found = cache.load(config, assignment.request)
                    if found is not None:
                        terminal = scheduler.complete(
                            assignment.ticket,
                            CellResult(
                                assignment.request, found,
                                source="cache", stored=True,
                            ),
                        )
                        if terminal is not None:
                            finished.append(terminal)
                        continue
                handle.busy = True
                handle.tasks.put(
                    ("cell", assignment.ticket, assignment.request)
                )
                return finished

        idle: list[str] = []
        try:
            for index in range(max(1, min(jobs, len(misses)))):
                spawn(self.chaos if index == 0 else None)
            while not scheduler.finished:
                try:
                    kind, worker_id, payload = events.get(timeout=self.tick)
                except queue_module.Empty:
                    kind = None
                now = time.monotonic()
                if kind == "heartbeat":
                    scheduler.heartbeat(worker_id, now)
                elif kind == "ready":
                    idle.append(worker_id)
                elif kind == "result":
                    ticket, result = payload
                    if worker_id in fleet:
                        fleet[worker_id].busy = False
                    if result.error is None:
                        terminal = scheduler.complete(ticket, result)
                        if terminal is not None:
                            yield terminal
                    else:
                        terminal = scheduler.fail(ticket, result.error)
                        if terminal is not None:
                            yield terminal
                # Lapsed leases (stalled workers that stopped
                # heartbeating) go back in the queue.
                for terminal in scheduler.reclaim(now):
                    yield terminal
                # Dead workers: reclaim their leases immediately and
                # respawn from the budget.
                for dead_id in [
                    wid for wid, handle in fleet.items()
                    if not handle.stopped and not handle.process.is_alive()
                ]:
                    fleet.pop(dead_id)
                    if dead_id in idle:
                        idle.remove(dead_id)
                    for terminal in scheduler.release_worker(dead_id):
                        yield terminal
                    if not scheduler.finished and respawns_left > 0:
                        respawns_left -= 1
                        spawn()
                if not fleet and not scheduler.finished:
                    for terminal in scheduler.abort_pending(
                        "all workqueue workers died "
                        "(respawn budget exhausted)"
                    ):
                        yield terminal
                    break
                # Hand work to every idle worker with an eligible cell.
                still_idle: list[str] = []
                for worker_id in idle:
                    if worker_id not in fleet:
                        continue
                    for terminal in assign(worker_id):
                        yield terminal
                    if not fleet[worker_id].busy:
                        still_idle.append(worker_id)
                idle = still_idle
        finally:
            for handle in fleet.values():
                handle.stopped = True
                try:
                    handle.tasks.put(("stop",))
                except Exception:
                    pass
            for handle in fleet.values():
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=2.0)
            events.close()


register_execution_backend(WorkQueueBackend())
