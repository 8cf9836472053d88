"""Work-queue backend tests.

The scheduler core is exercised deterministically with an explicit
fake clock (no processes, no sleeps): kernel-affine assignment, lease
reclaim from dead/stalled workers and its exhaustion, fail-once
failures, first-result-wins dedup, cache-first completion.  The
backend integration tests then run real worker processes, including
the chaos hook that hard-kills a worker on its first lease — the "a
killed worker loses no completed cells and the sweep finishes"
guarantee — and a cell that kills every worker it reaches.
"""

from __future__ import annotations

import multiprocessing
import os
import re

import pytest

from repro.experiments import (
    CellRequest,
    KernelConfig,
    SweepCache,
    SweepExecutor,
    SweepPlan,
    WorkQueueBackend,
    WorkQueueScheduler,
)
from repro.experiments.backends import CellResult

SMALL = dict(
    n_samples=96, analysis_samples=96, image_size=18, analysis_image_size=18
)

R1 = CellRequest("fir", "xentium", -15.0)
R2 = CellRequest("fir", "xentium", -45.0)
#: The infeasible cell: -400 dB is unreachable even at 32-bit word
#: lengths, so the WLO pass raises for exactly this cell.
INFEASIBLE = CellRequest("fir", "xentium", -400.0)
INFEASIBLE_ERROR = (
    "WLOError: accuracy constraint -400.0 dB is infeasible even at "
    "32-bit word lengths"
)


@pytest.fixture(scope="module")
def config() -> KernelConfig:
    return KernelConfig(**SMALL)


@pytest.fixture(scope="module")
def reference_cells(config):
    executor = SweepExecutor(config, jobs=1)
    plan = SweepPlan(config, [R1, R2])
    cells, stats = executor.run(plan)
    assert stats.computed == 2
    return cells


def _done(request, cell=None, error=None):
    return CellResult(request, cell, error=error)


class TestSchedulerCore:
    def test_assign_complete_finish(self):
        scheduler = WorkQueueScheduler([R1, R2])
        a = scheduler.next_assignment("w0", now=0.0)
        b = scheduler.next_assignment("w1", now=0.0)
        assert {a.request, b.request} == {R1, R2}
        assert scheduler.next_assignment("w2", now=0.0) is None  # all leased
        assert scheduler.complete(a.ticket, _done(a.request)) is not None
        assert not scheduler.finished
        assert scheduler.complete(b.ticket, _done(b.request)) is not None
        assert scheduler.finished
        assert [r.request for r in scheduler.outcomes()] == [R1, R2]

    def test_duplicate_result_is_dropped(self):
        scheduler = WorkQueueScheduler([R1])
        a = scheduler.next_assignment("w0", now=0.0)
        assert scheduler.complete(a.ticket, _done(R1)) is not None
        assert scheduler.complete(a.ticket, _done(R1)) is None  # dup
        assert scheduler.counts()["done"] == 1

    def test_lease_reclaim_after_dead_worker(self):
        """A worker that stops heartbeating loses its lease at the
        deadline; the cell goes back in the queue and the next ready
        worker gets it."""
        scheduler = WorkQueueScheduler([R1], lease_timeout=10.0)
        a = scheduler.next_assignment("w0", now=0.0)
        assert scheduler.reclaim(now=5.0) == []  # deadline not reached
        assert scheduler.next_assignment("w1", now=5.0) is None  # still leased
        assert scheduler.reclaim(now=10.0) == []  # requeued, not exhausted
        b = scheduler.next_assignment("w1", now=10.0)
        assert b is not None and b.request == R1 and b.ticket != a.ticket
        assert scheduler.complete(b.ticket, _done(R1)) is not None
        assert scheduler.finished

    def test_heartbeat_extends_the_lease(self):
        scheduler = WorkQueueScheduler([R1], lease_timeout=10.0)
        scheduler.next_assignment("w0", now=0.0)
        scheduler.heartbeat("w0", now=8.0)  # deadline now 18.0
        assert scheduler.reclaim(now=12.0) == []
        assert scheduler.counts()["leased"] == 1

    def test_release_worker_requeues_immediately(self):
        scheduler = WorkQueueScheduler([R1], lease_timeout=1000.0)
        scheduler.next_assignment("w0", now=0.0)
        assert scheduler.release_worker("w0") == []
        b = scheduler.next_assignment("w1", now=0.2)
        assert b is not None and b.request == R1

    def test_assignment_is_kernel_affine(self):
        """A worker keeps to the kernel it last leased; a newcomer
        takes the first kernel nobody holds; with every queued kernel
        held, the first queued cell in plan order."""
        fir1, fir2 = R1, R2
        iir1, iir2 = (CellRequest("iir", "xentium", c) for c in (-15.0, -45.0))
        conv1 = CellRequest("conv", "xentium", -15.0)
        scheduler = WorkQueueScheduler([fir1, fir2, iir1, iir2, conv1])
        assert scheduler.next_assignment("w0", now=0.0).request == fir1
        assert scheduler.next_assignment("w1", now=0.0).request == iir1
        assert scheduler.next_assignment("w2", now=0.0).request == conv1
        # Own kernel first, even ahead of plan order.
        assert scheduler.next_assignment("w1", now=0.0).request == iir2
        # w2's kernel is spent and fir/iir are held: first queued.
        assert scheduler.next_assignment("w2", now=0.0).request == fir2
        assert scheduler.next_assignment("w0", now=0.0) is None

    def test_released_kernel_goes_to_the_next_worker_that_asks(self):
        iir1 = CellRequest("iir", "xentium", -15.0)
        scheduler = WorkQueueScheduler([R1, R2, iir1])
        assert scheduler.next_assignment("w0", now=0.0).request == R1
        assert scheduler.next_assignment("w1", now=0.0).request == iir1
        scheduler.release_worker("w0")  # died holding fir
        # fir is no longer held, so the newcomer takes it in plan order.
        assert scheduler.next_assignment("w2", now=0.0).request == R1
        assert scheduler.next_assignment("w2", now=0.0).request == R2

    def test_failed_cell_is_final_with_its_error_unchanged(self):
        """A cell that raised fails on its first delivery with the
        worker's exception text as is, like the serial backend — a
        deterministic cell would only raise again."""
        scheduler = WorkQueueScheduler([R1, R2], max_attempts=3)
        a = scheduler.next_assignment("w0", now=0.0)
        terminal = scheduler.fail(a.ticket, INFEASIBLE_ERROR)
        assert terminal is not None and terminal.cell is None
        assert terminal.error == INFEASIBLE_ERROR
        assert scheduler.counts()["failed"] == 1
        # The sibling cell is untouched and still schedulable.
        b = scheduler.next_assignment("w0", now=0.0)
        assert b is not None and b.request == R2
        assert scheduler.complete(b.ticket, _done(R2)) is not None
        assert scheduler.finished
        assert [r.error is not None for r in scheduler.outcomes()] == [
            True, False
        ]

    def test_reclaim_exhaustion_fails_terminally(self):
        scheduler = WorkQueueScheduler([R1], max_attempts=1, lease_timeout=5.0)
        scheduler.next_assignment("w0", now=0.0)
        (terminal,) = scheduler.reclaim(now=5.0)
        assert terminal.cell is None
        assert "lease expired" in terminal.error
        assert "(after 1 attempts)" in terminal.error
        assert scheduler.finished

    def test_stale_fail_is_ignored_after_reclaim(self):
        """A stalled (not dead) worker may deliver a failure for a
        lease that was already reclaimed and re-assigned — only the
        current lease may fail the cell."""
        scheduler = WorkQueueScheduler([R1], lease_timeout=5.0)
        a = scheduler.next_assignment("w0", now=0.0)
        scheduler.reclaim(now=5.0)
        b = scheduler.next_assignment("w1", now=5.0)
        assert scheduler.fail(a.ticket, "Boom: stale") is None
        assert scheduler.counts()["leased"] == 1  # w1's lease unharmed
        assert scheduler.complete(b.ticket, _done(R1)) is not None

    def test_stale_success_wins_if_cell_still_open(self):
        """First result wins even off a reclaimed lease — completed
        work is never discarded."""
        scheduler = WorkQueueScheduler([R1], lease_timeout=5.0)
        a = scheduler.next_assignment("w0", now=0.0)
        scheduler.reclaim(now=5.0)
        b = scheduler.next_assignment("w1", now=5.0)
        assert scheduler.complete(a.ticket, _done(R1)) is not None  # stale ok
        assert scheduler.finished
        assert scheduler.complete(b.ticket, _done(R1)) is None  # later dup

    def test_mark_done_skips_assignment(self):
        """Cache-first completion: a cell marked done from the cache is
        never handed to a worker."""
        scheduler = WorkQueueScheduler([R1, R2])
        assert scheduler.mark_done(
            R1, CellResult(R1, None, source="cache", stored=True)
        ) is not None
        a = scheduler.next_assignment("w0", now=0.0)
        assert a.request == R2
        assert scheduler.next_assignment("w1", now=0.0) is None

    def test_abort_pending_fails_everything_open(self):
        scheduler = WorkQueueScheduler([R1, R2])
        a = scheduler.next_assignment("w0", now=0.0)
        scheduler.complete(a.ticket, _done(a.request))
        failures = scheduler.abort_pending("all workers died")
        assert len(failures) == 1
        assert failures[0].error == "all workers died"
        assert scheduler.finished

    def test_rejects_nonpositive_max_attempts(self):
        from repro.errors import ExecutionBackendError

        with pytest.raises(ExecutionBackendError, match="max_attempts"):
            WorkQueueScheduler([R1], max_attempts=0)


class TestWorkQueueBackend:
    def test_bit_identical_to_serial(self, config, reference_cells):
        backend = WorkQueueBackend()
        results = {
            r.request: r
            for r in backend.evaluate(config, [R1, R2], jobs=2, cache=None)
        }
        assert {req: r.cell for req, r in results.items()} == reference_cells

    def test_cache_first_assignment_skips_persisted_cells(
        self, config, reference_cells, tmp_path
    ):
        """Satellite edge case: a cell another host already persisted
        completes from the cache at assignment time and is never
        dispatched; the other cell computes and persists worker-side."""
        cache = SweepCache(tmp_path)
        cache.store(config, R1, reference_cells[R1])
        backend = WorkQueueBackend()
        results = {
            r.request: r
            for r in backend.evaluate(config, [R1, R2], jobs=2, cache=cache)
        }
        assert results[R1].source == "cache" and results[R1].stored
        assert results[R2].source == "computed" and results[R2].stored
        assert results[R2].cell == reference_cells[R2]
        assert len(cache) == 2  # worker persisted the computed cell

    def test_killed_worker_loses_no_cells_and_sweep_finishes(
        self, config, reference_cells, tmp_path
    ):
        """The acceptance scenario: one worker is hard-killed on its
        first lease (``os._exit``, no result, no goodbye).  The
        coordinator reclaims the lease, respawns, and every cell still
        resolves bit-identically; nothing already completed is lost."""
        cache = SweepCache(tmp_path)
        backend = WorkQueueBackend()
        backend.chaos = "kill-first-lease"
        backend.lease_timeout = 30.0
        results = {
            r.request: r
            for r in backend.evaluate(config, [R1, R2], jobs=2, cache=cache)
        }
        assert set(results) == {R1, R2}
        assert all(r.error is None for r in results.values())
        assert {req: r.cell for req, r in results.items()} == reference_cells
        assert len(cache) == 2  # both persisted despite the kill

    def test_infeasible_cell_fails_once_others_survive(
        self, config, reference_cells
    ):
        results = {
            r.request: r
            for r in WorkQueueBackend().evaluate(
                config, [R1, INFEASIBLE], jobs=2, cache=None
            )
        }
        assert results[R1].cell == reference_cells[R1]
        assert results[INFEASIBLE].error == INFEASIBLE_ERROR

    def test_workers_cooperate_through_shared_cache(
        self, config, reference_cells, tmp_path
    ):
        """Multi-host mode, worker side: a cell another host persisted
        after it was leased loads from the shared cache; the other cell
        computes and persists worker-side — nothing left for the
        coordinating process to write.  The worker loop runs in-process
        on plain queues."""
        import queue

        from repro.experiments.workqueue import _workqueue_worker

        cache = SweepCache(tmp_path)
        cache.store(config, R1, reference_cells[R1])
        tasks, events = queue.Queue(), queue.Queue()
        for ticket, request in enumerate((R1, R2)):
            tasks.put(("cell", ticket, request))
        tasks.put(("stop",))
        _workqueue_worker("w0", tasks, events, config, (), str(tmp_path), 60.0)
        results = {}
        while not events.empty():
            kind, _worker, payload = events.get_nowait()
            if kind == "result":
                results[payload[1].request] = payload[1]
        assert results[R1].source == "cache" and results[R1].stored
        assert results[R2].source == "computed" and results[R2].stored
        assert results[R2].cell == reference_cells[R2]
        assert len(cache) == 2

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork",
        reason="the patched evaluation reaches workers only when forked",
    )
    def test_cell_that_kills_every_worker_fails_cleanly(
        self, config, monkeypatch
    ):
        """Every worker dies on its first lease: the dead workers'
        leases and the respawn budget run out, the backend returns, and
        each cell fails naming the dead worker or the spent budget."""
        monkeypatch.setattr(
            "repro.experiments.workqueue.evaluate_request",
            lambda *args: os._exit(1),
        )
        results = list(
            WorkQueueBackend().evaluate(config, [R1, R2], jobs=2, cache=None)
        )
        assert len(results) == 2
        assert {r.request for r in results} == {R1, R2}
        for result in results:
            assert result.cell is None
            assert re.fullmatch(
                r"worker 'wq-\d+' died \(after \d+ attempts\)"
                r"|all workqueue workers died \(respawn budget exhausted\)",
                result.error,
            ), result.error

    def test_empty_miss_list_is_a_noop(self, config):
        assert list(WorkQueueBackend().evaluate(config, [], jobs=2)) == []
