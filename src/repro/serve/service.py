"""Job store + background sweep execution behind ``repro serve``.

:class:`SweepService` is deliberately transport-free — the HTTP layer
(:mod:`repro.serve.http`) and the tests drive the same object.  Each
submitted :class:`~repro.api.SweepRequest` becomes a :class:`Job`
running on its own daemon thread; outcomes stream into the job record
as the engine resolves them, so pollers see partial progress, and all
jobs share one in-memory cell memo (plus whatever disk cache the
request names), so resubmissions are served warm.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.api import SweepRequest, outcome_payload
from repro.errors import ReproError
from repro.experiments.engine import KernelConfig

__all__ = ["Job", "SweepService"]


@dataclass
class Job:
    """One submitted sweep and everything pollers may ask about it.

    ``status`` is ``queued`` → ``running`` → ``done`` | ``error``
    (``error`` means the job itself broke — a per-cell failure is a
    normal ``"failed"`` outcome inside a ``done`` job).
    """

    id: int
    request: SweepRequest
    planned: int
    status: str = "queued"
    outcomes: list[dict[str, Any]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    error: str | None = None
    elapsed_s: float = 0.0

    def summary(self) -> dict[str, Any]:
        """The wire shape of ``GET /jobs/<id>`` (outcomes elided)."""
        return {
            "id": self.id,
            "status": self.status,
            "request": self.request.to_payload(),
            "planned": self.planned,
            "resolved": len(self.outcomes),
            "counts": dict(self.counts),
            "error": self.error,
            "elapsed_s": self.elapsed_s,
        }


class SweepService:
    """Thread-safe sweep-job manager (the daemon's brain).

    ``defaults`` fills request fields absent from submitted payloads —
    the ``repro serve`` CLI flags (``--jobs``, ``--backend``,
    ``--cache-dir``, ``--format`` …) become process-wide defaults a
    client can override per job.  ``config`` sizes every job's kernels;
    tests use it for small fast grids.
    """

    def __init__(
        self,
        defaults: dict[str, Any] | None = None,
        config: KernelConfig | None = None,
    ) -> None:
        self.defaults = dict(defaults or {})
        self.config = config or KernelConfig()
        self._jobs: dict[int, Job] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        #: One memo across all jobs: resubmitting a finished request
        #: answers from memory, and overlapping grids share cells.
        self._memo: dict = {}

    # ------------------------------------------------------------------
    def submit_payload(self, payload: dict[str, Any]) -> Job:
        """Validate a wire payload into a running job.

        Raises :class:`~repro.errors.ReproError` subclasses on unknown
        fields or unknown registry names — the HTTP layer maps those
        to 400s with the registry's own "available: …" message.
        """
        request = SweepRequest.from_payload(payload, self.defaults)
        return self.submit(request)

    def submit(self, request: SweepRequest) -> Job:
        request.validate()
        planned = len(request.plan().requests)
        with self._lock:
            self._next_id += 1
            job = Job(self._next_id, request, planned)
            self._jobs[job.id] = job
        thread = threading.Thread(
            target=self._run, args=(job,), daemon=True,
            name=f"repro-serve-job-{job.id}",
        )
        thread.start()
        return job

    # ------------------------------------------------------------------
    def job(self, job_id: int) -> Job:
        with self._lock:
            found = self._jobs.get(job_id)
        if found is None:
            raise ReproError(
                f"unknown job {job_id!r}; known: "
                f"{sorted(self._jobs) or 'none yet'}"
            )
        return found

    def jobs(self) -> list[dict[str, Any]]:
        with self._lock:
            records = list(self._jobs.values())
        return [job.summary() for job in records]

    def outcomes_since(
        self, job_id: int, since: int = 0
    ) -> dict[str, Any]:
        """Incremental poll: outcomes ``since`` (an index a client got
        back as ``next`` last time) plus the job status, so one call
        answers both "anything new?" and "is it finished?"."""
        job = self.job(job_id)
        with self._lock:
            chunk = list(job.outcomes[since:])
            status = job.status
            error = job.error
        return {
            "id": job.id,
            "status": status,
            "error": error,
            "since": since,
            "next": since + len(chunk),
            "outcomes": chunk,
        }

    def stats(self) -> dict[str, Any]:
        with self._lock:
            statuses = [job.status for job in self._jobs.values()]
        return {
            "jobs": len(statuses),
            "running": statuses.count("running") + statuses.count("queued"),
            "done": statuses.count("done"),
            "error": statuses.count("error"),
            "memo_cells": len(self._memo),
        }

    # ------------------------------------------------------------------
    def _run(self, job: Job) -> None:
        from repro.experiments.runner import ExperimentRunner

        started = time.perf_counter()
        try:
            runner = ExperimentRunner.from_request(
                job.request, self.config, memo=self._memo
            )
            with self._lock:
                job.status = "running"
            stream = runner.submit_iter(job.request)
            for outcome in stream:
                with self._lock:
                    job.outcomes.append(outcome_payload(outcome))
            with self._lock:
                job.counts = stream.stats.counts()
                job.elapsed_s = round(time.perf_counter() - started, 3)
                job.status = "done"
        except Exception as error:  # job-level breakage, not a cell failure
            with self._lock:
                job.elapsed_s = round(time.perf_counter() - started, 3)
                job.error = f"{type(error).__name__}: {error}"
                job.status = "error"
