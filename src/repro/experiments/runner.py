"""Experiment sweep runner — the friendly facade over the engine.

:class:`ExperimentRunner` keeps the interface the figure/table modules
and the benchmark harness use (``context``, ``cell``, ``sweep``), but
is now a thin veneer over :mod:`repro.experiments.engine`: cells are
keyed :class:`~repro.experiments.engine.CellRequest` objects (including
the WLO engine name, so ablation runs can never alias baseline cells),
resolved through a :class:`~repro.experiments.engine.SweepExecutor`
that layers an in-memory memo, an optional persistent on-disk cache,
and a pluggable execution backend
(:mod:`repro.experiments.backends`: ``serial`` / ``workqueue``) for
bulk :meth:`prefetch` fan-out.
Sweeps are fault-tolerant: a failing cell never aborts
:meth:`prefetch` — it is reported in the returned stats while every
other cell completes and persists; :meth:`cell` raises a
:class:`~repro.errors.FlowError` carrying the captured exception text
when the one cell it was asked for failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FlowError
from repro.experiments.engine import (
    PAPER_CONSTRAINT_GRID,
    PAPER_TARGETS,
    Cell,
    CellRequest,
    KernelConfig,
    SweepExecutor,
    SweepPlan,
    SweepStats,
    build_context,
    float_cycles,
)
from repro.pipeline import AnalysisContext

__all__ = ["PAPER_CONSTRAINT_GRID", "PAPER_TARGETS", "Cell", "ExperimentRunner"]


@dataclass
class ExperimentRunner:
    """Builds kernels and runs sweep cells with memoization.

    ``jobs``/``cache``/``progress`` configure the underlying executor:
    ``jobs > 1`` makes :meth:`prefetch` fan cells out over the
    ``workqueue`` worker pool, ``cache`` (a
    :class:`~repro.experiments.cache.SweepCache`) persists results
    across processes and sessions.
    """

    n_samples: int = 2048
    analysis_samples: int = 160
    image_size: int = 66
    analysis_image_size: int = 18
    jobs: int = 1
    cache: object | None = None
    progress: object | None = None
    #: Execution backend name (``serial``/``workqueue``); ``None``
    #: auto-selects from ``jobs`` and the miss count.
    backend: str | None = None
    _cells: dict[CellRequest, Cell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.config = KernelConfig(
            n_samples=self.n_samples,
            analysis_samples=self.analysis_samples,
            image_size=self.image_size,
            analysis_image_size=self.analysis_image_size,
        )
        self.executor = SweepExecutor(
            self.config,
            cache=self.cache,
            jobs=self.jobs,
            memo=self._cells,
            progress=self.progress,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    @property
    def kernel_names(self) -> list[str]:
        return self.config.kernel_names

    def context(self, kernel: str) -> AnalysisContext:
        """The analysis context of a kernel: the prefix its cells share
        in the process-global pass cache."""
        return build_context(self.config, kernel)

    def float_cycles(self, kernel: str, target_name: str) -> int:
        return float_cycles(self.config, kernel, target_name)

    def cell(
        self,
        kernel: str,
        target_name: str,
        constraint_db: float,
        wlo: str = "tabu",
        flow: str = "wlo-slp",
        sim_backend: str = "",
        continuation: str = "",
        format: str = "",
    ) -> Cell:
        """Run (or recall) one sweep cell."""
        request = CellRequest(
            kernel, target_name, float(constraint_db), wlo, flow, sim_backend,
            continuation, format,
        )
        found = self._cells.get(request)
        if found is not None:
            return found
        plan = SweepPlan(self.config, [request])
        cells, stats = self.executor.run(plan)
        found = cells.get(request)
        if found is None:
            error = next(
                (text for req, text in stats.failures if req == request),
                "cell evaluation failed",
            )
            raise FlowError(
                f"sweep cell {kernel}:{target_name} @ {constraint_db:g} dB "
                f"(wlo={wlo}, flow={flow}) failed: {error}"
            )
        return found

    def sweep(
        self,
        kernel: str,
        target_name: str,
        grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
        wlo: str = "tabu",
        flow: str = "wlo-slp",
        sim_backend: str = "",
        continuation: str = "",
        format: str = "",
    ) -> list[Cell]:
        """All cells of one (kernel, target) panel.

        ``ensure_complete`` raises one :class:`FlowError` naming every
        failed cell up front — the alternative (letting :meth:`cell`
        trip over the first hole) would re-evaluate each failed cell a
        second time just to fail again.
        """
        self.prefetch(
            (kernel,), (target_name,), grid, wlo, flow=flow,
            sim_backend=sim_backend, continuation=continuation,
            format=format,
        ).ensure_complete()
        return [
            self.cell(
                kernel, target_name, a, wlo, flow, sim_backend, continuation,
                format,
            )
            for a in grid
        ]

    # ------------------------------------------------------------------
    def prefetch(
        self,
        kernels: tuple[str, ...],
        targets: tuple[str, ...],
        grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
        wlo: str = "tabu",
        only: tuple[str, ...] | None = None,
        flow: str = "wlo-slp",
        sim_backend: str = "",
        continuation: str = "",
        format: str = "",
    ) -> SweepStats:
        """Resolve a whole grid through the executor in one batch.

        This is where ``jobs > 1`` pays off: every missing cell of the
        grid is evaluated concurrently, then the figure/table builders
        read them back from the memo.  Returns the resolution stats.
        """
        plan = SweepPlan.build(
            self.config, kernels, targets, grid, wlo, only, flow, sim_backend,
            continuation, format,
        )
        _, stats = self.executor.run(plan)
        return stats

    # ------------------------------------------------------------------
    # Typed-request surface (repro.api) — what the CLI, the figure
    # drivers and the ``repro serve`` service all go through.

    @classmethod
    def from_request(cls, request, *, progress=None, **config) -> "ExperimentRunner":
        """Build a runner configured by a :class:`repro.api.SweepRequest`.

        Materializes the request's execution options — ``jobs``, the
        execution backend, and the cache configuration (``cache_dir``
        / ``no_cache``) — into a runner; ``config`` forwards kernel
        sizing overrides (``n_samples`` etc., used by tests for small
        fast grids).
        """
        from repro.experiments.cache import SweepCache

        cache = None
        if not request.no_cache:
            cache = SweepCache(request.cache_dir or None)
        return cls(
            jobs=request.jobs,
            cache=cache,
            progress=progress,
            backend=request.backend or None,
            **config,
        )

    def submit_iter(self, request):
        """Stream a :class:`repro.api.SweepRequest`'s cells as they
        resolve; yields :class:`CellOutcome` objects in completion
        order.  ``submit_iter(...).stats`` is live while streaming —
        the HTTP service reads it for job progress."""
        plan = request.plan(self.config)
        stats = SweepStats()

        class _Stream:
            def __init__(self, inner):
                self.stats = stats
                self._inner = inner

            def __iter__(self):
                return self._inner

        return _Stream(iter(self.executor.run_iter(plan, stats)))

    def submit(self, request):
        """Resolve a :class:`repro.api.SweepRequest` into a
        :class:`repro.api.SweepReport` (outcomes in plan order plus
        resolution counts)."""
        import time

        from repro.api import SweepReport

        started = time.perf_counter()
        stream = self.submit_iter(request)
        outcomes = list(stream)
        return SweepReport.build(
            request, outcomes, stream.stats,
            elapsed_s=time.perf_counter() - started,
        )
