"""Experiment sweep runner — the friendly facade over the engine.

:class:`ExperimentRunner` keeps the interface the figure/table modules
and the benchmark harness use (``context``, ``cell``, ``sweep``,
``panels``, ``prefetch``) as a thin veneer over
:mod:`repro.experiments.engine`: cells are keyed
:class:`~repro.experiments.engine.CellRequest` objects, resolved
through a :class:`~repro.experiments.engine.SweepExecutor` that layers
an in-memory memo, an optional persistent on-disk cache, and a
pluggable execution backend (:mod:`repro.experiments.backends`:
``serial`` / ``workqueue``) for bulk :meth:`prefetch` fan-out.  The
runner is sized by one :class:`~repro.experiments.engine.KernelConfig`.

A cell's axes (:data:`~repro.experiments.engine.CELL_AXES`: the WLO
engine, the joint flow, the simulation backend, the continuation mode
and the numeric format) travel as one ``**axes`` mapping: the CLI
builds it once (:meth:`repro.api.SweepRequest.cell_axes`), and the
runner and the figure/table functions forward it to ``CellRequest``
without naming any axis, so variant cells can never alias baseline
cells and no layer can drop an axis.

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

    ``config`` sizes the kernels of every cell.  ``jobs``/``cache``/
    ``progress`` configure the underlying executor: ``jobs > 1`` makes
    :meth:`prefetch` fan cells out over the ``workqueue`` worker pool,
    ``cache`` (a :class:`~repro.experiments.cache.SweepCache`) persists
    results across processes and sessions.
    """

    config: KernelConfig = field(default_factory=KernelConfig)
    jobs: int = 1
    cache: object | None = None
    progress: object | None = None
    #: Execution backend name (``serial``/``workqueue``); ``None``
    #: auto-selects from ``jobs`` and the miss count.
    backend: str | None = None
    _cells: dict[CellRequest, Cell] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.executor = SweepExecutor(
            self.config,
            cache=self.cache,
            jobs=self.jobs,
            memo=self._cells,
            progress=self.progress,
            backend=self.backend,
        )

    # ------------------------------------------------------------------
    def context(self, kernel: str) -> AnalysisContext:
        """The analysis context of a kernel: the prefix its cells share
        in the process-global pass cache."""
        return build_context(self.config, kernel)

    def float_cycles(self, kernel: str, target_name: str) -> int:
        return float_cycles(self.config, kernel, target_name)

    def cell(
        self, kernel: str, target_name: str, constraint_db: float, **axes: str
    ) -> Cell:
        """Run (or recall) one sweep cell."""
        request = CellRequest(kernel, target_name, float(constraint_db), **axes)
        found = self._cells.get(request)
        if found is not None:
            return found
        cells, stats = self.executor.run(SweepPlan(self.config, [request]))
        found = cells.get(request)
        if found is None:
            error = next(
                (text for req, text in stats.failures if req == request),
                "cell evaluation failed",
            )
            raise FlowError(
                f"sweep cell {kernel}:{target_name} @ {constraint_db:g} dB "
                f"(wlo={request.wlo}, flow={request.flow}) failed: {error}"
            )
        return found

    def sweep(
        self,
        kernel: str,
        target_name: str,
        grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
        **axes: str,
    ) -> list[Cell]:
        """All cells of one (kernel, target) panel, in grid order."""
        panels = self.panels((kernel,), (target_name,), grid, **axes)
        return panels[kernel, target_name]

    def panels(
        self,
        kernels: tuple[str, ...],
        targets: tuple[str, ...],
        grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
        **axes: str,
    ) -> dict[tuple[str, str], list[Cell]]:
        """Each (kernel, target) panel's cells in grid order, kernel
        major, from one :meth:`prefetch` of the whole grid, which raises
        one :class:`FlowError` naming every failed cell up front (so no
        failed cell is evaluated twice)."""
        self.prefetch(kernels, targets, grid, **axes).ensure_complete()
        return {
            (k, t): [self.cell(k, t, a, **axes) for a in grid]
            for k in kernels
            for t in targets
        }

    # ------------------------------------------------------------------
    def prefetch(
        self,
        kernels: tuple[str, ...],
        targets: tuple[str, ...],
        grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID,
        only: tuple[str, ...] | None = None,
        **axes: str,
    ) -> SweepStats:
        """Resolve a whole grid through the executor in one batch.

        This is where ``jobs > 1`` pays off: every missing cell of the
        grid is evaluated concurrently, then the figure/table builders
        read them back from the memo.  Returns the resolution stats;
        the figure and table functions call its ``ensure_complete()``.
        """
        plan = SweepPlan.build(self.config, kernels, targets, grid, only, **axes)
        _, stats = self.executor.run(plan)
        return stats

    # ------------------------------------------------------------------
    # Typed-request surface (repro.api) — what ``repro sweep`` and the
    # ``repro serve`` service go through.

    @classmethod
    def from_request(
        cls,
        request,
        config: KernelConfig | None = None,
        *,
        progress=None,
        memo: dict[CellRequest, Cell] | None = None,
    ) -> "ExperimentRunner":
        """Build a runner configured by a :class:`repro.api.SweepRequest`.

        Materializes the request's execution options — ``jobs``, the
        execution backend, and the cache configuration (``cache_dir``
        / ``no_cache``) — into a runner of ``config``-sized kernels
        (tests use small fast grids); ``memo`` shares one cell memo
        between runners (``repro serve``'s jobs).
        """
        from repro.experiments.cache import SweepCache

        cache = None
        if not request.no_cache:
            cache = SweepCache(request.cache_dir or None)
        return cls(
            config or KernelConfig(),
            jobs=request.jobs,
            cache=cache,
            progress=progress,
            backend=request.backend or None,
            _cells={} if memo is None else memo,
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
