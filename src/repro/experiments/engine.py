"""Parallel, cache-persistent sweep engine.

The paper's evaluation is a grid of (kernel, target, constraint) cells
that Fig. 4, Table I, Fig. 6 and the ablations all re-derive.  This
module splits the old monolithic runner into three composable parts:

* :func:`evaluate_cell` — a *pure*, picklable function turning one
  :class:`CellRequest` into a :class:`Cell`.  Workers memoize kernel
  builds in a process-global table, and the pipeline's process-global
  pass cache holds each kernel's analysis prefix, so a batch of cells
  sharing a kernel pays for analysis once per process.
* :class:`SweepPlan` — enumerates and deduplicates the cells of a
  sweep (the job graph), ordered kernel-major so consecutive cells
  reuse contexts.
* :class:`SweepExecutor` — resolves a plan against an in-memory memo
  and an optional on-disk :class:`~repro.experiments.cache.SweepCache`,
  dispatching misses through a pluggable *execution backend*
  (:mod:`repro.experiments.backends`: in-process ``serial``, or the
  ``workqueue`` worker pool of :mod:`repro.experiments.workqueue`) and
  streaming completed cells back with progress callbacks.

Cell evaluation is deterministic (fixed analysis seeds), so both
backends produce bit-identical results on the surviving cells.
Failures are first-class: a cell that raises (e.g. an infeasible
constraint's :class:`~repro.errors.WLOError`) becomes a ``"failed"``
:class:`CellOutcome` carrying the exception text, while every other
cell keeps streaming — and keeps persisting to the disk cache — so
one bad cell can never lose a sweep's worth of completed work.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator

from repro.errors import FlowError, unknown_name_error
from repro.formats import canonical_format
from repro.kernels import conv2d, fir, iir
from repro.pipeline import (
    AnalysisContext,
    WloFirstResult,
    ensure_flow,
    get_flow,
    run_flow,
)
from repro.pipeline.registry import FLOWS
from repro.registry import canonical_name
from repro.targets.registry import get_target

__all__ = [
    "CELL_AXES",
    "FLOW_AXES",
    "PAPER_CONSTRAINT_GRID",
    "PAPER_TARGETS",
    "Cell",
    "CellOutcome",
    "CellRequest",
    "KernelConfig",
    "SweepPlan",
    "SweepExecutor",
    "SweepStats",
    "build_context",
    "cell_pipeline_signature",
    "evaluate_cell",
    "float_cycles",
    "format_noise_db",
    "kernel_programs",
    "wlo_stats_numbers",
]

#: Table I's constraint grid, reused for every figure by default.
PAPER_CONSTRAINT_GRID: tuple[float, ...] = (
    -5.0, -15.0, -25.0, -35.0, -45.0, -55.0, -65.0
)

#: Fig. 4's target set, in the paper's panel order.
PAPER_TARGETS: tuple[str, ...] = ("xentium", "st240", "vex-4", "vex-1")


@dataclass(frozen=True)
class KernelConfig:
    """Problem sizes shared by every cell of a sweep.

    Frozen (hashable, picklable): it is both the worker-side memo key
    for shared kernel/context builds and part of the on-disk cache key.
    """

    n_samples: int = 2048
    analysis_samples: int = 160
    image_size: int = 66
    analysis_image_size: int = 18

    def builders(self) -> dict[str, tuple[Callable, Callable]]:
        """Per-kernel (benchmark build, analysis-twin build) factories."""
        return {
            "fir": (
                lambda: fir(n_samples=self.n_samples),
                lambda: fir(n_samples=self.analysis_samples),
            ),
            "iir": (
                lambda: iir(n_samples=self.n_samples),
                lambda: iir(n_samples=max(self.analysis_samples, 384)),
            ),
            "conv": (
                lambda: conv2d(self.image_size, self.image_size),
                lambda: conv2d(self.analysis_image_size, self.analysis_image_size),
            ),
        }

    @property
    def kernel_names(self) -> list[str]:
        return list(self.builders())

    def kernel_builders(self, kernel: str) -> tuple[Callable, Callable]:
        """One kernel's pair of :meth:`builders` (the sweep's one kernel
        check: the standard unknown-name error for any other name)."""
        found = self.builders().get(canonical_name(kernel))
        if found is None:
            raise unknown_name_error(FlowError, "kernel", kernel, self.kernel_names)
        return found


@dataclass(frozen=True, order=True)
class CellRequest:
    """One sweep cell, fully keyed.

    ``wlo`` names the WLO-First engine (``tabu`` is the paper's
    baseline; ``max-1`` / ``min+1`` are the ablation engines) and
    ``flow`` names the registered joint flow evaluated for the
    ``wlo_slp_*`` columns (``wlo-slp`` is the paper's; any flow from
    :mod:`repro.pipeline` is sweepable).  Both are part of the key —
    and the on-disk cache additionally hashes the *resolved* pipeline
    structure (:func:`cell_pipeline_signature`) — so variant cells can
    never alias baseline cells.
    """

    kernel: str
    target: str
    constraint_db: float
    wlo: str = "tabu"
    flow: str = "wlo-slp"
    #: Simulation-backend override for the cell's simulation-backed
    #: passes; ``""`` (the default) keeps each flow's declared backend.
    #: A string rather than ``None`` so ``order=True`` comparisons and
    #: JSON round-trips stay total.
    sim_backend: str = ""
    #: Cross-constraint continuation mode of the cell's WLO passes
    #: (``""``/``"warm"``/``"pareto"``, see
    #: :mod:`repro.wlo.continuation`).  Part of the request — and,
    #: through the resolved pass signatures, of the pipeline cache key
    #: too — so warm and cold cells can never alias in either cache
    #: layer.
    continuation: str = ""
    #: Numeric format of the cell (:mod:`repro.formats`).  ``""`` (the
    #: default, canonical spelling of ``fixed``) is the paper's
    #: fixed-point path; a float format name (``float32``,
    #: ``bfloat16``, ``binary(E,M)``…) makes the cell a format cell:
    #: no WLO, cycles from the float flow, noise measured against the
    #: ``bigfloat`` oracle.  Normalized on construction so alternative
    #: spellings can never key distinct cells, and part of the request
    #: dataclass — hence of the on-disk cache key — so format cells
    #: never alias fixed-point cells.
    format: str = ""

    def __post_init__(self) -> None:
        # Frozen dataclass: store every name in its registry's spelling
        # (and "fixed"/"FIXED"/"" or binary(E,M) spacing variants as
        # the format's), so two spellings are one request identity.
        for name in ("kernel", "target", "wlo", "flow", "sim_backend"):
            object.__setattr__(self, name, canonical_name(getattr(self, name)))
        object.__setattr__(self, "format", canonical_format(self.format))


#: A cell's axes: the :class:`CellRequest` fields after its (kernel,
#: target, constraint_db) coordinates.  Every layer between the CLI and
#: the flows forwards them as one ``**axes`` mapping, so a new axis is
#: a new field here (plus its :class:`~repro.api.SweepRequest` field
#: and CLI flag).
CELL_AXES: tuple[str, ...] = tuple(f.name for f in fields(CellRequest))[3:]

#: The axes that are flow parameters: a flow declaring one in its
#: ``FlowSpec.params`` runs with the cell's value.  ``wlo`` is not
#: one — it selects the baseline's engine only, and a joint flow that
#: declares ``wlo`` (``wlo-first-greedy``) keeps its own engine.
FLOW_AXES: tuple[str, ...] = ("sim_backend", "continuation", "format")


@dataclass
class Cell:
    """All numbers of one (kernel, target, constraint) sweep cell."""

    kernel: str
    target: str
    constraint_db: float
    scalar_cycles: int
    wlo_first_simd_cycles: int
    wlo_slp_cycles: int
    float_cycles: int
    wlo_first_groups: int
    wlo_slp_groups: int
    wlo_first_noise_db: float
    wlo_slp_noise_db: float
    #: WLO search effort provenance (``--timings`` and the serve wire):
    #: iteration and candidate-evaluation totals summed over the cell's
    #: two constraint-driven searches (baseline engine + joint flow),
    #: and whether either search continued from a warm start.  Default
    #: values keep pre-continuation disk-cache payloads loadable.
    wlo_iterations: int = 0
    wlo_evaluations: int = 0
    warm_start: bool = False

    @property
    def wlo_first_speedup(self) -> float:
        """SIMD WLO-First over scalar fixed-point (Fig. 4 series 1)."""
        return self.scalar_cycles / self.wlo_first_simd_cycles

    @property
    def wlo_slp_speedup(self) -> float:
        """SIMD WLO-SLP over scalar fixed-point (Fig. 4 series 2)."""
        return self.scalar_cycles / self.wlo_slp_cycles

    @property
    def float_speedup(self) -> float:
        """WLO-SLP over the floating-point original (Fig. 6)."""
        return self.float_cycles / self.wlo_slp_cycles


# ----------------------------------------------------------------------
# Pure cell evaluation (runs in workers; all state is process-global).

#: Per-process cache of kernel builds, keyed by the full (config,
#: kernel) pair so differently-sized runners never collide.  Flow-level
#: sharing (analysis passes, lowerings) lives in the pipeline's
#: process-global :class:`~repro.pipeline.cache.PassCache`, keyed by
#: content hash.
_PROGRAMS: dict[tuple[KernelConfig, str], tuple] = {}
#: Serializes ``_PROGRAMS`` fills, so concurrent ``repro serve`` job
#: threads share one pair per key (the per-program memos hang off it).
_PROGRAMS_LOCK = threading.Lock()


def kernel_programs(config: KernelConfig, kernel: str) -> tuple:
    """Build (or recall) one kernel's (benchmark, analysis-twin) pair."""
    key = (config, canonical_name(kernel))
    with _PROGRAMS_LOCK:
        found = _PROGRAMS.get(key)
        if found is None:
            build, build_twin = config.kernel_builders(kernel)
            found = (build(), build_twin())
            _PROGRAMS[key] = found
    return found


def build_context(config: KernelConfig, kernel: str) -> AnalysisContext:
    """The analysis context of one kernel: the prefix its cells share,
    read from (or run into) the process-global pass cache."""
    return AnalysisContext.build(*kernel_programs(config, kernel))


def float_cycles(config: KernelConfig, kernel: str, target: str) -> int:
    """Cycle count of the floating-point original (the ``float`` flow,
    pass-cached like every cell's)."""
    program, _ = kernel_programs(config, kernel)
    return run_flow("float", program, get_target(target)).total_cycles


#: (flow registry generation, memoized signatures by cell axes) — the
#: sweep cache computes a cell key on every load *and* store, so each
#: axes' structure is resolved once per registry state instead of
#: rebuilding three pipelines per cell.
_SIGNATURES: list = [-1, {}]


def cell_pipeline_signature(request: CellRequest) -> dict[str, list[str]]:
    """Resolved pipeline structure of one cell's three flow runs.

    Maps each role (``float`` reference, ``baseline`` = WLO-First with
    the request's engine, ``joint`` = the request's flow) to its
    ordered pass signatures.  The on-disk sweep cache hashes this into
    the cell key, so declaring a new flow variant — or changing an
    existing flow's pass list or parameters — can never alias cached
    cells of another pipeline shape.
    """
    generation = FLOWS.generation
    if _SIGNATURES[0] != generation:
        _SIGNATURES[0] = generation
        _SIGNATURES[1] = {}
    memo = _SIGNATURES[1]
    key = tuple(getattr(request, axis) for axis in CELL_AXES)
    found = memo.get(key)
    if found is None:
        found = {
            "float": get_flow("float").pass_names(
                **_flow_overrides(get_flow("float"), request)
            ),
            "baseline": get_flow("wlo-first").pass_names(
                wlo=request.wlo,
                **_flow_overrides(get_flow("wlo-first"), request),
            ),
            "joint": get_flow(request.flow).pass_names(
                **_flow_overrides(get_flow(request.flow), request)
            ),
        }
        memo[key] = found
    return found


def _flow_overrides(spec, request) -> dict[str, str]:
    """The request's set :data:`FLOW_AXES` that the flow declares.

    An axis a flow does not declare (the ``float`` flow has no
    simulation-backed pass and no search) is a no-op for that flow,
    not an error.  ``request`` is a :class:`CellRequest` or any object
    carrying some of the axes (``repro run``'s
    :class:`~repro.api.RunRequest`).  The overrides land in the
    resolved pass signatures, and so in both the per-pass cache key
    and (via :func:`cell_pipeline_signature`) the on-disk sweep cache
    key.
    """
    return {
        axis: getattr(request, axis)
        for axis in FLOW_AXES
        if getattr(request, axis, "") and axis in spec.params
    }


def wlo_stats_numbers(stats: Any) -> tuple[int, int, bool]:
    """``(iterations, evaluations, warm_start)`` of any engine's stats.

    Normalizes across the statistics shapes the WLO passes emit:
    ``TabuResult.iterations``, ``GreedyResult``/``ParetoResult``
    ``.moves``, ``WloSlpOutcome.selection.rounds`` (with
    ``benefit_evaluations`` as the evaluation count), falling back to
    zeros for stats a custom engine reports differently.
    """
    if stats is None:
        return 0, 0, False
    iterations = getattr(stats, "iterations", None)
    if iterations is None:
        iterations = getattr(stats, "moves", None)
    evaluations = getattr(stats, "evaluations", None)
    selection = getattr(stats, "selection", None)
    if selection is not None:
        if iterations is None:
            iterations = getattr(selection, "rounds", None)
        if evaluations is None:
            evaluations = getattr(selection, "benefit_evaluations", None)
    try:
        iterations = int(iterations or 0)
        evaluations = int(evaluations or 0)
    except (TypeError, ValueError):
        iterations, evaluations = 0, 0
    return iterations, evaluations, bool(getattr(stats, "warm_start", False))


def evaluate_cell(
    config: KernelConfig, request: CellRequest, flows: tuple = ()
) -> Cell:
    """Evaluate one sweep cell from scratch (deterministic, picklable).

    This is the unit of work shipped to pool workers.  All three flows
    (float reference, WLO-First baseline with the request's engine, and
    the request's joint flow) resolve through the flow registry and run
    as pass pipelines; the process-global pass cache makes every cell
    of a batch that shares a kernel reuse one analysis prefix, and
    cells sharing (kernel, target, constraint) reuse lowerings too.

    ``flows`` carries :class:`~repro.pipeline.FlowSpec` declarations to
    adopt before resolving — how runtime-declared flow variants reach
    pool workers on spawn/forkserver start methods (workers re-import
    the package and would otherwise only know the built-ins).

    Format cells (``request.format`` set) take a different route: see
    :func:`_evaluate_format_cell`.
    """
    for spec in flows:
        ensure_flow(spec)
    if request.format:
        return _evaluate_format_cell(config, request)
    program, twin = kernel_programs(config, request.kernel)
    target = get_target(request.target)
    float_total = run_flow(
        "float", program, target, analysis_program=twin
    ).total_cycles
    baseline = run_flow(
        "wlo-first", program, target, request.constraint_db,
        analysis_program=twin, wlo=request.wlo,
        **_flow_overrides(get_flow("wlo-first"), request),
    )
    joint = run_flow(
        request.flow, program, target, request.constraint_db,
        analysis_program=twin,
        **_flow_overrides(get_flow(request.flow), request),
    )
    if isinstance(joint, WloFirstResult):
        joint = joint.simd  # decoupled variants: their SIMD best effort
    base_iters, base_evals, base_warm = wlo_stats_numbers(
        baseline.simd.extra.get("wlo_stats")
    )
    joint_iters, joint_evals, joint_warm = wlo_stats_numbers(
        joint.extra.get("wlo_stats")
    )
    return Cell(
        kernel=request.kernel,
        target=request.target,
        constraint_db=request.constraint_db,
        scalar_cycles=baseline.scalar.total_cycles,
        wlo_first_simd_cycles=baseline.simd.total_cycles,
        wlo_slp_cycles=joint.total_cycles,
        float_cycles=float_total,
        wlo_first_groups=baseline.simd.n_groups,
        wlo_slp_groups=joint.n_groups,
        # `is None`, not `or`: a legitimately measured 0.0 dB noise is
        # a value, only an unmeasured result maps to the 0.0 sentinel.
        wlo_first_noise_db=(
            0.0 if baseline.simd.noise_db is None else baseline.simd.noise_db
        ),
        wlo_slp_noise_db=0.0 if joint.noise_db is None else joint.noise_db,
        wlo_iterations=base_iters + joint_iters,
        wlo_evaluations=base_evals + joint_evals,
        warm_start=base_warm or joint_warm,
    )


#: Per-process memo of measured format noise, keyed
#: (config, kernel, format): the noise of a float format is
#: constraint- and target-independent, so a format sweep's whole
#: (kernel, format) panel measures it once per process.
_FORMAT_NOISE: dict[tuple[KernelConfig, str, str], float] = {}
#: Serializes ``_FORMAT_NOISE`` fills like ``_PROGRAMS_LOCK``, so job
#: threads asking for one format together measure it once.
_FORMAT_NOISE_LOCK = threading.Lock()


def format_noise_db(config: KernelConfig, kernel: str, format: str) -> float:
    """Measured noise (dB) of executing ``kernel`` in ``format``.

    Evaluated on the kernel's analysis twin against the ``bigfloat``
    oracle reference (memoized per process); the iir twin discards its
    warm-up transient exactly like the validation experiment does.
    """
    key = (config, kernel, canonical_format(format))
    with _FORMAT_NOISE_LOCK:
        found = _FORMAT_NOISE.get(key)
        if found is None:
            # Local import: the accuracy package sits above the IR but
            # the engine is imported by lightweight consumers that
            # never evaluate format cells.
            from repro.accuracy.simulation import FormatAccuracyEvaluator

            _, twin = kernel_programs(config, kernel)
            evaluator = FormatAccuracyEvaluator(
                twin, key[2], n_stimuli=2,
                discard=64 if kernel == "iir" else 0,
            )
            found = evaluator.noise_db()
            _FORMAT_NOISE[key] = found
    return found


def _evaluate_format_cell(config: KernelConfig, request: CellRequest) -> Cell:
    """Evaluate one *format* cell (``request.format`` set).

    A float-format cell has no word-length search: the kernel runs in
    the format everywhere, so its cycle count is the float flow's total
    (the cycle model is precision-independent — one float machine op
    per scalar op) and its noise is the format's measured rounding
    noise against the ``bigfloat`` oracle.  Every cycle column carries
    that one total (speedups are identically 1.0), the SLP group
    counts are zero, and the cell is never constraint-infeasible — the
    constraint axis merely records which noise budget the format is
    being compared against, so format sweeps always complete.
    """
    program, twin = kernel_programs(config, request.kernel)
    target = get_target(request.target)
    total = run_flow(
        "float", program, target, analysis_program=twin,
        format=request.format,
    ).total_cycles
    noise = format_noise_db(config, request.kernel, request.format)
    return Cell(
        kernel=request.kernel,
        target=request.target,
        constraint_db=request.constraint_db,
        scalar_cycles=total,
        wlo_first_simd_cycles=total,
        wlo_slp_cycles=total,
        float_cycles=total,
        wlo_first_groups=0,
        wlo_slp_groups=0,
        wlo_first_noise_db=noise,
        wlo_slp_noise_db=noise,
    )


# ----------------------------------------------------------------------
# Job graph.


@dataclass
class SweepPlan:
    """The deduplicated job graph of one sweep."""

    config: KernelConfig
    requests: list[CellRequest]

    @staticmethod
    def build(
        config: KernelConfig,
        kernels: Iterable[str],
        targets: Iterable[str],
        grid: Iterable[float] = PAPER_CONSTRAINT_GRID,
        only: Iterable[str] | None = None,
        **axes: str,
    ) -> "SweepPlan":
        """Enumerate (kernel × target × constraint) cells.

        ``only`` restricts the grid to ``kernel:target`` pairs (the CLI
        ``--only fir:vex-1`` filter); ``axes`` (any of
        :data:`CELL_AXES`, see :class:`CellRequest`) stamp every cell.
        Duplicates are dropped and the result is ordered kernel-major
        so consecutive cells share analysis-pass results — the
        shared-work deduplication that makes the serial path and each
        pool worker analyze every kernel once.

        A ``continuation`` mode orders each (kernel, target) panel's
        constraints strictest-first (most negative dB first): a
        stricter solution is always feasible at a looser constraint,
        so in-order execution hands every cell after a panel's first a
        usable warm seed.  The ordering is an *optimization*, not a
        contract — continuation stores are per process, so a panel
        split across ``workqueue`` workers runs partly cold, never
        wrong.
        """
        pairs = _parse_only(only)
        constraints = [float(constraint) for constraint in grid]
        if axes.get("continuation"):
            constraints = sorted(constraints)
        seen: set[CellRequest] = set()
        requests: list[CellRequest] = []
        for kernel in map(canonical_name, kernels):
            for target in map(canonical_name, targets):
                if pairs is not None and (kernel, target) not in pairs:
                    continue
                for constraint in constraints:
                    request = CellRequest(kernel, target, constraint, **axes)
                    if request not in seen:
                        seen.add(request)
                        requests.append(request)
        return SweepPlan(config, requests)

    @property
    def kernels(self) -> list[str]:
        """Unique kernels of the plan, in first-appearance order."""
        return list(dict.fromkeys(r.kernel for r in self.requests))

    def __len__(self) -> int:
        return len(self.requests)


def _parse_only(only: Iterable[str] | None) -> set[tuple[str, str]] | None:
    if only is None:
        return None
    pairs: set[tuple[str, str]] = set()
    for item in only:
        kernel, sep, target = canonical_name(item).partition(":")
        if not sep or not kernel or not target:
            raise FlowError(
                f"bad --only filter {item!r}; expected KERNEL:TARGET"
            )
        pairs.add((kernel, target))
    return pairs


# ----------------------------------------------------------------------
# Executor.


@dataclass
class CellOutcome:
    """One resolved cell, tagged with where its numbers came from."""

    request: CellRequest
    #: ``None`` exactly when the cell failed (see ``error``).
    cell: Cell | None
    #: ``"memo"`` (in-memory), ``"cache"`` (disk), ``"computed"``, or
    #: ``"failed"`` (the cell raised; ``error`` holds the text).
    source: str
    #: Exception text of a failed cell (``TypeName: message``).
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.cell is None


@dataclass
class SweepStats:
    """How a plan's cells were resolved (failures included)."""

    memo: int = 0
    cache: int = 0
    computed: int = 0
    failed: int = 0
    #: ``(request, exception text)`` of every failed cell, plan order.
    failures: list[tuple[CellRequest, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.memo + self.cache + self.computed + self.failed

    def count(self, source: str) -> None:
        setattr(self, source, getattr(self, source) + 1)

    def counts(self) -> dict[str, int]:
        """Cells per resolution source: the ``counts`` of a
        :class:`~repro.api.SweepReport` and of a ``repro serve`` job
        (``SweepStats(**counts)`` reads them back)."""
        return {
            source: getattr(self, source)
            for source in ("memo", "cache", "computed", "failed")
        }

    def summary(self) -> str:
        text = (
            f"{self.total} cells: {self.computed} computed, "
            f"{self.cache} from disk cache, {self.memo} memoized"
        )
        if self.failed:
            text += f", {self.failed} failed"
        return text

    def ensure_complete(self) -> None:
        """Raise :class:`FlowError` if any cell failed.

        Called by consumers that need the *whole* grid (the figure and
        table builders) — after the executor has finished everything
        completable and persisted it, so a re-run after fixing the
        failing cells is warm.
        """
        if self.failures:
            raise _incomplete_error(self.failures, self.total)


def _incomplete_error(
    failures: list[tuple[CellRequest, str]], total: int
) -> FlowError:
    """The one error naming every failed cell of a ``total``-cell grid."""
    details = "; ".join(
        f"{r.kernel}:{r.target} @ {r.constraint_db:g} dB "
        f"(wlo={r.wlo}, flow={r.flow}): {error}"
        for r, error in failures
    )
    return FlowError(
        f"{len(failures)} of {total} sweep cells failed "
        f"(all other cells completed) — {details}"
    )


class SweepExecutor:
    """Resolves sweep plans through memo, disk cache and a dispatcher.

    Layering per cell: the in-memory ``memo`` dict (shared with the
    owning :class:`~repro.experiments.runner.ExperimentRunner`), then
    the optional on-disk cache, then evaluation through an execution
    backend from :mod:`repro.experiments.backends`.  ``backend=None``
    auto-selects: in-process ``serial`` when ``jobs <= 1`` or a single
    cell is missing, the ``workqueue`` worker pool otherwise; pass
    ``"serial"`` / ``"workqueue"`` (or any registered name) to pin
    one.  Completed cells stream back through
    :meth:`run_iter` as they finish; failed cells stream too (source
    ``"failed"``), so the rest of the sweep always completes and
    persists.
    """

    def __init__(
        self,
        config: KernelConfig,
        *,
        cache=None,
        jobs: int = 1,
        memo: dict[CellRequest, Cell] | None = None,
        progress: Callable[[int, int, CellOutcome], None] | None = None,
        backend: str | None = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.jobs = max(1, int(jobs))
        self.memo = memo if memo is not None else {}
        self.progress = progress
        self.backend = backend

    # ------------------------------------------------------------------
    def run(self, plan: SweepPlan) -> tuple[dict[CellRequest, Cell], SweepStats]:
        """Resolve a whole plan; returns (cells, stats).

        Failed cells are absent from ``cells`` and listed in
        ``stats.failures``; callers needing the full grid should
        ``stats.ensure_complete()``.
        """
        stats = SweepStats()
        cells: dict[CellRequest, Cell] = {}
        for outcome in self.run_iter(plan, stats):
            if outcome.cell is not None:
                cells[outcome.request] = outcome.cell
        return cells, stats

    def run_iter(
        self, plan: SweepPlan, stats: SweepStats | None = None
    ) -> Iterator[CellOutcome]:
        """Stream the plan's cells back as they resolve."""
        stats = stats if stats is not None else SweepStats()
        if self.cache is not None:
            # Coordinator-side directory grooming: orphaned temp files
            # of hard-killed workers are swept here, at most once per
            # directory and stale window in a process, never in the
            # workers' store hot path.
            self.cache.sweep_stale_tmp()
        total = len(plan.requests)
        misses: list[CellRequest] = []

        def emit(outcome: CellOutcome) -> CellOutcome:
            stats.count(outcome.source)
            if self.progress is not None:
                self.progress(stats.total, total, outcome)
            return outcome

        for request in plan.requests:
            found = self.memo.get(request)
            if found is not None:
                yield emit(CellOutcome(request, found, "memo"))
                continue
            if self.cache is not None:
                cached = self.cache.load(plan.config, request)
                if cached is not None:
                    self.memo[request] = cached
                    yield emit(CellOutcome(request, cached, "cache"))
                    continue
            misses.append(request)

        for result in self._evaluate(plan.config, misses):
            if result.error is not None:
                stats.failures.append((result.request, result.error))
                yield emit(
                    CellOutcome(result.request, None, "failed", result.error)
                )
                continue
            self.memo[result.request] = result.cell
            if self.cache is not None and not result.stored:
                self.cache.store(plan.config, result.request, result.cell)
            yield emit(CellOutcome(result.request, result.cell, result.source))

    # ------------------------------------------------------------------
    def _evaluate(self, config: KernelConfig, misses: list[CellRequest]):
        """Dispatch the cache misses through the execution backend."""
        # Local import: backends.py imports this module (the registry
        # sits beside the engine, not under it).
        from repro.experiments.backends import get_execution_backend

        if not misses:
            return
        name = self.backend
        if name is None:  # auto: pool only when it can pay off
            name = "serial" if self.jobs == 1 or len(misses) == 1 else "workqueue"
        backend = get_execution_backend(name)
        yield from backend.evaluate(
            config, misses, jobs=self.jobs, cache=self.cache
        )
