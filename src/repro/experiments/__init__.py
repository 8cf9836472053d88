"""Evaluation harness regenerating every table and figure of the paper.

Architecture (one layer per module):

* :mod:`~repro.experiments.engine` — the parallel sweep engine.  A
  sweep is a :class:`SweepPlan` of frozen :class:`CellRequest` keys
  (kernel, target, constraint and the cell axes ``CELL_AXES``: WLO
  engine, joint flow, simulation backend, continuation mode, numeric
  format); :func:`evaluate_cell` is a
  pure, picklable function from request to :class:`Cell`; a
  :class:`SweepExecutor` resolves plans through an in-memory memo, an
  optional on-disk cache, and a pluggable execution backend,
  streaming completed cells back with progress callbacks.  Both
  backends are bit-identical on surviving cells; failing cells are
  captured per cell (source ``"failed"``) instead of aborting the
  sweep.
* :mod:`~repro.experiments.backends` — the execution-backend registry
  (fourth registry, next to flows, WLO engines and sim backends) and
  its in-process ``serial`` reference.
* :mod:`~repro.experiments.workqueue` — ``workqueue``, the parallel
  backend every ``--jobs N`` sweep runs on: an active coordinator
  leasing cells kernel by kernel to pull-based workers — per-worker
  heartbeats, lease reclaim from dead/stalled workers, cache-first
  assignment, and workers that load/store the shared disk cache
  directly, enabling multi-host cooperative sweeps over one
  ``--cache-dir``.  ``repro serve`` wraps it in a long-lived HTTP job
  service (:mod:`repro.serve`).
* :mod:`~repro.experiments.cache` — the persistent result store: one
  JSON file per cell, keyed by a content hash of the kernel config,
  the cell key and the flow code version, so semantic code edits
  invalidate exactly the stale cells and nothing else.  Corrupt files
  degrade to cache misses.
* :mod:`~repro.experiments.runner` — :class:`ExperimentRunner`, the
  facade the figure/table modules consume (``context`` / ``cell`` /
  ``sweep`` / ``prefetch``).
* :mod:`~repro.experiments.fig4` / :mod:`~repro.experiments.table1` /
  :mod:`~repro.experiments.fig6` / :mod:`~repro.experiments.ablations`
  / :mod:`~repro.experiments.validation` — the paper artifacts, all
  built on the same engine so every figure shares kernel builds,
  analysis contexts and sweep cells.

CLI entry point: ``repro sweep`` (see ``repro sweep --help``) runs any
slice of the grid with ``--jobs N`` workers and a warm ``--cache-dir``;
the figure commands accept the same flags.
"""

from repro.experiments.ablations import (
    ablation_quant_mode,
    ablation_wlo_engines,
    ablation_wlo_slp_features,
)
from repro.experiments.backends import (
    CellResult,
    ExecutionBackend,
    available_execution_backends,
    get_execution_backend,
    register_execution_backend,
)
from repro.experiments.cache import SweepCache, default_cache_dir
from repro.experiments.engine import (
    PAPER_CONSTRAINT_GRID,
    PAPER_TARGETS,
    Cell,
    CellOutcome,
    CellRequest,
    KernelConfig,
    SweepExecutor,
    SweepPlan,
    SweepStats,
    cell_pipeline_signature,
    evaluate_cell,
)
from repro.experiments.fig4 import (
    DENSE_CONSTRAINT_GRID,
    fig4_figure,
    fig4_panel,
    fig4_table,
    render_fig4,
)
from repro.experiments.fig6 import (
    FIG6_TARGETS,
    fig6_figure,
    fig6_series,
    fig6_table,
    render_fig6,
)
from repro.experiments.runner import ExperimentRunner
from repro.experiments.table1 import TABLE1_TARGETS, table1
from repro.experiments.validation import validation_table

# Imported last, for its registration side effect: workqueue.py builds
# on backends.py (never the other way around — that would be a cycle).
from repro.experiments.workqueue import WorkQueueBackend, WorkQueueScheduler

__all__ = [
    "Cell",
    "CellOutcome",
    "CellRequest",
    "CellResult",
    "DENSE_CONSTRAINT_GRID",
    "ExecutionBackend",
    "ExperimentRunner",
    "FIG6_TARGETS",
    "KernelConfig",
    "PAPER_CONSTRAINT_GRID",
    "PAPER_TARGETS",
    "SweepCache",
    "SweepExecutor",
    "SweepPlan",
    "SweepStats",
    "TABLE1_TARGETS",
    "WorkQueueBackend",
    "WorkQueueScheduler",
    "ablation_quant_mode",
    "ablation_wlo_engines",
    "ablation_wlo_slp_features",
    "available_execution_backends",
    "cell_pipeline_signature",
    "default_cache_dir",
    "evaluate_cell",
    "get_execution_backend",
    "register_execution_backend",
    "fig4_figure",
    "fig4_panel",
    "fig4_table",
    "fig6_figure",
    "fig6_series",
    "fig6_table",
    "render_fig4",
    "render_fig6",
    "table1",
    "validation_table",
]
