"""Engine micro-benchmarks: fan-out, reuse, continuation, memo, work.

Five benchmarks, all recorded (merged by name) into
``benchmarks/results/BENCH_sweep.json`` so future PRs have a perf
trajectory for the engine:

* ``sweep_serial_vs_parallel`` — the same reduced-size plan through a
  serial executor and a ``jobs > 1`` one (the ``workqueue`` backend),
  each started cold, asserting bit-identical cells and recording the
  backend the parallel side resolved; it records the speedup and
  guards none.
* ``pass_reuse`` — one kernel through the ``wlo-slp`` pipeline at two
  constraints against a fresh :class:`~repro.pipeline.PassCache`; the
  second constraint must resolve the whole analysis prefix (range
  analysis, adjoint gains, accuracy model) from cache with **zero**
  re-executions, which is what makes constraint sweeps cheap.
* ``wlo_continuation`` — the same fir:vex-1 paper-grid sweep cold and
  with ``--continuation``-style warm starts, guarding the warm-start
  evaluation cut, that warm is no slower than cold, and the
  continuation quality contract (every warm cell feasible at cost ≤ its
  cold counterpart).
* ``noise_memo`` — the cold fir panel of the paper grid (4 targets × 7
  constraints), guarding that the accuracy model's state-keyed noise
  memo evaluates the closed form at most once per state, that targets
  sharing a datapath run each search once, and that batched
  neighbourhoods and trial tables almost never need an exact recheck;
  it also records the neighbourhood memo's hits, the trial tables'
  visits and the SLP index's selections.
* ``distinct_work`` — the cold serial 84-cell paper grid, guarding
  that SLP extraction, lowering and scheduling run once per distinct
  spec and groups (at most 28, 56, 88 and 156 runs; at most 484
  ``schedule_block`` calls) and each search once per kernel, datapath
  and constraint (42 runs each of ``wlo`` and ``wlo-slp``).
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import time

from repro.accuracy.analytical import AccuracyModel
from repro.experiments import KernelConfig, SweepExecutor, SweepPlan
from repro.experiments import backends, engine
from repro.experiments.engine import PAPER_CONSTRAINT_GRID, PAPER_TARGETS
from repro.pipeline import ANALYSIS_PASS_NAMES, PassCache, run_flow
from repro.pipeline.cache import global_pass_cache
from repro.pipeline.passes import (
    AccuracyModelPass,
    AdjointGainsPass,
    RangeAnalysisPass,
)
from repro.scheduler import cycles
from repro.slp import extraction
from repro.targets import get_target
from repro.wlo import clear_continuations

from conftest import record_bench as _record

#: Warm-start continuation must cut the WLO evaluations of the fir:vex-1
#: paper-grid sweep at least this much (deterministic: 5,122 -> 1,705).
WARM_EVALS_FLOOR = 2.5

#: ... and must never cost wall time.  The noise memo, the trial tables
#: and the neighbourhood memo let a cold sweep share most of its accuracy work
#: across constraints, so the gain is small (about 1.4-1.5x without the
#: analysis prefix, about 1.13x with it); the guard only catches a warm
#: start that became slower than a cold one.
WARM_SPEEDUP_FLOOR = 1.0
#: Paired cold/warm rounds whose median ratio the floor applies to.
WARM_SPEEDUP_ROUNDS = 9

#: One accuracy model serves all 28 cells of a kernel, and every search
#: starts from the same all-max spec, so most noise queries repeat a
#: state: the cold fir panel evaluates the closed form for 20 distinct
#: single states (deterministic), each exactly once.  The Tabu
#: neighbourhoods and the joint SLP rounds' trials are batched rows,
#: counted apart (1,574 single states when Tabu asked about each move,
#: 82 when the joint rounds asked about each trial).
NOISE_MEMO_MAX_EVALUATIONS = 20

#: A batched row (a Tabu move or a trial-table row) is re-asked exactly
#: only when its noise lies within its forward error bound of the
#: constraint; more than this share of rows means the bound has got
#: loose.
MAX_RECHECK_SHARE = 0.01

#: The fir panel's 4 targets have 2 datapaths (2x16; 2x16 + 4x8), so
#: each search runs once per datapath and constraint: 2 x 7.  SLP
#: extraction reads the WLO-First spec by content, and those 14 specs
#: hold 9 distinct ones.
SEARCH_RUNS = {"wlo": 14, "wlo-slp": 14, "slp-extract": 9}

#: The cold serial 84-cell paper grid runs each back-end pass once per
#: distinct input (spec and groups are keyed by content): at most these
#: many runs (168, 264, 84 and 42 while the constraint keyed them), and
#: each search exactly once per kernel, datapath and constraint.
DISTINCT_WORK_MAX_RUNS = {
    "lower-simd": 88, "schedule": 156, "lower-scalar": 56, "slp-extract": 28,
}
DISTINCT_WORK_SEARCH_RUNS = {"wlo": 42, "wlo-slp": 42}
#: ... and at most this many ``schedule_block`` calls (704 before).
#: They schedule 174 distinct (machine block, target) pairs, compared
#: by ``repr``; a per-block memo could cut them to that.
DISTINCT_WORK_MAX_SCHEDULES = 484

BENCH_CONFIG = KernelConfig(
    n_samples=256, analysis_samples=96, image_size=24, analysis_image_size=18
)
BENCH_GRID = (-15.0, -25.0, -45.0, -65.0)
BENCH_KERNELS = ("fir", "iir")
BENCH_TARGETS = ("xentium", "vex-1")
# Always exercise the pool (≥2 workers) so the bit-identical check
# covers the parallel path even on single-core runners.
BENCH_JOBS = max(2, min(4, os.cpu_count() or 1))


def _forget_process_memos() -> None:
    """Empty the process-global memos a sweep fills (the pass cache and
    the engine's kernel memo), so the next sweep — and every pool
    worker it forks — starts cold."""
    global_pass_cache().clear()
    engine._PROGRAMS.clear()


def test_bench_sweep_serial_vs_parallel(results_dir, monkeypatch):
    """Both sides start cold: a pool forked after the serial side would
    inherit its warm memos and report a superlinear speedup."""
    plan = SweepPlan.build(BENCH_CONFIG, BENCH_KERNELS, BENCH_TARGETS, BENCH_GRID)

    _forget_process_memos()
    started = time.perf_counter()
    serial_cells, serial_stats = SweepExecutor(BENCH_CONFIG, jobs=1).run(plan)
    serial_seconds = time.perf_counter() - started
    assert serial_stats.computed == len(plan)

    resolved: list[str] = []
    lookup = backends.get_execution_backend

    def recording_lookup(name):
        resolved.append(name)
        return lookup(name)

    monkeypatch.setattr(backends, "get_execution_backend", recording_lookup)
    _forget_process_memos()
    started = time.perf_counter()
    parallel_cells, parallel_stats = SweepExecutor(
        BENCH_CONFIG, jobs=BENCH_JOBS
    ).run(plan)
    parallel_seconds = time.perf_counter() - started
    assert parallel_stats.computed == len(plan)
    (parallel_backend,) = resolved

    # The acceptance bar: fan-out must not change a single number.
    assert parallel_cells == serial_cells

    _record("sweep_serial_vs_parallel", {
        "n_cells": len(plan),
        "kernels": list(BENCH_KERNELS),
        "targets": list(BENCH_TARGETS),
        "grid_db": list(BENCH_GRID),
        "jobs": BENCH_JOBS,
        "backend": parallel_backend,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "parallel_speedup": round(serial_seconds / parallel_seconds, 2),
    })


def test_bench_pass_reuse(results_dir):
    """A warm analysis cache must skip every analysis pass."""
    build, build_twin = BENCH_CONFIG.builders()["fir"]
    program, twin = build(), build_twin()
    target = get_target("xentium")
    cache = PassCache()

    started = time.perf_counter()
    cold = run_flow(
        "wlo-slp", program, target, BENCH_GRID[0],
        analysis_program=twin, cache=cache,
    )
    cold_seconds = time.perf_counter() - started
    for name in ANALYSIS_PASS_NAMES:
        assert cache.executions(name) == 1

    started = time.perf_counter()
    warm = run_flow(
        "wlo-slp", program, target, BENCH_GRID[1],
        analysis_program=twin, cache=cache,
    )
    warm_seconds = time.perf_counter() - started

    # The acceptance bar: zero re-executions of any analysis pass on
    # the second constraint — all three resolve from the pass cache.
    for name in ANALYSIS_PASS_NAMES:
        assert cache.executions(name) == 1
        assert cache.hits[name] == 1
    assert cold.total_cycles > 0 and warm.total_cycles > 0

    _record("pass_reuse", {
        "kernel": "fir",
        "target": "xentium",
        "constraints_db": [BENCH_GRID[0], BENCH_GRID[1]],
        "analysis_passes": list(ANALYSIS_PASS_NAMES),
        "python": platform.python_version(),
        "cold_seconds": round(cold_seconds, 3),
        "warm_seconds": round(warm_seconds, 3),
        "warm_speedup": round(cold_seconds / warm_seconds, 2),
    })


def test_bench_wlo_continuation(results_dir, monkeypatch):
    """Warm-start continuation on the fir:vex-1 paper grid.

    Guards the deterministic WLO evaluation cut (≥ WARM_EVALS_FLOOR) and
    a wall-time floor (≥ WARM_SPEEDUP_FLOOR).  Both modes run serially
    against an empty process-global pass cache and an empty
    continuation store, so each sweep pays its own analysis prefix and
    lowerings.  The prefix is the same work in both modes and most of a
    sweep, so it is timed apart and left out of each sweep's seconds:
    what remains differs between the modes only in WLO search effort,
    and the comparison means what it did with the prefix in (the same
    amount subtracted from both sides), without its run-to-run noise.
    Each round times a cold and then a warm sweep back to back, and the
    floor applies to the median of the rounds' cold/warm ratios, so a
    drift in machine speed hits both sides of a ratio alike and a burst
    of load spoils at most the rounds it lands in.  Each sweep starts
    from a collected heap and runs with the collector off, as
    ``timeit`` does, so a full collection of what the other mode left
    behind never lands inside a timed sweep.  The quality contract
    (feasible, cost ≤ cold, per cell) is asserted on the measured cells.
    """
    prefix_seconds = [0.0]

    def timed(run):
        def run_timed(self, state):
            started = time.perf_counter()
            try:
                return run(self, state)
            finally:
                prefix_seconds[0] += time.perf_counter() - started
        return run_timed

    for analysis_pass in (RangeAnalysisPass, AdjointGainsPass, AccuracyModelPass):
        monkeypatch.setattr(analysis_pass, "run", timed(analysis_pass.run))

    def sweep(continuation: str) -> tuple[float, dict]:
        global_pass_cache().clear()
        clear_continuations()
        plan = SweepPlan.build(
            BENCH_CONFIG, ("fir",), ("vex-1",), PAPER_CONSTRAINT_GRID,
            continuation=continuation,
        )
        gc.collect()
        gc.disable()
        prefix_seconds[0] = 0.0
        try:
            started = time.perf_counter()
            cells, stats = SweepExecutor(BENCH_CONFIG, jobs=1).run(plan)
            seconds = time.perf_counter() - started - prefix_seconds[0]
        finally:
            gc.enable()
        assert stats.computed == len(plan)
        return seconds, cells

    cold_times, warm_times = [], []
    for _ in range(WARM_SPEEDUP_ROUNDS):
        seconds, cold_cells = sweep("")
        cold_times.append(seconds)
        seconds, warm_cells = sweep("warm")
        warm_times.append(seconds)
    global_pass_cache().clear()
    clear_continuations()

    # The quality contract: every warm cell is feasible and no more
    # expensive than its cold counterpart; cells after the strictest
    # actually continued from a neighbor.
    warm_started = 0
    for request, warm_cell in warm_cells.items():
        cold_cell = cold_cells[type(request)(
            request.kernel, request.target, request.constraint_db,
            request.wlo, request.flow, request.sim_backend, "",
        )]
        assert warm_cell.wlo_first_noise_db <= request.constraint_db
        assert warm_cell.wlo_slp_noise_db <= request.constraint_db
        assert warm_cell.wlo_first_simd_cycles <= cold_cell.wlo_first_simd_cycles
        assert warm_cell.wlo_slp_cycles <= cold_cell.wlo_slp_cycles
        warm_started += bool(warm_cell.warm_start)
    assert warm_started >= len(warm_cells) - 1

    # The acceptance bars: warm-start continuation cuts the search
    # effort, and never costs wall time.
    cold_evals = sum(c.wlo_evaluations for c in cold_cells.values())
    warm_evals = sum(c.wlo_evaluations for c in warm_cells.values())
    reduction = cold_evals / warm_evals
    assert reduction >= WARM_EVALS_FLOOR
    speedup = statistics.median(
        cold / warm for cold, warm in zip(cold_times, warm_times)
    )
    assert speedup >= WARM_SPEEDUP_FLOOR
    _record("wlo_continuation", {
        "kernel": "fir",
        "target": "vex-1",
        "grid_db": list(PAPER_CONSTRAINT_GRID),
        "python": platform.python_version(),
        "cold_seconds": round(statistics.median(cold_times), 3),
        "warm_seconds": round(statistics.median(warm_times), 3),
        "warm_speedup": round(speedup, 2),
        "speedup_floor": WARM_SPEEDUP_FLOOR,
        "cold_evaluations": cold_evals,
        "warm_evaluations": warm_evals,
        "evaluations_reduction": round(reduction, 2),
        "evaluations_floor": WARM_EVALS_FLOOR,
        "warm_cells": warm_started,
    })


def test_bench_noise_memo(results_dir, monkeypatch):
    """The memos and the shared searches of a cold paper-size panel.

    Captures the one accuracy model the fir cells share (the pass cache
    builds it once) and reads its counters after a cold serial sweep of
    fir over the paper's targets and constraints: questions asked of
    single states, closed-form evaluations, the batched neighbourhoods
    (calls, memo hits, rows and rechecks) and the joint SLP rounds'
    trial tables (tables built, visits answered, rows and rechecks).
    The guard is exact: at most ``NOISE_MEMO_MAX_EVALUATIONS`` closed
    forms of single states, no state evaluated twice, ``SEARCH_RUNS``
    runs of the search passes, and at most ``MAX_RECHECK_SHARE`` of the
    neighbourhood rows and of the table rows re-asked.  The hit ratios
    are recorded only: sharing the searches of twin targets halves the
    questions, not the evaluations.
    """
    models = []
    build_model = AccuracyModelPass.run

    def capture(self, state):
        outputs = build_model(self, state)
        models.append(outputs["model"])
        return outputs

    evaluated = []
    evaluate = AccuracyModel._evaluate

    def record_state(self, spec):
        evaluated.append(spec.state_key())
        return evaluate(self, spec)

    selections = {"asked": 0, "computed": 0}
    select = extraction.BlockSlp.select
    compute = extraction.select_groups

    def ask(*args, **kwargs):
        selections["asked"] += 1
        return select(*args, **kwargs)

    def computed(*args, **kwargs):
        selections["computed"] += 1
        return compute(*args, **kwargs)

    monkeypatch.setattr(AccuracyModelPass, "run", capture)
    monkeypatch.setattr(AccuracyModel, "_evaluate", record_state)
    monkeypatch.setattr(extraction.BlockSlp, "select", ask)
    monkeypatch.setattr(extraction, "select_groups", computed)
    config = KernelConfig()
    plan = SweepPlan.build(config, ("fir",), PAPER_TARGETS, PAPER_CONSTRAINT_GRID)
    _forget_process_memos()
    started = time.perf_counter()
    _cells, stats = SweepExecutor(config, jobs=1).run(plan)
    seconds = time.perf_counter() - started
    search_runs = {
        name: global_pass_cache().executions(name) for name in SEARCH_RUNS
    }
    _forget_process_memos()
    assert stats.computed == len(plan)
    assert len(models) == 1

    model = models[0]
    assert model.miss_count == len(evaluated)
    assert model.miss_count <= NOISE_MEMO_MAX_EVALUATIONS
    assert len(set(evaluated)) == len(evaluated)  # no state twice
    assert search_runs == SEARCH_RUNS
    assert model.batch_rechecks <= MAX_RECHECK_SHARE * model.batch_rows
    assert model.table_rechecks <= MAX_RECHECK_SHARE * model.table_rows
    hit_ratio = 1.0 - model.miss_count / model.eval_count

    _record("noise_memo", {
        "kernel": "fir",
        "targets": list(PAPER_TARGETS),
        "grid_db": list(PAPER_CONSTRAINT_GRID),
        "n_cells": len(plan),
        "python": platform.python_version(),
        "noise_calls": model.eval_count,
        "noise_misses": model.miss_count,
        "max_evaluations": NOISE_MEMO_MAX_EVALUATIONS,
        "hit_ratio": round(hit_ratio, 3),
        "batch_calls": model.batch_calls,
        "batch_hits": model.batch_hits,
        "batch_rows": model.batch_rows,
        "batch_rechecks": model.batch_rechecks,
        "table_builds": model.table_builds,
        "table_visits": model.table_visits,
        "table_rows": model.table_rows,
        "table_rechecks": model.table_rechecks,
        "max_recheck_share": MAX_RECHECK_SHARE,
        "search_runs": search_runs,
        "selections_asked": selections["asked"],
        "selections_computed": selections["computed"],
        "sweep_seconds": round(seconds, 3),
    })


def test_bench_distinct_work(results_dir, monkeypatch):
    """Each distinct piece of back-end work once on the cold paper grid.

    A cold serial sweep of all 84 cells counts the runs of every pass
    and the ``schedule_block`` calls.  Searches at different
    constraints often reach equal specs and groups; keyed by content,
    those share SLP extraction, lowering and scheduling.  The guard:
    at most ``DISTINCT_WORK_MAX_RUNS`` runs of the back-end passes and
    ``DISTINCT_WORK_MAX_SCHEDULES`` block schedules, and exactly
    ``DISTINCT_WORK_SEARCH_RUNS`` runs of each search.
    """
    schedules = [0]
    schedule_block = cycles.schedule_block

    def counted(*args, **kwargs):
        schedules[0] += 1
        return schedule_block(*args, **kwargs)

    monkeypatch.setattr(cycles, "schedule_block", counted)
    config = KernelConfig()
    plan = SweepPlan.build(
        config, config.kernel_names, PAPER_TARGETS, PAPER_CONSTRAINT_GRID
    )
    _forget_process_memos()
    started = time.perf_counter()
    _cells, stats = SweepExecutor(config, jobs=1).run(plan)
    seconds = time.perf_counter() - started
    cache = global_pass_cache()
    runs, hits = dict(cache.misses), dict(cache.hits)
    _forget_process_memos()
    assert stats.computed == len(plan) == 84

    _record("distinct_work", {
        "n_cells": len(plan),
        "python": platform.python_version(),
        "pass_runs": runs,
        "pass_hits": hits,
        "max_runs": DISTINCT_WORK_MAX_RUNS,
        "schedule_block_calls": schedules[0],
        "max_schedule_block_calls": DISTINCT_WORK_MAX_SCHEDULES,
        "sweep_seconds": round(seconds, 3),
    })
    for name, most in DISTINCT_WORK_MAX_RUNS.items():
        assert runs[name] <= most, name
    for name, exact in DISTINCT_WORK_SEARCH_RUNS.items():
        assert runs[name] == exact, name
    assert schedules[0] <= DISTINCT_WORK_MAX_SCHEDULES
