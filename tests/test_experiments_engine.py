"""Sweep engine tests: plan, cache, execution backends, CLI.

Covers the contracts the CI pipeline relies on: cache hit/miss
behaviour, bit-identical results across every execution backend,
per-cell fault isolation (one infeasible cell must never abort a
sweep or drop completed work), corrupted cache recovery, and the
WLO-engine keying fix (ablation cells must never alias baseline
cells).
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExecutionBackendError, FlowError
from repro.experiments import (
    Cell,
    CellOutcome,
    CellRequest,
    ExperimentRunner,
    KernelConfig,
    SweepCache,
    SweepExecutor,
    SweepPlan,
    available_execution_backends,
    evaluate_cell,
    get_execution_backend,
)

SMALL = dict(
    n_samples=96, analysis_samples=96, image_size=18, analysis_image_size=18
)
GRID = (-15.0, -45.0)


@pytest.fixture(scope="module")
def config() -> KernelConfig:
    return KernelConfig(**SMALL)


@pytest.fixture(scope="module")
def reference_cells(config) -> dict[CellRequest, Cell]:
    """Serial, cache-less ground truth for fir on two targets."""
    executor = SweepExecutor(config, jobs=1)
    plan = SweepPlan.build(config, ("fir",), ("xentium", "vex-1"), GRID)
    cells, stats = executor.run(plan)
    assert stats.computed == len(plan)
    return cells


class TestPlan:
    def test_enumeration_and_dedup(self, config):
        plan = SweepPlan.build(
            config, ("fir", "fir"), ("xentium",), (-15.0, -15.0, -45.0)
        )
        assert len(plan) == 2
        assert plan.kernels == ["fir"]

    def test_kernel_major_order(self, config):
        plan = SweepPlan.build(
            config, ("fir", "iir"), ("xentium", "vex-1"), GRID
        )
        kernels = [r.kernel for r in plan.requests]
        assert kernels == sorted(kernels, key=("fir", "iir").index)

    def test_only_filter(self, config):
        plan = SweepPlan.build(
            config, ("fir", "iir"), ("xentium", "vex-1"), GRID,
            only=("fir:vex-1",),
        )
        assert {(r.kernel, r.target) for r in plan.requests} == {("fir", "vex-1")}

    def test_bad_only_filter(self, config):
        with pytest.raises(FlowError, match="KERNEL:TARGET"):
            SweepPlan.build(config, ("fir",), ("xentium",), GRID, only=("fir",))

    def test_requests_are_picklable(self, config):
        plan = SweepPlan.build(config, ("fir",), ("xentium",), GRID)
        for request in plan.requests:
            restored = pickle.loads(pickle.dumps((config, request)))
            assert restored == (config, request)


class TestCache:
    def test_miss_then_hit(self, config, reference_cells, tmp_path):
        cache = SweepCache(tmp_path)
        request = next(iter(reference_cells))
        assert cache.load(config, request) is None
        cache.store(config, request, reference_cells[request])
        assert cache.load(config, request) == reference_cells[request]
        assert len(cache) == 1

    def test_executor_cold_then_warm(self, config, tmp_path):
        cache = SweepCache(tmp_path)
        plan = SweepPlan.build(config, ("fir",), ("xentium",), GRID)
        _, cold = SweepExecutor(config, cache=cache, jobs=1).run(plan)
        assert (cold.computed, cold.cache) == (len(plan), 0)
        # Fresh executor, fresh memo: everything must come from disk.
        warm_cells, warm = SweepExecutor(config, cache=cache, jobs=1).run(plan)
        assert (warm.computed, warm.cache) == (0, len(plan))
        # And a second resolve through the same executor hits the memo.
        _, memo = SweepExecutor(config, cache=cache, jobs=1, memo=warm_cells).run(plan)
        assert (memo.computed, memo.cache, memo.memo) == (0, 0, len(plan))

    def test_corrupted_file_recovers(self, config, reference_cells, tmp_path):
        cache = SweepCache(tmp_path)
        request = next(iter(reference_cells))
        path = cache.store(config, request, reference_cells[request])
        path.write_text("{ not json !!")
        assert cache.load(config, request) is None  # tolerated, not raised
        _, stats = SweepExecutor(config, cache=cache, jobs=1).run(
            SweepPlan(config, [request])
        )
        assert stats.computed == 1  # recomputed through the corruption
        assert cache.load(config, request) == reference_cells[request]  # repaired

    def test_truncated_and_mismatched_entries_miss(
        self, config, reference_cells, tmp_path
    ):
        cache = SweepCache(tmp_path)
        request = next(iter(reference_cells))
        path = cache.store(config, request, reference_cells[request])
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert cache.load(config, request) is None
        # A structurally valid file whose cell belongs to another key.
        other = CellRequest("fir", "vex-1", -45.0)
        cache.store(config, request, reference_cells[other])
        assert cache.load(config, request) is None

    def test_key_rolls_with_code_version(self, config, tmp_path, monkeypatch):
        cache = SweepCache(tmp_path)
        request = CellRequest("fir", "xentium", -15.0)
        before = cache.key(config, request)
        monkeypatch.setattr(
            "repro.experiments.cache.flow_code_version", lambda: "0" * 16
        )
        assert cache.key(config, request) != before

    def test_key_depends_on_wlo_engine(self, config, tmp_path):
        cache = SweepCache(tmp_path)
        tabu = cache.key(config, CellRequest("fir", "xentium", -15.0, "tabu"))
        greedy = cache.key(config, CellRequest("fir", "xentium", -15.0, "max-1"))
        assert tabu != greedy

    def test_key_depends_on_flow_variant(self, config, tmp_path):
        cache = SweepCache(tmp_path)
        base = cache.key(config, CellRequest("fir", "xentium", -15.0))
        lite = cache.key(
            config, CellRequest("fir", "xentium", -15.0, flow="wlo-slp-lite")
        )
        assert base != lite

    def test_key_depends_on_pipeline_structure(self, config):
        """Re-declaring a flow with a different pass list rolls the key
        even though the request tuple is unchanged."""
        from repro.pipeline import declare_joint_flow, get_flow, register_flow

        cache = SweepCache()
        request = CellRequest("fir", "xentium", -15.0)
        before = cache.key(config, request)
        original = get_flow("wlo-slp")
        declare_joint_flow(
            "wlo-slp", "restructured for the test", scaloptim=False,
            overwrite=True,
        )
        try:
            assert cache.key(config, request) != before
        finally:
            register_flow(original, overwrite=True)
        assert cache.key(config, request) == before

    def test_pipeline_signature_names_all_three_roles(self):
        from repro.experiments import cell_pipeline_signature

        signature = cell_pipeline_signature(
            CellRequest("fir", "xentium", -15.0, "min+1", "wlo-slp-lite")
        )
        assert set(signature) == {"float", "baseline", "joint"}
        assert "wlo[engine='min+1']" in signature["baseline"]
        assert any("scaloptim=False" in name for name in signature["joint"])


class TestCacheTmpHygiene:
    def test_store_unlinks_tmp_on_failure(
        self, config, reference_cells, tmp_path, monkeypatch
    ):
        """A store that dies between write and rename must not leak its
        temp file (the pre-fix behaviour littered the shared directory
        forever)."""
        cache = SweepCache(tmp_path)
        request = next(iter(reference_cells))

        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-store")

        monkeypatch.setattr("repro.experiments.cache.os.replace",
                            exploding_replace)
        with pytest.raises(OSError, match="mid-store"):
            cache.store(config, request, reference_cells[request])
        assert list(tmp_path.glob("*.tmp*")) == []
        monkeypatch.undo()
        # The cache still works after the failed attempt.
        cache.store(config, request, reference_cells[request])
        assert cache.load(config, request) == reference_cells[request]

    def test_executor_sweeps_stale_tmp_but_keeps_live_writers(
        self, config, reference_cells, tmp_path
    ):
        """The sweep *coordinator* grooms orphaned temp files once per
        resolve; worker-side stores never pay the directory glob."""
        import os
        import time

        stale = tmp_path / ("f" * 32 + ".json.tmp12345")
        stale.write_text("{ torn write of a hard-killed worker")
        aged = time.time() - 7200
        os.utime(stale, (aged, aged))
        fresh = tmp_path / ("a" * 32 + ".json.tmp999")
        fresh.write_text("{ a concurrent worker mid-write")

        cache = SweepCache(tmp_path)
        request = next(iter(reference_cells))
        cache.store(config, request, reference_cells[request])
        assert stale.exists()  # a store alone never globs the directory

        executor = SweepExecutor(config, cache=cache, jobs=1)
        _, stats = executor.run(SweepPlan(config, [request]))
        assert stats.cache == 1  # resolved from the store above
        assert not stale.exists()  # orphan swept by the coordinator
        assert fresh.exists()  # a live writer's young file is untouched

    def test_directory_listed_once_per_stale_window(
        self, config, reference_cells, tmp_path, monkeypatch
    ):
        """Each ``repro serve`` job resolves through a fresh
        ``SweepCache``; a process lists one directory once per stale
        window, and a temp file orphaned later goes once the window has
        passed (fake clock)."""
        import os
        import time
        from pathlib import Path
        from types import SimpleNamespace

        from repro.experiments import cache as cache_module

        now = [time.time()]
        monkeypatch.setattr(cache_module, "time", SimpleNamespace(time=lambda: now[0]))
        listings = []
        glob = Path.glob

        def counting_glob(self, pattern):
            if pattern == "*.json.tmp*":
                listings.append(self)
            return glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting_glob)
        request = next(iter(reference_cells))
        SweepCache(tmp_path).store(config, request, reference_cells[request])

        def resolve_once():
            executor = SweepExecutor(config, cache=SweepCache(tmp_path), jobs=1)
            _, stats = executor.run(SweepPlan(config, [request]))
            assert stats.cache == 1

        for _ in range(3):
            resolve_once()
        assert len(listings) == 1

        started = now[0]
        orphan = tmp_path / ("b" * 32 + ".json.tmp4242")
        orphan.write_text("{ torn write of a worker killed later")
        os.utime(orphan, (started, started))
        now[0] = started + cache_module._TMP_STALE_SECONDS - 1
        resolve_once()  # inside the window: not listed
        assert len(listings) == 1 and orphan.exists()

        now[0] = started + cache_module._TMP_STALE_SECONDS + 1
        live = tmp_path / ("c" * 32 + ".json.tmp77")
        live.write_text("{ a concurrent worker mid-write")
        os.utime(live, (now[0], now[0]))
        resolve_once()  # the window has passed: listed and groomed
        assert len(listings) == 2
        assert not orphan.exists() and live.exists()


#: The infeasible-constraint cell injected by the fault-tolerance
#: tests: -400 dB is unreachable even at 32-bit word lengths, so the
#: WLO pass raises WLOError for exactly this cell.
FAULTY_GRID = (-15.0, -400.0)


class TestExecutionBackends:
    @pytest.fixture(scope="class")
    def faulty_plan(self, config) -> SweepPlan:
        return SweepPlan.build(config, ("fir",), ("xentium",), FAULTY_GRID)

    def test_registry(self):
        assert available_execution_backends() == ["serial", "workqueue"]
        assert get_execution_backend("SERIAL").name == "serial"
        for retired in ("warp", "process", "chunked"):
            with pytest.raises(
                ExecutionBackendError, match="unknown execution backend"
            ):
                get_execution_backend(retired)

    @pytest.mark.parametrize("backend", ["serial", "workqueue"])
    def test_failure_is_isolated_and_survivors_persist(
        self, backend, config, faulty_plan, reference_cells, tmp_path
    ):
        """One infeasible cell: every backend completes the other cell
        bit-identically, persists it to disk, and reports exactly one
        failure carrying the exception text, unchanged."""
        cache = SweepCache(tmp_path)
        executor = SweepExecutor(config, cache=cache, jobs=2, backend=backend)
        cells, stats = executor.run(faulty_plan)
        assert (stats.computed, stats.failed) == (1, 1)
        assert stats.total == len(faulty_plan)
        ((request, error),) = stats.failures
        assert request.constraint_db == -400.0
        assert error == (
            "WLOError: accuracy constraint -400.0 dB is infeasible even "
            "at 32-bit word lengths"
        )
        survivor = CellRequest("fir", "xentium", -15.0)
        assert cells == {survivor: reference_cells[survivor]}
        assert len(cache) == 1
        assert cache.load(config, survivor) == reference_cells[survivor]
        assert "1 failed" in stats.summary()
        with pytest.raises(FlowError, match="infeasible"):
            stats.ensure_complete()

    def test_failed_outcomes_stream_through_progress(self, config, faulty_plan):
        outcomes: list[CellOutcome] = []
        executor = SweepExecutor(
            config, jobs=1, progress=lambda done, total, o: outcomes.append(o)
        )
        executor.run(faulty_plan)
        sources = {o.request.constraint_db: o.source for o in outcomes}
        assert sources == {-15.0: "computed", -400.0: "failed"}
        failed = next(o for o in outcomes if o.failed)
        assert failed.cell is None and "infeasible" in failed.error

    def test_progress_printer_renders_failures(self):
        import io

        from repro.report import ProgressPrinter

        stream = io.StringIO()
        outcome = CellOutcome(
            CellRequest("fir", "xentium", -400.0), None, "failed",
            "WLOError: accuracy constraint -400.0 dB is infeasible",
        )
        ProgressPrinter(stream)(1, 2, outcome)
        line = stream.getvalue()
        assert "failed" in line and "WLOError" in line and "-400" in line

    def test_runner_cell_raises_with_captured_error(self):
        runner = ExperimentRunner(KernelConfig(**SMALL))
        with pytest.raises(FlowError, match="infeasible"):
            runner.cell("fir", "xentium", -400.0)
        # The failure is not memoized and neighbours still evaluate.
        assert runner.cell("fir", "xentium", -15.0) is not None

    def test_explicit_backend_reaches_the_runner(self, tmp_path):
        runner = ExperimentRunner(
            KernelConfig(**SMALL), backend="workqueue", jobs=2,
            cache=SweepCache(tmp_path),
        )
        assert runner.executor.backend == "workqueue"
        stats = runner.prefetch(("fir",), ("xentium",), (-15.0,))
        assert stats.computed == 1 and len(SweepCache(tmp_path)) == 1


class TestParallel:
    def test_parallel_equals_serial(self, config, reference_cells):
        plan = SweepPlan.build(config, ("fir",), ("xentium", "vex-1"), GRID)
        cells, stats = SweepExecutor(config, jobs=2).run(plan)
        assert stats.computed == len(plan)
        assert cells == reference_cells

    def test_parallel_streams_progress(self, config):
        seen = []
        executor = SweepExecutor(
            config, jobs=2,
            progress=lambda done, total, outcome: seen.append((done, total)),
        )
        plan = SweepPlan.build(config, ("fir",), ("xentium",), GRID)
        executor.run(plan)
        assert seen == [(1, len(plan)), (2, len(plan))]

    def test_parallel_fills_shared_cache(self, config, reference_cells, tmp_path):
        cache = SweepCache(tmp_path)
        plan = SweepPlan.build(config, ("fir",), ("xentium", "vex-1"), GRID)
        SweepExecutor(config, cache=cache, jobs=2).run(plan)
        assert len(cache) == len(plan)
        # Serial warm read-back returns identical cells.
        cells, stats = SweepExecutor(config, cache=cache, jobs=1).run(plan)
        assert stats.computed == 0
        assert cells == reference_cells


class TestRunnerKeying:
    def test_wlo_engine_is_part_of_the_key(self):
        runner = ExperimentRunner(KernelConfig(**SMALL))
        baseline = runner.cell("fir", "xentium", -15.0)
        ablation = runner.cell("fir", "xentium", -15.0, wlo="max-1")
        assert baseline is not ablation  # distinct memo entries
        assert runner.cell("fir", "xentium", -15.0) is baseline  # no aliasing
        assert runner.cell("fir", "xentium", -15.0, wlo="max-1") is ablation

    def test_evaluate_cell_is_pure(self, config, reference_cells):
        request = next(iter(reference_cells))
        assert evaluate_cell(config, request) == reference_cells[request]

    def test_evaluate_cell_adopts_shipped_flow_specs(self, config):
        """Runtime-declared variants reach workers as shipped FlowSpecs
        (the spawn/forkserver path, simulated in-process by dropping
        the registration before re-evaluating)."""
        import pickle

        from repro.pipeline import declare_joint_flow, get_flow
        from repro.pipeline import registry as flow_registry

        declare_joint_flow(
            "test-shipped", "worker-shipping test variant", scaloptim=False,
            overwrite=True,
        )
        try:
            spec = pickle.loads(pickle.dumps(get_flow("test-shipped")))
            request = CellRequest("fir", "xentium", -15.0, flow="test-shipped")
            expected = evaluate_cell(config, request)
            # Simulate a freshly spawned worker: the runtime registration
            # is gone, only the shipped spec can resolve the flow.
            del flow_registry.FLOWS._items["test-shipped"]
            with pytest.raises(FlowError, match="unknown flow"):
                evaluate_cell(config, request)
            assert evaluate_cell(config, request, flows=(spec,)) == expected
        finally:
            flow_registry.FLOWS._items.pop("test-shipped", None)


class TestCellAxes:
    """A cell's axes are declared once beside CellRequest; the flow
    overrides, the signature memo and the sweep request's mapping are
    derived from the two tuples."""

    def test_flow_axes_are_cell_axes(self):
        import dataclasses

        from repro.experiments.engine import CELL_AXES, FLOW_AXES

        fields = [f.name for f in dataclasses.fields(CellRequest)]
        assert fields[:3] == ["kernel", "target", "constraint_db"]
        assert CELL_AXES == tuple(fields[3:])
        assert set(FLOW_AXES) <= set(CELL_AXES)
        assert "wlo" not in FLOW_AXES

    @pytest.mark.parametrize("request_fields", [
        {},
        {"continuation": True, "sim_backend": "scalar", "format": "float32"},
        {"pareto": True, "wlo": "max-1", "flow": "wlo-first-greedy"},
    ])
    def test_sweep_request_maps_exactly_the_cell_axes(self, request_fields):
        from repro.api import SweepRequest
        from repro.experiments.engine import CELL_AXES

        request = SweepRequest(**request_fields)
        axes = request.cell_axes()
        assert list(axes) == list(CELL_AXES)
        assert axes["continuation"] == request.continuation_mode
        assert all(
            axes[axis] == getattr(request, axis)
            for axis in CELL_AXES if axis != "continuation"
        )
        assert all(
            cell == CellRequest(cell.kernel, cell.target, cell.constraint_db,
                                **axes)
            for cell in request.plan().requests
        )

    @pytest.mark.parametrize("flow", [
        "float", "wlo-first", "wlo-first-greedy", "wlo-slp", "wlo-slp-lite",
    ])
    def test_overrides_are_the_set_axes_the_flow_declares(self, flow):
        from repro.experiments.engine import FLOW_AXES, _flow_overrides
        from repro.pipeline import available_flows, get_flow

        assert flow in available_flows()
        spec = get_flow(flow)
        every = CellRequest(
            "fir", "vex-1", -15.0, wlo="max-1", sim_backend="scalar",
            continuation="warm", format="float32",
        )
        declared = set(FLOW_AXES) & set(spec.params)
        assert _flow_overrides(spec, every) == {
            axis: getattr(every, axis) for axis in declared
        }
        # Unset axes never reach a flow: it keeps its declared values.
        assert _flow_overrides(spec, CellRequest("fir", "vex-1", -15.0)) == {}
        only_backend = CellRequest("fir", "vex-1", -15.0, sim_backend="scalar")
        assert set(_flow_overrides(spec, only_backend)) == (
            declared & {"sim_backend"}
        )

    def test_wlo_selects_the_baseline_engine_only(self, config):
        """A decoupled joint flow that declares ``wlo`` keeps its own
        engine: ``wlo-first-greedy`` runs max-1 next to a Tabu
        baseline, in the cache key and in the cell's numbers."""
        from repro.experiments.engine import cell_pipeline_signature

        request = CellRequest(
            "fir", "xentium", -15.0, wlo="tabu", flow="wlo-first-greedy"
        )
        signature = cell_pipeline_signature(request)
        assert "wlo[engine='tabu']" in signature["baseline"]
        assert "wlo[engine='max-1']" in signature["joint"]
        assert "wlo[engine='tabu']" not in signature["joint"]

        cell = evaluate_cell(config, request)
        greedy = evaluate_cell(
            config, CellRequest("fir", "xentium", -15.0, wlo="max-1")
        )
        tabu = evaluate_cell(config, CellRequest("fir", "xentium", -15.0))
        assert cell.wlo_slp_cycles == greedy.wlo_first_simd_cycles
        assert cell.wlo_slp_noise_db == greedy.wlo_first_noise_db
        assert cell.wlo_first_simd_cycles == tabu.wlo_first_simd_cycles
        assert cell.wlo_first_noise_db == tabu.wlo_first_noise_db


class TestConcurrentEvaluation:
    """``repro serve`` job threads share every process-global memo the
    cells read: the pass cache (and the contexts it now holds), the
    kernel builds, the format noise and the pipeline signatures."""

    CONFIG = KernelConfig(256, 96, 24, 18)
    REQUESTS = [
        CellRequest(kernel, target, constraint)
        for kernel in ("fir", "iir", "conv")
        for target in ("xentium", "vex-1")
        for constraint in (-15.0, -45.0)
    ] + [CellRequest("fir", "vex-1", -15.0, format="float32")]

    @staticmethod
    def _forget_process_memos() -> None:
        from repro.experiments import engine
        from repro.pipeline import global_pass_cache

        global_pass_cache().clear()
        engine._PROGRAMS.clear()
        engine._FORMAT_NOISE.clear()
        engine._SIGNATURES[:] = [-1, {}]

    def _payload(self, request: CellRequest) -> tuple:
        import dataclasses

        from repro.experiments.engine import cell_pipeline_signature

        cell = evaluate_cell(self.CONFIG, request)
        return dataclasses.asdict(cell), cell_pipeline_signature(request)

    @staticmethod
    def _race(work, count: int = 4) -> None:
        """Run ``work(worker)`` on ``count`` threads released together
        by a barrier, switching threads as often as CPython allows."""
        import sys
        import threading

        barrier = threading.Barrier(count)
        errors: list[Exception] = []

        def run(worker: int) -> None:
            try:
                barrier.wait(timeout=60)
                work(worker)
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(w,)) for w in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_threads_match_a_sequential_run(self):
        self._forget_process_memos()
        expected = {r: self._payload(r) for r in self.REQUESTS}
        self._forget_process_memos()
        count = len(self.REQUESTS)
        results: list[dict] = [{} for _ in range(4)]

        def work(worker: int) -> None:
            for step in range(count):
                request = self.REQUESTS[(step + 3 * worker) % count]
                results[worker][request] = self._payload(request)

        self._race(work)
        for got in results:
            assert got == expected

    def test_threads_run_each_pass_once(self):
        """Threads missing together on a cold pass key wait for the one
        computing it: one prefix and one search per kernel."""
        from repro.pipeline import global_pass_cache

        requests = [
            CellRequest(kernel, "xentium", -15.0)
            for kernel in ("fir", "iir", "conv")
        ]
        self._forget_process_memos()
        expected = {r: self._payload(r) for r in requests}
        self._forget_process_memos()
        results: list[dict] = [{} for _ in range(4)]

        def work(worker: int) -> None:
            for request in requests:
                results[worker][request] = self._payload(request)

        self._race(work)
        cache = global_pass_cache()
        for name in ("range-analysis", "adjoint-gains", "wlo", "wlo-slp"):
            assert cache.executions(name) == len(requests), name
        for got in results:
            assert got == expected

    def test_threads_share_one_kernel_build(self):
        """Cold concurrent lookups of one kernel get one (benchmark,
        twin) pair: the per-program memos hang off those objects."""
        from repro.experiments.engine import kernel_programs

        self._forget_process_memos()
        pairs: list[tuple] = []
        self._race(lambda _: pairs.append(kernel_programs(self.CONFIG, "iir")))
        assert len(pairs) == 4
        assert all(pair is pairs[0] for pair in pairs)

    def test_threads_measure_a_format_once(self, monkeypatch):
        """Cold concurrent asks for one format's noise build one
        evaluator, and every thread gets the memo's float."""
        from repro.accuracy import simulation
        from repro.experiments.engine import format_noise_db

        built: list[object] = []

        class Counted(simulation.FormatAccuracyEvaluator):
            def __init__(self, *args, **kwargs) -> None:
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulation, "FormatAccuracyEvaluator", Counted)
        self._forget_process_memos()
        noises: list[float] = []
        self._race(lambda _: noises.append(
            format_noise_db(self.CONFIG, "fir", "float32")
        ))
        assert len(built) == 1
        assert len(noises) == 4
        assert all(noise is noises[0] for noise in noises)
        assert isinstance(noises[0], float)


class TestSweepCLI:
    def test_sweep_cold_then_warm(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["sweep", "--only", "fir:xentium", "--grid", "-15",
                "--jobs", "1", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 computed" in out and "fir" in out
        assert main(argv) == 0  # warm: zero re-evaluations
        out = capsys.readouterr().out
        assert "0 computed" in out and "1 from disk cache" in out

    def test_sweep_no_cache_writes_nothing(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                     "--no-cache", "--cache-dir", str(tmp_path)]) == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_sweep_flow_variant_by_name(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                     "--flow", "wlo-slp-lite", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wlo-slp-lite" in out and "1 computed" in out
        # The variant cell persisted under its own key: re-running the
        # default flow on the same slice computes, never aliases.
        assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                     "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 computed" in out

    def test_sweep_rejects_unknown_flow_and_engine(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                     "--no-cache", "--flow", "warp"]) == 1
        assert "unknown flow" in capsys.readouterr().err
        assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                     "--no-cache", "--wlo", "quantum"]) == 1
        assert "unknown WLO engine" in capsys.readouterr().err

    def test_sweep_rejects_unknown_backend(self, capsys):
        from repro.cli import main

        assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                     "--no-cache", "--backend", "warp"]) == 1
        assert "unknown execution backend" in capsys.readouterr().err

    def test_sweep_with_failing_cell_completes_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        """The acceptance scenario: a grid with one infeasible cell
        finishes every other cell, stores them on disk, prints a
        per-cell failure table, and exits non-zero."""
        from repro.cli import main

        argv = ["sweep", "--only", "fir:xentium", "--grid", "-15", "-400",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "Failed cells" in out and "infeasible" in out
        assert "1 computed" in out and "1 failed" in out
        assert len(list(tmp_path.glob("*.json"))) == 1  # survivor persisted
        # Warm rerun: the survivor loads from disk, the infeasible cell
        # is retried (failures are never cached) and still fails.
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "1 from disk cache" in out and "1 failed" in out

    def test_sweep_backends_are_bit_identical(self, tmp_path, capsys):
        from repro.cli import main

        rows = {}
        for backend in ("serial", "workqueue"):
            assert main(["sweep", "--only", "fir:xentium", "--grid", "-15",
                         "--backend", backend, "--jobs", "2",
                         "--cache-dir", str(tmp_path / backend)]) == 0
            out = capsys.readouterr().out
            rows[backend] = [
                line for line in out.splitlines() if line.startswith("   fir")
            ]
            assert rows[backend]
        assert rows["serial"] == rows["workqueue"]
