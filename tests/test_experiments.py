"""Experiment harness tests on reduced problem sizes."""

import pytest

from repro.experiments import (
    ExperimentRunner,
    KernelConfig,
    ablation_wlo_engines,
    ablation_wlo_slp_features,
    fig4_panel,
    fig4_table,
    fig6_series,
    fig6_table,
    render_fig4,
    render_fig6,
    table1,
)

GRID = (-15.0, -45.0)


@pytest.fixture(scope="module")
def runner():
    """A small runner: same kernels, reduced sizes, fast cells."""
    return ExperimentRunner(KernelConfig(
        n_samples=96, analysis_samples=96,
        image_size=18, analysis_image_size=18,
    ))


class TestRunner:
    def test_cells_are_cached(self, runner):
        first = runner.cell("fir", "xentium", -15.0)
        second = runner.cell("fir", "xentium", -15.0)
        assert first is second

    def test_cell_fields(self, runner):
        cell = runner.cell("fir", "xentium", -15.0)
        assert cell.scalar_cycles > 0
        assert cell.wlo_slp_speedup > 0
        assert cell.float_speedup > 1.0
        assert cell.wlo_slp_noise_db <= -15.0

    def test_unknown_kernel(self, runner):
        from repro.errors import FlowError

        with pytest.raises(FlowError, match="unknown kernel"):
            runner.context("matmul")

    def test_sweep_order(self, runner):
        cells = runner.sweep("fir", "xentium", GRID)
        assert [c.constraint_db for c in cells] == list(GRID)


class TestFig4:
    def test_panel_series(self, runner):
        series = fig4_panel(runner, "fir", "xentium", GRID)
        assert set(series) == {"WLO-FIRST", "WLO-SLP"}
        assert len(series["WLO-SLP"]) == len(GRID)

    def test_table_shape(self, runner):
        table = fig4_table(runner, ("fir",), ("xentium", "vex-1"), GRID)
        assert len(table.rows) == 2 * len(GRID)

    def test_render_contains_panels(self, runner):
        text = render_fig4(runner, ("fir",), ("xentium",), GRID)
        assert "FIR on xentium" in text
        assert "WLO-SLP" in text


class TestTable1:
    def test_rows_per_target(self, runner):
        table = table1(runner, targets=("xentium",), grid=GRID)
        assert len(table.rows) == 2
        flows = {row[1] for row in table.rows}
        assert flows == {"WLO-First", "WLO-SLP"}

    def test_cycles_are_integers(self, runner):
        table = table1(runner, targets=("xentium",), grid=GRID)
        for row in table.rows:
            for cell in row[2:]:
                assert isinstance(cell, int) and cell > 0


class TestFig6:
    def test_series_per_kernel(self, runner):
        series = fig6_series(runner, "xentium", ("fir",), GRID)
        assert set(series) == {"FIR"}
        for _x, y in series["FIR"]:
            assert y > 1.0  # soft float is always slower

    def test_table_shape(self, runner):
        table = fig6_table(runner, ("st240",), ("fir",), GRID)
        assert len(table.rows) == len(GRID)

    def test_render(self, runner):
        text = render_fig6(runner, ("xentium",), ("fir",), GRID)
        assert "xentium" in text and "speedup" in text


class TestAblations:
    def test_feature_ablation_table(self, runner):
        table = ablation_wlo_slp_features(
            runner, "fir", "xentium", grid=(-15.0,)
        )
        variants = {row[1] for row in table.rows}
        assert len(variants) == 4
        # All variants satisfy the constraint.
        for row in table.rows:
            assert row[4] <= -15.0 + 0.51

    def test_engine_ablation_table(self, runner):
        table = ablation_wlo_engines(runner, "fir", "xentium", grid=(-15.0,))
        assert {row[1] for row in table.rows} == {"tabu", "max-1", "min+1"}


class TestSharedPrefix:
    """Contexts, float cycles and the ablations read the analysis
    prefix the sweep cells stored in the process-global pass cache;
    nothing runs it a second time."""

    @pytest.fixture()
    def cache(self):
        from repro.pipeline import global_pass_cache

        cache = global_pass_cache()
        cache.clear()
        return cache

    @staticmethod
    def _prefix_runs(cache) -> dict[str, int]:
        from repro.pipeline import ANALYSIS_PASS_NAMES

        return {name: cache.executions(name) for name in ANALYSIS_PASS_NAMES}

    @staticmethod
    def _fresh_runner() -> ExperimentRunner:
        return ExperimentRunner(KernelConfig(
            n_samples=96, analysis_samples=96,
            image_size=18, analysis_image_size=18,
        ))

    def test_context_and_float_cycles_run_no_prefix(self, cache):
        runner = self._fresh_runner()
        runner.sweep("fir", "xentium", GRID)
        after_sweep = self._prefix_runs(cache)
        assert set(after_sweep.values()) == {1}
        context = runner.context("fir")
        runner.float_cycles("fir", "xentium")
        assert self._prefix_runs(cache) == after_sweep
        models = [
            outputs["model"] for outputs in cache._entries.values()
            if "model" in outputs
        ]
        assert len(models) == 1 and context.model is models[0]

    def test_ablations_run_each_prefix_pass_once(self, cache):
        runner = self._fresh_runner()
        ablation_wlo_slp_features(runner, "fir", "xentium", grid=GRID)
        assert set(self._prefix_runs(cache).values()) == {1}
        ablation_wlo_engines(runner, "fir", "xentium", grid=GRID)
        assert set(self._prefix_runs(cache).values()) == {1}


class TestPaperShapes:
    """Shape checks on the reduced sizes (fast proxies of the full
    claims asserted by the benchmark harness)."""

    def test_wlo_slp_monotone_cycles(self, runner):
        grid = (-10.0, -30.0, -50.0, -70.0)
        cells = runner.sweep("fir", "xentium", grid)
        counts = [c.wlo_slp_cycles for c in cells]
        assert counts == sorted(counts)

    def test_speedups_converge_at_strict_constraints(self, runner):
        strict = runner.cell("fir", "xentium", -85.0)
        assert strict.wlo_slp_speedup == pytest.approx(1.0, abs=0.15)

    def test_float_speedup_bands(self, runner):
        xentium = runner.cell("fir", "xentium", -25.0)
        st240 = runner.cell("fir", "st240", -25.0)
        assert xentium.float_speedup > 5.0
        assert 0.5 < st240.float_speedup < 3.0


class TestValidationExperiments:
    def test_validation_table_tracks_truth(self, runner):
        from repro.experiments import validation_table

        table = validation_table(runner, kernels=("fir",), n_stimuli=2)
        assert len(table.rows) == 6
        for _kernel, wl, _a, _m, diff, tier in table.rows:
            if wl >= 12:
                assert abs(diff) < 2.0
            assert tier in ("batch[int64]", "batch[object]")

    def test_quant_mode_ablation_shapes(self, runner):
        from repro.experiments import ablation_quant_mode

        table = ablation_quant_mode(runner, grid=(-10.0,))
        modes = {row[1] for row in table.rows}
        assert modes == {"truncate", "round"}
        for row in table.rows:
            assert row[5] <= row[0] + 0.51  # constraint met
