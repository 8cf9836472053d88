"""Warm-start continuation and Pareto-front WLO tests.

These pin the continuation *quality contract* (see
``repro.wlo.continuation``): a warm-started search must stay feasible
and must never cost more than the same engine's cold result.  The
numbers are empirical pins on the shipped kernels, not mathematical
guarantees — a regression here means a seed-adoption path broke.
"""

import pytest

from repro.errors import WLOError
from repro.experiments import ExperimentRunner, KernelConfig
from repro.experiments.engine import CellRequest, cell_pipeline_signature
from repro.targets import get_target
from repro.wlo import (
    JointWarmStart,
    apply_warm_start,
    clear_continuations,
    max_minus_one,
    min_plus_one,
    pareto_frontier,
    register_wlo_engine,
    tabu_wlo,
    wl_relative_cost,
    wlo_slp_optimize,
)
from repro.wlo.continuation import (
    lookup_continuation,
    lookup_frontier,
    record_continuation,
    record_frontier,
)

TARGET = "xentium"


def _assignment(context, spec):
    return {root: spec.wl(root) for root in context.slotmap.roots}


def _solve_cold(context, target, constraint):
    """Tabu-solve one constraint cold; (assignment, cost)."""
    spec = context.fresh_spec()
    result = tabu_wlo(context.program, spec, context.model, target, constraint)
    return _assignment(context, spec), result.best_cost


class TestApplyWarmStart:
    def test_full_supported_assignment_is_applied(self, fir_context):
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -45.0)
        spec = fir_context.fresh_spec()
        assert apply_warm_start(spec, seed, sorted(target.supported_wls))
        assert _assignment(fir_context, spec) == seed

    def test_none_is_rejected(self, fir_context):
        spec = fir_context.fresh_spec()
        assert not apply_warm_start(spec, None, (16, 32))

    def test_partial_assignment_is_rejected_wholesale(self, fir_context):
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -45.0)
        missing = dict(seed)
        missing.pop(next(iter(missing)))
        spec = fir_context.fresh_spec()
        before = spec.wl_vector().copy()
        assert not apply_warm_start(
            spec, missing, sorted(target.supported_wls)
        )
        assert (spec.wl_vector() == before).all()

    def test_unsupported_width_is_rejected_wholesale(self, fir_context):
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -45.0)
        bad = dict(seed)
        bad[next(iter(bad))] = 13  # not a native width anywhere
        spec = fir_context.fresh_spec()
        before = spec.wl_vector().copy()
        assert not apply_warm_start(spec, bad, sorted(target.supported_wls))
        assert (spec.wl_vector() == before).all()


class TestContinuationStore:
    def test_lookup_returns_nearest_not_looser(self):
        clear_continuations()
        record_continuation("k", -45.0, "strict")
        record_continuation("k", -25.0, "loose")
        # Asking at -30: only -45 is at least as strict.
        assert lookup_continuation("k", -30.0) == "strict"
        # Asking at -20: -25 is the nearest stricter entry.
        assert lookup_continuation("k", -20.0) == "loose"
        # Asking at -60: nothing is strict enough -> cold.
        assert lookup_continuation("k", -60.0) is None
        clear_continuations()

    def test_exact_constraint_is_replaced_not_duplicated(self):
        clear_continuations()
        record_continuation("k", -25.0, "first")
        record_continuation("k", -25.0, "second")
        assert lookup_continuation("k", -25.0) == "second"
        clear_continuations()

    def test_keys_are_independent(self):
        clear_continuations()
        record_continuation("a", -45.0, "a-payload")
        assert lookup_continuation("b", -15.0) is None
        clear_continuations()

    def test_clear_drops_solutions_and_frontiers(self):
        record_continuation("k", -45.0, "payload")
        record_frontier("k", "frontier")
        clear_continuations()
        assert lookup_continuation("k", -15.0) is None
        assert lookup_frontier("k") is None


class TestTabuWarmStart:
    def test_warm_run_is_deterministic(self, fir_context):
        """One (program, constraint, seed) triple -> one trajectory."""
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -45.0)
        spec_a = fir_context.fresh_spec()
        spec_b = fir_context.fresh_spec()
        result_a = tabu_wlo(
            fir_context.program, spec_a, fir_context.model, target, -25.0,
            warm_start=seed,
        )
        result_b = tabu_wlo(
            fir_context.program, spec_b, fir_context.model, target, -25.0,
            warm_start=seed,
        )
        assert result_a.warm_start and result_b.warm_start
        assert (spec_a.wl_vector() == spec_b.wl_vector()).all()
        assert result_a.iterations == result_b.iterations
        assert result_a.evaluations == result_b.evaluations
        assert result_a.best_cost == result_b.best_cost

    @pytest.mark.parametrize("constraint", [-15.0, -25.0, -35.0])
    def test_warm_matches_cold_quality(self, fir_context, constraint):
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -45.0)
        _, cold_cost = _solve_cold(fir_context, target, constraint)
        spec = fir_context.fresh_spec()
        result = tabu_wlo(
            fir_context.program, spec, fir_context.model, target,
            constraint, warm_start=seed,
        )
        assert result.warm_start
        assert not fir_context.model.violates(spec, constraint)
        assert result.best_cost <= cold_cost

    def test_infeasible_seed_falls_back_to_cold(self, fir_context):
        """A looser neighbor's solution violates a stricter constraint:
        the search must reject it and reproduce the cold result.

        The constraint pair matters: the small FIR sits at -70.7 dB
        already at uniform 16 bit, so only a sub--71 dB cell can see an
        infeasible seed at all.
        """
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -15.0)
        cold_spec = fir_context.fresh_spec()
        cold = tabu_wlo(
            fir_context.program, cold_spec, fir_context.model, target, -90.0
        )
        warm_spec = fir_context.fresh_spec()
        warm = tabu_wlo(
            fir_context.program, warm_spec, fir_context.model, target, -90.0,
            warm_start=seed,
        )
        assert not warm.warm_start
        assert warm.best_cost == cold.best_cost
        assert (warm_spec.wl_vector() == cold_spec.wl_vector()).all()

    def test_infeasible_constraint_still_raises(self, fir_context):
        target = get_target(TARGET)
        seed, _ = _solve_cold(fir_context, target, -45.0)
        spec = fir_context.fresh_spec()
        with pytest.raises(WLOError, match="infeasible"):
            tabu_wlo(
                fir_context.program, spec, fir_context.model, target, -400.0,
                warm_start=seed,
            )


class TestGreedyWarmStart:
    @pytest.mark.parametrize(
        "context_name", ["fir_context", "iir_context", "conv_context"]
    )
    def test_max_minus_one_parity_on_every_kernel(self, request, context_name):
        """Warm max-1 is feasible and no costlier than cold, on every
        shipped kernel."""
        context = request.getfixturevalue(context_name)
        target = get_target(TARGET)
        seed_spec = context.fresh_spec()
        max_minus_one(
            context.program, seed_spec, context.model, target, -45.0
        )
        seed = _assignment(context, seed_spec)

        cold_spec = context.fresh_spec()
        cold = max_minus_one(
            context.program, cold_spec, context.model, target, -25.0
        )
        warm_spec = context.fresh_spec()
        warm = max_minus_one(
            context.program, warm_spec, context.model, target, -25.0,
            warm_start=seed,
        )
        assert warm.warm_start
        assert not context.model.violates(warm_spec, -25.0)
        assert warm.cost <= cold.cost
        # The seed starts next to the endpoint: warm must not do more
        # narrowing work than the full cold descent.
        assert warm.moves <= cold.moves

    def test_min_plus_one_continues_from_infeasible_seed(self, fir_context):
        """An infeasible seed lies on min+1's own widening path, so the
        warm result is bit-identical to cold.

        The seed must actually be partway up the width ladder: a -80 dB
        solution is a strict prefix of the -90 dB cold trajectory (the
        small FIR is below -71 dB at the all-minimum start, so looser
        pairs never leave that start and would test nothing).
        """
        target = get_target(TARGET)
        seed_spec = fir_context.fresh_spec()
        min_plus_one(
            fir_context.program, seed_spec, fir_context.model, target, -80.0
        )
        seed = _assignment(fir_context, seed_spec)
        assert fir_context.model.violates(seed_spec, -90.0)

        cold_spec = fir_context.fresh_spec()
        cold = min_plus_one(
            fir_context.program, cold_spec, fir_context.model, target, -90.0
        )
        warm_spec = fir_context.fresh_spec()
        warm = min_plus_one(
            fir_context.program, warm_spec, fir_context.model, target, -90.0,
            warm_start=seed,
        )
        assert warm.warm_start
        assert warm.cost == cold.cost
        assert (warm_spec.wl_vector() == cold_spec.wl_vector()).all()
        assert warm.moves < cold.moves

    def test_min_plus_one_feasible_seed_falls_back_to_cold(self, fir_context):
        """A feasible seed would strand a widening search above the
        cold cost; min+1 must ignore it."""
        target = get_target(TARGET)
        seed_spec = fir_context.fresh_spec()
        min_plus_one(
            fir_context.program, seed_spec, fir_context.model, target, -80.0
        )
        seed = _assignment(fir_context, seed_spec)
        assert not fir_context.model.violates(seed_spec, -15.0)

        cold_spec = fir_context.fresh_spec()
        cold = min_plus_one(
            fir_context.program, cold_spec, fir_context.model, target, -15.0
        )
        warm_spec = fir_context.fresh_spec()
        warm = min_plus_one(
            fir_context.program, warm_spec, fir_context.model, target, -15.0,
            warm_start=seed,
        )
        assert not warm.warm_start
        assert warm.cost == cold.cost
        assert (warm_spec.wl_vector() == cold_spec.wl_vector()).all()


class TestJointWarmStart:
    def test_warm_joint_matches_cold_quality(self, fir_context):
        target = get_target(TARGET)
        seed_spec = fir_context.fresh_spec()
        seed_outcome = wlo_slp_optimize(
            fir_context.program, seed_spec, fir_context.model, target, -45.0
        )
        assert seed_outcome.selection.accuracy_rejections == 0
        assert seed_outcome.selection.accuracy_conflicts == 0
        seed = JointWarmStart(
            wls=_assignment(fir_context, seed_spec),
            groups=seed_outcome.groups,
            partition_safe=True,
        )

        cold_spec = fir_context.fresh_spec()
        wlo_slp_optimize(
            fir_context.program, cold_spec, fir_context.model, target, -25.0
        )
        cold_cost = wl_relative_cost(fir_context.program, cold_spec, target)

        warm_spec = fir_context.fresh_spec()
        warm_outcome = wlo_slp_optimize(
            fir_context.program, warm_spec, fir_context.model, target, -25.0,
            warm_start=seed,
        )
        assert warm_outcome.warm_start
        assert not fir_context.model.violates(warm_spec, -25.0)
        warm_cost = wl_relative_cost(fir_context.program, warm_spec, target)
        assert warm_cost <= cold_cost
        # The adopted partition pre-merges the seed's groups, so the
        # warm run keeps at least as much SIMD grouping.
        assert warm_outcome.n_groups >= seed_outcome.n_groups

    def test_unsafe_partition_is_ignored(self, fir_context):
        """A seed whose partition was shaped by accuracy checks at the
        stricter constraint must not be adopted (cost contract)."""
        target = get_target(TARGET)
        seed_spec = fir_context.fresh_spec()
        seed_outcome = wlo_slp_optimize(
            fir_context.program, seed_spec, fir_context.model, target, -45.0
        )
        seed = JointWarmStart(
            wls=_assignment(fir_context, seed_spec),
            groups=seed_outcome.groups,
            partition_safe=False,
        )
        cold_spec = fir_context.fresh_spec()
        cold = wlo_slp_optimize(
            fir_context.program, cold_spec, fir_context.model, target, -25.0
        )
        warm_spec = fir_context.fresh_spec()
        warm = wlo_slp_optimize(
            fir_context.program, warm_spec, fir_context.model, target, -25.0,
            warm_start=seed,
        )
        assert not warm.warm_start
        assert (warm_spec.wl_vector() == cold_spec.wl_vector()).all()
        assert warm.n_groups == cold.n_groups

    def test_unusable_seed_runs_cold(self, fir_context):
        target = get_target(TARGET)
        seed = JointWarmStart(wls={0: 13}, groups={}, partition_safe=True)
        cold_spec = fir_context.fresh_spec()
        cold = wlo_slp_optimize(
            fir_context.program, cold_spec, fir_context.model, target, -25.0
        )
        warm_spec = fir_context.fresh_spec()
        warm = wlo_slp_optimize(
            fir_context.program, warm_spec, fir_context.model, target, -25.0,
            warm_start=seed,
        )
        assert not warm.warm_start
        assert (warm_spec.wl_vector() == cold_spec.wl_vector()).all()
        assert warm.n_groups == cold.n_groups


class TestParetoFrontier:
    GRID = (-15.0, -25.0, -35.0, -45.0)

    def test_frontier_is_strictly_monotone(self, fir_context):
        target = get_target(TARGET)
        frontier = pareto_frontier(
            fir_context.program, fir_context.fresh_spec(), fir_context.model,
            target,
        )
        assert len(frontier.points) >= 2
        for before, after in zip(frontier.points, frontier.points[1:]):
            assert after.cost < before.cost
            assert after.noise_db > before.noise_db

    def test_projection_is_feasible_on_the_grid(self, fir_context):
        target = get_target(TARGET)
        frontier = pareto_frontier(
            fir_context.program, fir_context.fresh_spec(), fir_context.model,
            target,
        )
        spec = fir_context.fresh_spec()
        for constraint in self.GRID:
            point = frontier.project(constraint)
            assert point.noise_db <= constraint
            assert apply_warm_start(
                spec, point.wls, sorted(target.supported_wls)
            )
            assert not fir_context.model.violates(spec, constraint)

    def test_projection_picks_the_cheapest_feasible_point(self, fir_context):
        target = get_target(TARGET)
        frontier = pareto_frontier(
            fir_context.program, fir_context.fresh_spec(), fir_context.model,
            target,
        )
        for constraint in self.GRID:
            point = frontier.project(constraint)
            feasible = [
                p for p in frontier.points if p.noise_db <= constraint
            ]
            assert point.cost == min(p.cost for p in feasible)

    def test_infeasible_projection_raises(self, fir_context):
        target = get_target(TARGET)
        frontier = pareto_frontier(
            fir_context.program, fir_context.fresh_spec(), fir_context.model,
            target,
        )
        with pytest.raises(WLOError, match="infeasible"):
            frontier.project(-400.0)

    def test_walk_is_deterministic(self, fir_context):
        target = get_target(TARGET)
        first = pareto_frontier(
            fir_context.program, fir_context.fresh_spec(), fir_context.model,
            target,
        )
        second = pareto_frontier(
            fir_context.program, fir_context.fresh_spec(), fir_context.model,
            target,
        )
        assert first.points == second.points
        assert first.moves == second.moves
        assert first.evaluations == second.evaluations


# ----------------------------------------------------------------------
# Sweep integration: the continuation store, the pipeline passes and
# the experiment engine working together.

GRID = (-15.0, -45.0)
SMALL = KernelConfig(
    n_samples=96, analysis_samples=96, image_size=18, analysis_image_size=18,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(SMALL)


class TestSweepContinuation:
    def test_warm_sweep_keeps_the_quality_contract(self, runner):
        clear_continuations()
        cold = runner.sweep("fir", TARGET, GRID)
        warm = runner.sweep("fir", TARGET, GRID, continuation="warm")
        assert [c.constraint_db for c in warm] == list(GRID)
        for cold_cell, warm_cell in zip(cold, warm):
            assert warm_cell.wlo_slp_noise_db <= warm_cell.constraint_db
            assert warm_cell.wlo_first_noise_db <= warm_cell.constraint_db
            assert warm_cell.wlo_slp_cycles <= cold_cell.wlo_slp_cycles
            assert (
                warm_cell.wlo_first_simd_cycles
                <= cold_cell.wlo_first_simd_cycles
            )
        # Strictest-first execution: the loose cell continues from the
        # strict one's solution and says so.
        loose = next(c for c in warm if c.constraint_db == -15.0)
        assert loose.warm_start
        assert loose.wlo_iterations > 0

    def test_warm_and_cold_cells_never_alias(self, runner):
        cold_cell = runner.cell("fir", TARGET, -15.0)
        warm_cell = runner.cell("fir", TARGET, -15.0, continuation="warm")
        assert cold_cell is not warm_cell
        assert not cold_cell.warm_start

    def test_continuation_splits_the_pipeline_signature(self):
        cold = cell_pipeline_signature(CellRequest("fir", TARGET, -15.0))
        warm = cell_pipeline_signature(
            CellRequest("fir", TARGET, -15.0, continuation="warm")
        )
        pareto = cell_pipeline_signature(
            CellRequest("fir", TARGET, -15.0, continuation="pareto")
        )
        assert cold != warm
        assert cold != pareto
        assert warm != pareto

    def test_pareto_sweep_is_feasible_and_memoized(self, runner):
        clear_continuations()
        cells = runner.sweep("fir", TARGET, GRID, continuation="pareto")
        for cell in cells:
            assert cell.wlo_slp_noise_db <= cell.constraint_db
            assert cell.wlo_first_noise_db <= cell.constraint_db
        # Every cell after the panel's first reuses the memoized
        # frontier (grid runs strictest-first, so -15 comes second).
        loose = next(c for c in cells if c.constraint_db == -15.0)
        assert loose.warm_start

    def test_cold_cells_report_search_effort(self, runner):
        cell = runner.cell("fir", TARGET, -15.0)
        assert cell.wlo_iterations > 0
        assert cell.wlo_evaluations > 0
        assert not cell.warm_start

    def test_engine_without_warm_start_keyword_runs_cold(self, runner):
        """The pass only forwards seeds to engines that declare the
        keyword; a plain engine must keep working under --continuation."""
        from repro.pipeline.passes import _engine_accepts_warm_start

        def plain(program, spec, model, target, constraint_db):
            return max_minus_one(program, spec, model, target, constraint_db)

        assert _engine_accepts_warm_start(tabu_wlo)
        assert _engine_accepts_warm_start(max_minus_one)
        assert not _engine_accepts_warm_start(plain)

        register_wlo_engine("plain-cold", plain, overwrite=True)
        clear_continuations()
        cells = runner.sweep(
            "fir", TARGET, GRID, wlo="plain-cold", continuation="warm"
        )
        for cell in cells:
            assert cell.wlo_first_noise_db <= cell.constraint_db
