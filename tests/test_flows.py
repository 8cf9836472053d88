"""End-to-end flow tests — the whole pipeline, measured honestly.

The load-bearing invariant: every flow's final spec satisfies its
accuracy constraint when *measured* by bit-accurate simulation against
the float reference, not merely according to the analytical model that
guided the optimization.
"""

import copy

import pytest

from repro.accuracy import SimulationAccuracyEvaluator
from repro.errors import FlowError, WLOError
from repro.pipeline import AnalysisContext, run_flow, speedup
from repro.targets import get_target


CONSTRAINTS = (-15.0, -40.0)


class TestWloSlpFlow:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_measured_accuracy_met(self, fir_context, constraint):
        result = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), constraint
        )
        simulator = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=3
        )
        measured = simulator.noise_db(result.spec)
        assert measured <= constraint + 1.0  # model tolerance margin

    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_iir_measured_accuracy_met(self, iir_context, constraint):
        result = run_flow(
            "wlo-slp", iir_context.program, get_target("st240"), constraint
        )
        simulator = SimulationAccuracyEvaluator(
            iir_context.program, n_stimuli=3, discard=64
        )
        assert simulator.noise_db(result.spec) <= constraint + 3.0

    def test_result_structure(self, fir_context):
        result = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), -20.0
        )
        assert result.flow == "wlo-slp"
        assert result.total_cycles > 0
        assert result.n_groups > 0
        assert result.noise_db is not None
        assert "selection_stats" in result.extra
        assert "cycles" in result.summary()

    def test_infeasible_constraint_raises(self, fir_context):
        with pytest.raises(WLOError, match="infeasible"):
            run_flow(
                "wlo-slp", fir_context.program, get_target("xentium"), -400.0
            )

    def test_strict_constraint_fewer_groups(self, fir_context):
        loose = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), -10.0
        )
        strict = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), -80.0
        )
        assert strict.n_groups <= loose.n_groups
        assert strict.total_cycles >= loose.total_cycles


class TestWloFirstFlow:
    @pytest.mark.parametrize("constraint", CONSTRAINTS)
    def test_measured_accuracy_met(self, fir_context, constraint):
        result = run_flow(
            "wlo-first", fir_context.program, get_target("xentium"),
            constraint,
        )
        simulator = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=3
        )
        assert simulator.noise_db(result.spec) <= constraint + 1.0

    def test_scalar_and_simd_share_spec(self, fir_context):
        result = run_flow(
            "wlo-first", fir_context.program, get_target("xentium"), -25.0
        )
        assert result.scalar.spec is result.simd.spec

    def test_greedy_engines(self, fir_context):
        for engine in ("max-1", "min+1"):
            result = run_flow(
                "wlo-first", fir_context.program, get_target("xentium"),
                -25.0, wlo=engine,
            )
            assert not fir_context.model.violates(result.spec, -25.0)

    def test_unknown_engine(self, fir_context):
        with pytest.raises(WLOError, match="unknown WLO engine"):
            run_flow(
                "wlo-first", fir_context.program, get_target("xentium"),
                -25.0, wlo="quantum",
            )


class TestFloatFlow:
    def test_soft_float_much_slower(self, fir_context):
        program = fir_context.program
        float_result = run_flow("float", program, get_target("xentium"))
        fixed = run_flow("wlo-slp", program, get_target("xentium"), -25.0)
        assert speedup(float_result, fixed) > 5.0

    def test_hw_float_close(self, fir_context):
        program = fir_context.program
        float_result = run_flow("float", program, get_target("st240"))
        fixed = run_flow("wlo-slp", program, get_target("st240"), -25.0)
        assert 0.5 < speedup(float_result, fixed) < 3.0


class TestAnalysisContext:
    def test_twin_must_match(self, small_fir, small_conv):
        with pytest.raises(FlowError, match="twin"):
            AnalysisContext.build(small_fir, small_conv)

    def test_twin_accepted(self):
        from repro.kernels import fir

        program = fir(n_samples=96, n_taps=16)
        twin = fir(n_samples=48, n_taps=16)
        context = AnalysisContext.build(program, twin)
        assert context.program is program
        assert context.analysis_program is twin

    def test_twin_produces_same_decisions(self):
        """Flows analysed on a twin must agree with flows analysed on
        the program itself (same ops, same gains structure)."""
        from repro.kernels import fir

        program = fir(n_samples=96, n_taps=16)
        twin = fir(n_samples=48, n_taps=16)
        target = get_target("xentium")
        a = run_flow("wlo-slp", program, target, -30.0)
        b = run_flow("wlo-slp", program, target, -30.0, analysis_program=twin)
        assert a.total_cycles == b.total_cycles
        assert a.n_groups == b.n_groups

    def test_fresh_spec_has_iwls(self, fir_context):
        spec = fir_context.fresh_spec()
        x_iwl = spec.iwl(fir_context.slotmap.slot_of_symbol("x"))
        assert x_iwl == 1  # [-1,1] input


class TestSpeedupHelper:
    def test_speedup_eq2(self, fir_context):
        scalar = run_flow(
            "wlo-first", fir_context.program, get_target("xentium"), -25.0
        ).scalar
        assert speedup(scalar, scalar) == pytest.approx(1.0)

    def test_zero_cycles_rejected(self, fir_context):
        result = run_flow("float", fir_context.program, get_target("xentium"))
        broken = copy.deepcopy(result)
        broken.cycles.total_cycles = 0
        with pytest.raises(FlowError):
            speedup(result, broken)


class TestQuickStart:
    def test_package_docstring_quick_start_runs(self, capsys):
        """The quick start in ``repro``'s docstring runs as written."""
        import textwrap

        import repro

        block = textwrap.dedent(repro.__doc__.split("Quick start::", 1)[1])
        exec(compile(block, "<repro quick start>", "exec"), {})
        out = capsys.readouterr().out
        assert out.startswith("[wlo-slp] fir")
        assert "on xentium @ -25 dB: " in out and "SIMD groups" in out
