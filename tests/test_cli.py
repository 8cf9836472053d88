"""Command-line interface tests (fast paths only)."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["targets"],
            ["kernels"],
            ["flows"],
            ["run", "--kernel", "dot", "--constraint", "-20"],
            ["run", "--kernel", "dot", "--flow", "wlo-first",
             "--wlo", "min+1", "--timings"],
            ["run", "--kernel", "dot", "--sim-backend", "scalar"],
            ["validate", "--kernels", "fir", "--stimuli", "3",
             "--sim-seed", "7", "--sim-backend", "batch"],
            ["fig4", "--kernels", "fir", "--targets", "xentium"],
            ["table1"],
            ["fig6", "--grid", "-15", "-45"],
            ["ablations", "--kernel", "iir"],
            ["sweep", "--flow", "wlo-slp-lite", "--wlo", "max-1"],
            ["codegen", "--kernel", "dot", "--simd"],
        ):
            parser.parse_args(argv)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_targets(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "xentium" in out and "st240" in out

    def test_run_wlo_slp_on_dot(self, capsys):
        assert main(["run", "--kernel", "dot", "--target", "xentium",
                     "--constraint", "-30", "--flow", "wlo-slp"]) == 0
        out = capsys.readouterr().out
        assert "wlo-slp" in out and "cycles" in out

    def test_run_float(self, capsys):
        assert main(["run", "--kernel", "dot", "--flow", "float"]) == 0
        assert "float" in capsys.readouterr().out

    def test_run_float_summary_names_no_constraint(self, capsys):
        assert main(["run", "--kernel", "dot", "--flow", "float"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("[float] dot on xentium: ")
        assert "nan" not in out and " @ " not in out

    @pytest.mark.parametrize("flow", ["wlo-first", "wlo-first-greedy"])
    def test_run_decoupled_prints_spec_and_tier(self, capsys, flow):
        assert main(["run", "--kernel", "dot", "--constraint", "-30",
                     "--flow", flow, "--timings"]) == 0
        out = capsys.readouterr().out
        assert f"[{flow}/" in out and "/scalar] dot on xentium @ -30 dB" in out
        assert re.search(r"^  <\d+,\d+> wl=\d+ ", out, re.M)  # the spec
        assert "WLO search: " in out
        assert "fixed-point sim tier: batch[int64]" in out

    def test_codegen_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "dot.c"
        assert main(["codegen", "--kernel", "dot", "--constraint", "-30",
                     "-o", str(out_file)]) == 0
        assert "void kernel(void)" in out_file.read_text()

    def test_codegen_simd_stdout(self, capsys):
        assert main(["codegen", "--kernel", "dot", "--constraint", "-30",
                     "--simd"]) == 0
        assert "V2" in capsys.readouterr().out

    def test_error_reported_cleanly(self, capsys):
        code = main(["run", "--kernel", "dot", "--target", "tpu"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFlowsCommand:
    def test_lists_flows_and_engines(self, capsys):
        assert main(["flows"]) == 0
        out = capsys.readouterr().out
        for name in ("float", "wlo-first", "wlo-slp", "wlo-first-greedy",
                     "wlo-slp-lite"):
            assert name in out
        assert "range-analysis" in out  # pass structure is shown
        assert "WLO engines:" in out and "tabu" in out
        assert "Simulation backends:" in out
        assert "batch" in out and "scalar" in out


class TestKernelsCommand:
    def test_lists_every_kernel(self, capsys):
        from repro.kernels import kernel_names

        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in kernel_names():
            assert name in out

    def test_unknown_kernel_lists_alternatives(self, capsys):
        code = main(["run", "--kernel", "fft", "--constraint", "-20"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "fir" in err and "'fft'" in err


class TestSimBackendFlag:
    def test_flag_is_noop_on_flows_without_simulation(self, capsys):
        # float has no simulation-backed pass; the flag must not error.
        assert main(["run", "--kernel", "dot", "--flow", "float",
                     "--sim-backend", "batch"]) == 0
        assert "float" in capsys.readouterr().out

    def test_zero_stimuli_reports_clean_error(self, capsys):
        code = main(["validate", "--kernels", "fir", "--stimuli", "0"])
        assert code == 1
        assert "at least one stimulus" in capsys.readouterr().err

    def test_scalar_and_batch_runs_agree(self, capsys):
        assert main(["run", "--kernel", "dot", "--constraint", "-30",
                     "--sim-backend", "scalar"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["run", "--kernel", "dot", "--constraint", "-30",
                     "--sim-backend", "batch"]) == 0
        batch_out = capsys.readouterr().out
        # Backends are bit-identical: same cycles, groups and noise.
        assert scalar_out == batch_out


class TestRunFlowSelection:
    def test_run_variant_flow_by_name(self, capsys):
        assert main(["run", "--kernel", "dot", "--constraint", "-30",
                     "--flow", "wlo-slp-lite"]) == 0
        assert "wlo-slp-lite" in capsys.readouterr().out

    def test_run_wlo_engine_selection(self, capsys):
        assert main(["run", "--kernel", "dot", "--constraint", "-30",
                     "--flow", "wlo-first", "--wlo", "min+1"]) == 0
        assert "wlo-first/min+1" in capsys.readouterr().out

    def test_run_timings_report(self, capsys):
        assert main(["run", "--kernel", "dot", "--constraint", "-30",
                     "--timings"]) == 0
        out = capsys.readouterr().out
        assert "range-analysis" in out and "passes cached" in out

    def test_unknown_flow_lists_available(self, capsys):
        assert main(["run", "--kernel", "dot", "--flow", "warp"]) == 1
        err = capsys.readouterr().err
        assert "unknown flow" in err and "wlo-slp" in err

    def test_unknown_engine_lists_available(self, capsys):
        assert main(["run", "--kernel", "dot", "--wlo", "quantum"]) == 1
        err = capsys.readouterr().err
        assert "unknown WLO engine" in err and "tabu" in err

    def test_engine_override_on_flow_without_wlo_param(self, capsys):
        assert main(["run", "--kernel", "dot", "--flow", "float",
                     "--wlo", "tabu"]) == 1
        assert "no parameter" in capsys.readouterr().err


class TestValidateCommand:
    def test_parses(self):
        build_parser().parse_args(["validate", "--kernels", "fir"])
