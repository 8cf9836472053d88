"""Command-line interface tests (fast paths only)."""

import json
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

    @pytest.mark.parametrize("argv", [
        ["sweep", "--only", "fir:vex-1", "--grid", "-15", "--no-cache"],
        ["run", "--kernel", "dot", "--flow", "float"],
    ])
    def test_unknown_backend_is_a_registry_error(self, argv, capsys):
        # Resolved through the registry, not argparse choices: exit 1
        # with the standard message, also where the flow would not use it.
        assert main(argv + ["--sim-backend", "foo"]) == 1
        assert capsys.readouterr().err == (
            "error: unknown evaluation backend 'foo'; "
            "available: batch, bigfloat, scalar\n"
        )

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


class TestCellAxisFlags:
    """Every cell-axis flag of the shared engine parent, on every
    sweep-backed subcommand: a command either runs the flag's axis into
    its cells or exits 1 naming the flag — none is dropped silently."""

    #: flag -> (argv tail, CellRequest field, the value its cells carry)
    FLAGS = {
        "--sim-backend": (["--sim-backend", "scalar"], "sim_backend", "scalar"),
        "--continuation": (["--continuation"], "continuation", "warm"),
        "--pareto": (["--pareto"], "continuation", "pareto"),
        "--format": (["--format", "float32"], "format", "float32"),
    }
    #: Each subcommand on a small slice of its grid.
    COMMANDS = {
        "sweep": ["sweep", "--only", "fir:vex-1", "--grid", "-15"],
        "fig4": ["fig4", "--kernels", "fir", "--targets", "vex-1",
                 "--grid", "-15"],
        "table1": ["table1", "--grid", "-15"],
        "fig6": ["fig6", "--grid", "-15"],
        "ablations": ["ablations"],
        "validate": ["validate", "--kernels", "fir"],
        "serve": ["serve", "--port", "0"],
    }
    REJECTED = {
        ("table1", "--format"),
        ("fig6", "--format"),
        ("validate", "--continuation"),
        ("validate", "--pareto"),
        ("validate", "--format"),
        ("ablations", "--sim-backend"),
        ("ablations", "--continuation"),
        ("ablations", "--pareto"),
        ("ablations", "--format"),
    }

    #: The execution flags validate rejects: it runs no sweep cell.
    EXECUTION_FLAGS = {
        "--jobs": ["--jobs", "4"],
        "--backend": ["--backend", "serial"],
        "--cache-dir": ["--cache-dir"],
        "--no-cache": ["--no-cache"],
    }

    @pytest.mark.parametrize("flag", list(FLAGS))
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_flag_is_honored_or_rejected(
        self, command, flag, tmp_path, capsys, monkeypatch
    ):
        tail, field, value = self.FLAGS[flag]
        argv = self.COMMANDS[command] + tail
        if command != "validate":
            argv += ["--cache-dir", str(tmp_path)]
        if command == "serve":
            requests = self._serve_default_cells(argv, monkeypatch)
            assert requests and all(
                getattr(r, field) == value for r in requests
            )
            return
        code = main(argv)
        captured = capsys.readouterr()
        if (command, flag) in self.REJECTED:
            assert code == 1
            assert flag in captured.err
            assert not list(tmp_path.glob("*.json"))
            return
        assert code == 0, captured.err
        if command == "validate":
            # No cells: the flag picks the backend of its simulations,
            # named in the last (sim_tier) column of every row.
            rows = [line.split() for line in captured.out.splitlines()
                    if line.split()[:1] == ["fir"]]
            assert rows and all(row[-1] == value for row in rows)
            return
        requests = [json.loads(path.read_text())["request"]
                    for path in tmp_path.glob("*.json")]
        assert requests and all(r[field] == value for r in requests)

    @pytest.mark.parametrize("flag", list(EXECUTION_FLAGS))
    def test_validate_rejects_execution_flags(self, flag, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        tail = self.EXECUTION_FLAGS[flag]
        if flag == "--cache-dir":
            tail = tail + [str(cache_dir)]
        assert main(self.COMMANDS["validate"] + tail) == 1
        assert f"validate does not take {flag}: it " in capsys.readouterr().err
        assert not cache_dir.exists()

    @staticmethod
    def _serve_default_cells(argv, monkeypatch):
        """The cells a job submitted to ``repro serve`` without the
        flag's field would plan (the server is never bound)."""
        import repro.serve
        from repro.api import SweepRequest

        services = []

        class _Server:
            server_address = ("127.0.0.1", 0)

            def serve_forever(self):
                raise KeyboardInterrupt

            def server_close(self):
                pass

        def make_server(host, port, service, verbose=False):
            services.append(service)
            return _Server()

        monkeypatch.setattr(repro.serve, "make_server", make_server)
        assert main(argv) == 0
        (service,) = services
        payload = {"kernels": ["fir"], "targets": ["vex-1"], "grid": [-15.0]}
        return SweepRequest.from_payload(payload, service.defaults).plan().requests


class TestOneGridResolution:
    """Fig. 4 and Fig. 6 resolve their grid once and build their table
    once: one progress line per cell on stderr."""

    @pytest.mark.parametrize("argv, cells", [
        (["fig4", "--kernels", "fir", "--targets", "vex-1",
          "--grid", "-15", "-25"], 2),
        (["fig6", "--grid", "-15", "-45"], 12),
    ])
    def test_one_progress_line_per_cell(self, argv, cells, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--cache-dir", str(tmp_path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == cells
        assert len(list(tmp_path.glob("*.json"))) == cells
        # The exported table is the one the figure printed.
        table = json.loads((out / f"{argv[0]}.json").read_text())
        assert len(table["rows"]) == cells


class TestOneSpelling:
    def test_case_variants_share_one_cache_cell(self, tmp_path, capsys):
        def sweep(kernel, target):
            return main(["sweep", "--kernels", kernel, "--targets", target,
                         "--grid", "-15", "--cache-dir", str(tmp_path)])

        assert sweep("fir", "XENTIUM") == 0
        assert "1 cells: 1 computed" in capsys.readouterr().out
        assert sweep("FIR", "xentium") == 0
        assert "0 computed, 1 from disk cache" in capsys.readouterr().out
        assert len(list(tmp_path.glob("*.json"))) == 1
