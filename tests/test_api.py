"""Typed request API tests: round-trips, CLI materialization, and the
standardized unknown-name error format of all five registries."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    RunRequest,
    SweepReport,
    SweepRequest,
    registry_listing,
)
from repro.errors import (
    BackendError,
    ExecutionBackendError,
    FlowError,
    FormatError,
    IRError,
    TargetError,
    WLOError,
)

SMALL = dict(
    n_samples=96, analysis_samples=96, image_size=18, analysis_image_size=18
)


class TestSweepRequestRoundTrip:
    def test_default_round_trips(self):
        request = SweepRequest()
        assert SweepRequest.from_json(request.to_json()) == request

    def test_lists_normalize_to_tuples(self):
        a = SweepRequest(kernels=["fir"], targets=["vex-1"], grid=[-15])
        b = SweepRequest(kernels=("fir",), targets=("vex-1",), grid=(-15.0,))
        assert a == b
        assert a.grid == (-15.0,)  # ints coerce to floats

    def test_every_field_survives_the_wire(self):
        request = SweepRequest(
            kernels=("iir",), targets=("st240",), grid=(-25.0, -35.0),
            only=("iir:st240",), wlo="max-1", flow="wlo-slp-lite",
            sim_backend="scalar", jobs=7, backend="workqueue",
            cache_dir="/tmp/x", no_cache=True,
        )
        hydrated = SweepRequest.from_json(request.to_json())
        assert hydrated == request
        assert hydrated.only == ("iir:st240",)

    def test_unknown_payload_field_is_rejected(self):
        with pytest.raises(FlowError, match="unknown sweep request field"):
            SweepRequest.from_payload({"kernelz": ["fir"]})

    def test_defaults_fill_missing_payload_keys_only(self):
        defaults = {"jobs": 4, "backend": "workqueue", "ignored": 1}
        request = SweepRequest.from_payload({"jobs": 2}, defaults)
        assert request.jobs == 2  # payload wins
        assert request.backend == "workqueue"  # default fills the hole

    def test_validate_accepts_the_default_request(self):
        SweepRequest().validate()

    def test_validate_rejects_bad_jobs(self):
        with pytest.raises(FlowError, match="jobs must be >= 1"):
            SweepRequest(jobs=0).validate()

    def test_plan_matches_engine_enumeration(self):
        from repro.experiments import KernelConfig

        request = SweepRequest(
            kernels=("fir", "fir"), targets=("xentium",),
            grid=(-15.0, -15.0, -45.0),
        )
        plan = request.plan(KernelConfig(**SMALL))
        assert len(plan.requests) == 2  # deduplicated
        assert plan.requests[0].sim_backend == ""

    def test_grid_deduplicates_order_preserving(self):
        request = SweepRequest(grid=(-25.0, -15, -25.0, -15.0, -45.0))
        assert request.grid == (-25.0, -15.0, -45.0)
        assert SweepRequest.from_json(request.to_json()) == request

    def test_empty_grid_is_rejected(self):
        with pytest.raises(FlowError, match="grid is empty"):
            SweepRequest(grid=())

    def test_continuation_round_trips(self):
        warm = SweepRequest(continuation=True)
        pareto = SweepRequest(pareto=True)
        assert SweepRequest.from_json(warm.to_json()) == warm
        assert SweepRequest.from_json(pareto.to_json()) == pareto
        assert SweepRequest().continuation_mode == ""
        assert warm.continuation_mode == "warm"
        assert pareto.continuation_mode == "pareto"

    def test_continuation_and_pareto_are_mutually_exclusive(self):
        with pytest.raises(FlowError, match="mutually exclusive"):
            SweepRequest(continuation=True, pareto=True).validate()

    def test_format_round_trips_and_canonicalizes(self):
        request = SweepRequest(format="float32")
        assert SweepRequest.from_json(request.to_json()) == request
        # Canonical spelling: case and binary(E,M) spacing never split
        # request equality (and thus never split cache cells).
        assert SweepRequest(format="Binary( 8 , 10 )") == SweepRequest(
            format="binary(8,10)"
        )
        assert SweepRequest(format="fixed") == SweepRequest(format="")

    def test_format_validates_through_the_registry(self):
        SweepRequest(format="bfloat16").validate()
        with pytest.raises(FormatError, match="unknown format 'floot32'"):
            SweepRequest(format="floot32").validate()
        # The oracle is a reference backend, not a quantization target.
        with pytest.raises(FormatError, match="bigfloat"):
            SweepRequest(format="bigfloat").validate()

    def test_format_reaches_the_plan(self):
        from repro.experiments import KernelConfig

        request = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0,),
            format="float32",
        )
        plan = request.plan(KernelConfig(**SMALL))
        assert [r.format for r in plan.requests] == ["float32"]
        fixed = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0,)
        ).plan(KernelConfig(**SMALL))
        # Format cells never alias fixed-point cells.
        assert plan.requests[0] != fixed.requests[0]

    def test_continuation_reaches_the_plan(self):
        from repro.experiments import KernelConfig

        request = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0, -45.0, -25.0),
            continuation=True,
        )
        plan = request.plan(KernelConfig(**SMALL))
        # Warm plans run each panel strictest-first so every cell after
        # the first has a feasible neighbor to seed from.
        assert [r.constraint_db for r in plan.requests] == [-45.0, -25.0, -15.0]
        assert all(r.continuation == "warm" for r in plan.requests)
        cold = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0, -45.0, -25.0)
        ).plan(KernelConfig(**SMALL))
        assert [r.constraint_db for r in cold.requests] == [-15.0, -45.0, -25.0]
        assert all(r.continuation == "" for r in cold.requests)


class TestRunRequestRoundTrip:
    def test_round_trip(self):
        request = RunRequest(
            kernel="dot", target="vex-1", constraint_db=-20,
            flow="wlo-first", wlo="min+1", sim_backend="scalar",
        )
        assert RunRequest.from_json(request.to_json()) == request
        assert request.constraint_db == -20.0

    def test_unknown_field_is_rejected(self):
        with pytest.raises(FlowError, match="unknown run request field"):
            RunRequest.from_payload({"kernal": "fir"})

    def test_execute_runs_the_flow(self):
        result, state = RunRequest(
            kernel="dot", target="vex-1", constraint_db=-15.0
        ).execute()
        assert result.total_cycles > 0
        assert state.timing_report()

    def test_execute_float_flow_ignores_sim_backend(self):
        result, _ = RunRequest(
            kernel="dot", target="vex-1", flow="float", sim_backend="scalar"
        ).execute()
        assert result.total_cycles > 0


class TestCliMaterialization:
    """Every sweep-backed CLI invocation materializes into a valid
    SweepRequest whose JSON round-trips and equals the JSON recorded in
    ``tests/data/cli_sweep_requests.json`` (the acceptance criterion of
    the unified request API; recorded while ``from_args`` still read
    each flag by hand)."""

    INVOCATIONS = [
        ["sweep", "--only", "fir:vex-1", "--grid", "-15"],
        ["sweep", "--kernels", "iir", "--targets", "st240", "--jobs", "3",
         "--backend", "workqueue", "--no-cache"],
        ["sweep", "--wlo", "max-1", "--flow", "wlo-slp-lite",
         "--sim-backend", "scalar", "--cache-dir", "/tmp/cache"],
        ["fig4", "--kernels", "fir", "--targets", "vex-1", "--grid", "-25",
         "--jobs", "2"],
        ["table1", "--grid", "-15", "-25", "--backend", "workqueue"],
        ["fig6", "--no-cache"],
        ["ablations", "--kernel", "iir", "--target", "st240", "--jobs", "2"],
        ["validate", "--kernels", "fir", "--sim-backend", "batch"],
        ["serve", "--port", "0", "--jobs", "4", "--backend", "workqueue"],
        ["sweep", "--only", "fir:vex-1", "--continuation"],
        ["sweep", "--only", "fir:vex-1", "--pareto", "--grid", "-15", "-25"],
        ["sweep", "--format", "float32", "--only", "fir:vex-1"],
        ["fig4", "--format", "bfloat16", "--kernels", "fir",
         "--targets", "vex-1", "--grid", "-25"],
        ["table1", "--continuation"],
        ["fig6", "--pareto"],
    ]
    RECORDED = json.loads(
        (Path(__file__).parent / "data" / "cli_sweep_requests.json").read_text()
    )

    @pytest.mark.parametrize(
        "argv", INVOCATIONS, ids=lambda argv: " ".join(argv)
    )
    def test_namespace_round_trips_through_json(self, argv):
        from repro.cli import build_parser

        args = build_parser().parse_args(argv)
        request = SweepRequest.from_args(args).validate()
        assert request.to_json() == self.RECORDED[" ".join(argv)]
        assert SweepRequest.from_json(request.to_json()) == request

    def test_shared_engine_flags_reach_the_request(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["sweep", "--jobs", "5", "--backend", "workqueue",
             "--cache-dir", "/tmp/c", "--no-cache",
             "--sim-backend", "scalar", "--format", "float32"]
        )
        request = SweepRequest.from_args(args)
        assert request.jobs == 5
        assert request.backend == "workqueue"
        assert request.cache_dir == "/tmp/c"
        assert request.no_cache is True
        assert request.sim_backend == "scalar"
        assert request.format == "float32"

    def test_run_request_from_args(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--kernel", "dot", "--target", "vex-1",
             "--constraint", "-20", "--flow", "wlo-first",
             "--wlo", "min+1", "--sim-backend", "scalar"]
        )
        request = RunRequest.from_args(args)
        assert request == RunRequest(
            kernel="dot", target="vex-1", constraint_db=-20.0,
            flow="wlo-first", wlo="min+1", sim_backend="scalar",
        )


class TestUnknownNameErrors:
    """Satellite: all five registries (plus targets and kernels) speak
    one error dialect — ``unknown <kind> '<name>'; available: ...`` —
    via :func:`repro.errors.unknown_name_error`."""

    CASES = [
        ("format", FormatError,
         lambda: __import__("repro.formats", fromlist=["x"])
         .get_format("posit16"),
         ["fixed", "float32", "bfloat16", "bigfloat", "binary(E,M)"]),
        ("flow", FlowError,
         lambda: __import__("repro.pipeline", fromlist=["get_flow"])
         .get_flow("warp"),
         ["float", "wlo-first", "wlo-slp"]),
        ("WLO engine", WLOError,
         lambda: __import__("repro.wlo.registry", fromlist=["x"])
         .get_wlo_engine("quantum"),
         ["tabu", "max-1", "min+1"]),
        ("evaluation backend", BackendError,
         lambda: __import__("repro.ir.backend", fromlist=["x"])
         .get_backend("warp"),
         ["scalar", "batch"]),
        ("execution backend", ExecutionBackendError,
         lambda: __import__("repro.experiments.backends", fromlist=["x"])
         .get_execution_backend("warp"),
         ["serial", "workqueue"]),
        ("target", TargetError,
         lambda: __import__("repro.targets.registry", fromlist=["x"])
         .get_target("z80"),
         ["xentium", "st240", "vex-1", "vex-4"]),
        ("kernel", IRError,
         lambda: __import__("repro.kernels", fromlist=["x"])
         .kernel_by_name("matmul"),
         ["fir", "iir", "conv", "dot"]),
    ]

    @pytest.mark.parametrize(
        "kind, error_cls, trigger, expected", CASES,
        ids=[kind for kind, *_ in CASES],
    )
    def test_error_lists_alternatives(self, kind, error_cls, trigger, expected):
        with pytest.raises(error_cls) as excinfo:
            trigger()
        message = str(excinfo.value)
        assert message.startswith(f"unknown {kind} ")
        assert "; available: " in message
        for name in expected:
            assert name in message

    def test_helper_format_is_stable(self):
        from repro.errors import ReproError, unknown_name_error

        error = unknown_name_error(ReproError, "thing", "x", ["b", "a"])
        assert str(error) == "unknown thing 'x'; available: a, b"


class TestRegistryListing:
    def test_covers_every_registry(self):
        listing = registry_listing()
        assert set(listing) == {
            "flows", "wlo_engines", "wlo_continuation_modes",
            "sim_backends", "execution_backends", "formats", "kernels",
            "targets",
        }
        assert listing["wlo_continuation_modes"] == ["warm", "pareto"]
        assert {f["name"] for f in listing["flows"]} >= {
            "float", "wlo-first", "wlo-slp"
        }
        assert "tabu" in listing["wlo_engines"]
        assert {b["name"] for b in listing["sim_backends"]} == {
            "scalar", "batch", "bigfloat"
        }
        formats = {f["name"]: f for f in listing["formats"]}
        assert set(formats) == {
            "fixed", "float64", "float32", "bfloat16", "bigfloat"
        }
        assert formats["float32"]["exp_bits"] == 8
        assert formats["float32"]["man_bits"] == 23
        assert formats["bigfloat"]["kind"] == "oracle"
        by_name = {b["name"]: b for b in listing["sim_backends"]}
        assert [t["name"] for t in by_name["batch"]["tiers"]] == [
            "int64", "object"
        ]
        assert by_name["scalar"]["tiers"] == []
        assert {b["name"] for b in listing["execution_backends"]} == {
            "serial", "workqueue"
        }
        assert {k["name"] for k in listing["kernels"]} >= {"fir", "iir", "conv"}
        assert "xentium" in listing["targets"]

    def test_is_json_serializable(self):
        json.dumps(registry_listing())

    def test_flow_entries_carry_passes_and_params(self):
        listing = registry_listing()
        wlo_slp = next(
            f for f in listing["flows"] if f["name"] == "wlo-slp"
        )
        assert wlo_slp["passes"]
        assert wlo_slp["needs_constraint"] is True
        assert "wlo" in wlo_slp["params"] or "sim_backend" in wlo_slp["params"]

    def test_matches_cli_json_output(self, capsys):
        from repro.cli import main

        assert main(["flows", "--json"]) == 0
        flows_payload = json.loads(capsys.readouterr().out)
        assert main(["kernels", "--json"]) == 0
        kernels_payload = json.loads(capsys.readouterr().out)
        assert flows_payload == kernels_payload == registry_listing()


class TestSweepReport:
    def test_report_round_trips_and_rehydrates(self):
        from repro.experiments import ExperimentRunner, KernelConfig

        request = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0,),
            no_cache=True,
        )
        runner = ExperimentRunner.from_request(request, KernelConfig(**SMALL))
        report = runner.submit(request)
        assert report.counts["computed"] == 1
        hydrated = SweepReport.from_json(report.to_json())
        assert hydrated == report
        (outcome,) = report.outcomes
        cell = report.cell(outcome)
        assert cell is not None and cell.wlo_slp_speedup > 0
        assert report.cell_request(outcome).kernel == "fir"
        report.ensure_complete()

    def test_failed_cells_surface_in_ensure_complete(self):
        from repro.experiments import ExperimentRunner, KernelConfig

        request = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0, -400.0),
            no_cache=True,
        )
        runner = ExperimentRunner.from_request(request, KernelConfig(**SMALL))
        report = runner.submit(request)
        assert report.counts["failed"] == 1
        assert len(report.failures) == 1
        assert "infeasible" in report.failures[0]["error"]
        with pytest.raises(FlowError, match="infeasible"):
            report.ensure_complete()
