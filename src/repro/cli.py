"""Command-line front end.

Usage examples::

    repro targets
    repro kernels --json
    repro flows
    repro run --kernel fir --target xentium --constraint -25
    repro run --kernel fir --flow wlo-first --wlo min+1 --timings
    repro run --kernel fir --sim-backend scalar
    repro table1 --out results/
    repro fig4 --kernels fir --targets xentium vex-1
    repro fig6
    repro ablations
    repro sweep --jobs 8
    repro sweep --only fir:vex-1 --jobs 2 --cache-dir .sweep-cache
    repro sweep --flow wlo-slp-lite --wlo max-1
    repro sweep --backend workqueue --jobs 8
    repro sweep --only fir:vex-1 --continuation
    repro sweep --only fir:vex-1 --pareto --grid -5 -10 -15 -20 -25
    repro sweep --format float32 --only fir:vex-1
    repro fig4 --dense
    repro serve --port 8642 --jobs 4
    repro validate --stimuli 4 --sim-seed 7 --sim-backend batch
    repro validate --oracle
    repro codegen --kernel fir --target xentium --constraint -25 --simd

Kernels, targets, flows, WLO engines, simulation and execution
backends and formats are free-form names resolved through their
registries (:mod:`repro.registry`), case-insensitively and stored in
the registries' lowercase spelling; ``repro kernels`` and ``repro
flows`` list them (``--json`` emits the same machine-readable catalog
as the service's ``GET /registries``).

Every sweep-backed command (``sweep``, ``fig4``, ``table1``, ``fig6``,
``ablations``, ``validate``, ``serve``) declares the *same* shared
engine flags through one argparse parent parser: the execution flags
``--jobs``, ``--backend`` (``serial``/``workqueue``), ``--cache-dir``
and ``--no-cache``, and the cell-axis flags ``--sim-backend``,
``--continuation``, ``--pareto`` and ``--format`` (numeric format:
``float32``/``bfloat16``/``binary(E,M)``, from :mod:`repro.formats`).
They materialize into a typed :class:`repro.api.SweepRequest`: the
exact object Python callers pass to :meth:`ExperimentRunner.submit`
and HTTP clients POST to ``repro serve``.  The figure and table
commands forward its :meth:`~repro.api.SweepRequest.cell_axes` by
name.  A command that cannot honor a shared flag exits 1 naming it
(``_UNHONORED_FLAGS``: ``table1`` and ``fig6`` take no ``--format``,
``validate`` none of the execution flags and neither
``--continuation``, ``--pareto`` nor ``--format``, ``ablations`` none
of the four cell-axis flags).  Sweeps are fault-tolerant: failing
cells are reported in a per-cell failure table (and a non-zero exit)
only after every other cell completed and persisted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "SLP-aware word-length optimization for embedded SIMD "
            "processors (DATE 2017 reproduction)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sim_parent = _sim_backend_parent()
    engine_parent = _engine_parent(sim_parent)

    sub.add_parser("targets", help="list available processor models")

    kernels = sub.add_parser("kernels", help="list available benchmark kernels")
    _json_flag(kernels)

    flows = sub.add_parser(
        "flows",
        help="list registered flows (pass pipelines), WLO engines, "
             "simulation backends and execution backends",
    )
    _json_flag(flows)

    run = sub.add_parser(
        "run", parents=[sim_parent], help="run one flow on one kernel"
    )
    _kernel_target_args(run)
    run.add_argument("--constraint", type=float, default=-25.0,
                     help="accuracy constraint in dB (default -25)")
    run.add_argument(
        "--flow", default="wlo-slp", metavar="FLOW",
        help="registered flow name (see `repro flows`; default wlo-slp)",
    )
    run.add_argument(
        "--wlo", default=None, metavar="ENGINE",
        help="WLO engine for flows with a 'wlo' parameter "
             "(see `repro flows`; default: the flow's declared engine)",
    )
    run.add_argument(
        "--timings", action="store_true",
        help="print the per-pass wall-time report after the run",
    )

    fig4 = sub.add_parser(
        "fig4", parents=[engine_parent], help="regenerate paper Fig. 4"
    )
    fig4.add_argument("--kernels", nargs="+", default=["fir", "iir", "conv"])
    fig4.add_argument("--targets", nargs="+",
                      default=["xentium", "st240", "vex-4", "vex-1"])
    fig4.add_argument(
        "--dense", action="store_true",
        help="4x-resolution constraint grid (28 points, 2.5 dB steps); "
             "defaults the WLO to single-search Pareto-front mode so "
             "the whole panel costs one frontier walk",
    )
    _grid_and_out_args(fig4)

    t1 = sub.add_parser(
        "table1", parents=[engine_parent], help="regenerate paper Table I"
    )
    _grid_and_out_args(t1)

    fig6 = sub.add_parser(
        "fig6", parents=[engine_parent], help="regenerate paper Fig. 6"
    )
    _grid_and_out_args(fig6)

    abl = sub.add_parser(
        "ablations", parents=[engine_parent], help="run the ablation studies"
    )
    abl.add_argument("--kernel", default="fir")
    abl.add_argument("--target", default="xentium")
    _grid_and_out_args(abl, with_grid=False)

    sweep = sub.add_parser(
        "sweep", parents=[engine_parent],
        help="run any slice of the (kernel × target × constraint) grid",
    )
    sweep.add_argument("--kernels", nargs="+", default=["fir", "iir", "conv"])
    sweep.add_argument("--targets", nargs="+",
                       default=["xentium", "st240", "vex-4", "vex-1"])
    sweep.add_argument(
        "--only", nargs="+", default=None, metavar="KERNEL:TARGET",
        help="restrict the grid to these kernel:target pairs",
    )
    sweep.add_argument("--wlo", default="tabu", metavar="ENGINE",
                       help="WLO-First engine, from the WLO registry "
                            "(part of the cell key; default tabu)")
    sweep.add_argument("--flow", default="wlo-slp", metavar="FLOW",
                       help="joint flow variant evaluated per cell, from "
                            "the flow registry (part of the cell key; "
                            "default wlo-slp)")
    _grid_and_out_args(sweep)

    serve = sub.add_parser(
        "serve", parents=[engine_parent],
        help="run the sweep engine as a long-lived HTTP job service "
             "(submit SweepRequest payloads, poll outcomes)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port (default 8642; 0 = ephemeral)")
    serve.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )

    val = sub.add_parser(
        "validate", parents=[engine_parent],
        help="tabulate analytical vs bit-accurate measured noise",
    )
    val.add_argument("--kernels", nargs="+", default=["fir", "iir", "conv"])
    val.add_argument(
        "--stimuli", type=int, default=2, metavar="N",
        help="random stimuli per kernel simulation (default 2)",
    )
    val.add_argument(
        "--sim-seed", type=int, default=424242, metavar="SEED",
        help="random seed of the stimulus set (default 424242)",
    )
    val.add_argument(
        "--oracle", action="store_true",
        help="add measured-vs-oracle columns: re-measure the noise "
             "against the arbitrary-precision bigfloat reference and "
             "report the float64 reference's own rounding noise, "
             "flagging kernels whose measurement is rounding-limited",
    )
    _grid_and_out_args(val, with_grid=False)

    gen = sub.add_parser("codegen", help="emit fixed-point C code")
    _kernel_target_args(gen)
    gen.add_argument("--constraint", type=float, default=-25.0)
    gen.add_argument("--simd", action="store_true",
                     help="emit SIMD macro-API C instead of scalar C")
    gen.add_argument("-o", "--output", type=Path, default=None)
    return parser


def _kernel_target_args(parser: argparse.ArgumentParser) -> None:
    # Kernel names are validated through the kernel catalog at dispatch
    # time (`repro kernels` lists them), so unknown names produce the
    # library's error message with the available alternatives.
    parser.add_argument("--kernel", default="fir", metavar="KERNEL",
                        help="benchmark kernel (see `repro kernels`)")
    parser.add_argument("--target", default="xentium")


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the machine-readable registry catalog (the exact "
             "payload of the serve daemon's GET /registries)",
    )


def _sim_backend_parent() -> argparse.ArgumentParser:
    from repro.ir.backend import available_backends

    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--sim-backend", default=None, metavar="BACKEND",
        help="evaluation backend for simulation-based steps "
             f"({'/'.join(available_backends())}; default batch — "
             "bit-identical to scalar, vectorized)",
    )
    return parent


def _engine_parent(
    sim_parent: argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """The shared engine flags, declared exactly once.

    Every sweep-backed subcommand inherits this parent, so the
    execution and cell-axis flags spell, default and document
    identically everywhere, and
    :meth:`repro.api.SweepRequest.from_args` can materialize any of
    those namespaces the same way.
    """
    parent = argparse.ArgumentParser(add_help=False, parents=[sim_parent])
    parent.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for cell evaluation (default 1 = serial)",
    )
    parent.add_argument(
        "--backend", default=None, metavar="BACKEND",
        help="execution backend dispatching the missing cells "
             "(serial/workqueue; default: serial for --jobs 1, "
             "workqueue otherwise — kernel-affine leased workers that "
             "share the disk cache and survive worker deaths)",
    )
    parent.add_argument(
        "--cache-dir", type=Path, default=None,
        help="sweep result cache directory "
             "(default ~/.cache/repro/sweep or $REPRO_CACHE_DIR)",
    )
    parent.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk result cache entirely")
    parent.add_argument(
        "--continuation", action="store_true",
        help="warm-start each cell's WLO from its nearest stricter "
             "neighbor's solution (constraints run strictest-first; "
             "results stay feasible and never cost more than cold)",
    )
    parent.add_argument(
        "--pareto", action="store_true",
        help="single-search Pareto-front WLO: walk each kernel/target's "
             "cost-noise frontier once and project it onto every grid "
             "constraint (joint flows degrade to --continuation)",
    )
    parent.add_argument(
        "--format", default=None, metavar="FORMAT",
        help="numeric format of every cell, from the formats registry "
             "(float32/bfloat16/binary(E,M)/...; see `repro flows`). "
             "Default: the paper's fixed-point quantization; a float "
             "format skips WLO and reports the format's own rounding "
             "noise instead",
    )
    return parent


def _grid_and_out_args(
    parser: argparse.ArgumentParser, with_grid: bool = True
) -> None:
    if with_grid:
        parser.add_argument(
            "--grid", nargs="+", type=float, default=None,
            help="accuracy constraints in dB (default: the paper grid)",
        )
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for CSV/JSON copies of the results")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "targets":
        from repro.targets import available_targets, get_target

        for name in available_targets():
            print(get_target(name).describe())
        return 0

    if args.command == "kernels":
        from repro.api import registry_listing
        from repro.kernels import KERNELS

        if args.as_json:
            print(json.dumps(registry_listing(), indent=2, sort_keys=True))
            return 0
        entries = KERNELS.listing()
        width = max(len(entry["name"]) for entry in entries)
        for entry in entries:
            print(f"{entry['name']:<{width}}  {entry['description']}")
        return 0

    if args.command == "flows":
        return _cmd_flows(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "codegen":
        return _cmd_codegen(args)
    if args.command == "serve":
        return _cmd_serve(args)

    from repro.api import SweepRequest
    from repro.experiments import (
        DENSE_CONSTRAINT_GRID,
        PAPER_CONSTRAINT_GRID,
        ExperimentRunner,
        ablation_wlo_engines,
        ablation_wlo_slp_features,
        fig4_figure,
        fig6_figure,
        table1,
        validation_table,
    )
    from repro.report import ProgressPrinter

    request = SweepRequest.from_args(args).validate()
    _reject_unhonored_flags(args.command, request)
    runner = ExperimentRunner.from_request(request, progress=ProgressPrinter())
    grid = tuple(getattr(args, "grid", None) or PAPER_CONSTRAINT_GRID)
    axes = request.cell_axes()

    if args.command == "sweep":
        return _cmd_sweep(args, request, runner)
    if args.command == "fig4":
        if args.dense:
            if args.grid is None:
                grid = DENSE_CONSTRAINT_GRID
            # A dense panel under per-cell cold WLO would cost 4x the
            # paper grid; the Pareto-front engine walks each panel's
            # frontier once regardless of resolution.  An explicit
            # --continuation still wins.
            axes["continuation"] = axes["continuation"] or "pareto"
        text, table = fig4_figure(
            runner, request.kernels, request.targets, grid, **axes
        )
        print(text)
        _export(args, table, "fig4")
        return 0
    if args.command == "table1":
        table = table1(runner, grid=grid, **axes)
        print(table.render())
        _export(args, table, "table1")
        return 0
    if args.command == "fig6":
        text, table = fig6_figure(runner, grid=grid, **axes)
        print(text)
        _export(args, table, "fig6")
        return 0
    if args.command == "validate":
        from repro.ir.backend import DEFAULT_BACKEND

        table = validation_table(
            runner, request.kernels, n_stimuli=args.stimuli,
            seed=args.sim_seed,
            backend=request.sim_backend or DEFAULT_BACKEND,
            oracle=args.oracle,
        )
        print(table.render())
        _export(args, table, "model_validation")
        return 0
    if args.command == "ablations":
        features = ablation_wlo_slp_features(runner, args.kernel, args.target)
        engines = ablation_wlo_engines(runner, args.kernel, args.target)
        print(features.render())
        print()
        print(engines.render())
        _export(args, features, "ablation_features")
        _export(args, engines, "ablation_engines")
        return 0
    raise ReproError(f"unhandled command {args.command!r}")


#: The shared engine flags (by :class:`~repro.api.SweepRequest` field)
#: each command cannot honor, and why.  A flag given to such a command
#: is an error, never silently dropped.
_UNHONORED_FLAGS: dict[str, tuple[tuple[str, ...], str]] = {
    "table1": (("format",), "tabulates fixed-point WLO results"),
    "fig6": (("format",), "tabulates fixed-point WLO results"),
    "validate": (
        ("jobs", "backend", "cache_dir", "no_cache", "continuation",
         "pareto", "format"),
        "measures uniform fixed-point specs in-process and runs no "
        "sweep cell or WLO search",
    ),
    "ablations": (
        ("sim_backend", "continuation", "pareto", "format"),
        "runs its flow variants outside the sweep cells",
    ),
}


def _reject_unhonored_flags(command: str, request) -> None:
    from repro.api import SweepRequest

    names, reason = _UNHONORED_FLAGS.get(command, ((), ""))
    defaults = SweepRequest()
    for name in names:
        if getattr(request, name) != getattr(defaults, name):
            flag = "--" + name.replace("_", "-")
            raise ReproError(f"{command} does not take {flag}: it {reason}")


def _cmd_flows(args: argparse.Namespace) -> int:
    from repro.api import registry_listing

    listing = registry_listing()
    if args.as_json:
        print(json.dumps(listing, indent=2, sort_keys=True))
        return 0
    width = max(len(flow["name"]) for flow in listing["flows"])
    for flow in listing["flows"]:
        print(f"{flow['name']:<{width}}  {flow['description']}")
        print(f"{'':<{width}}    passes: {' -> '.join(flow['passes'])}")
    print(f"\nWLO engines: {', '.join(listing['wlo_engines'])}")
    print(
        "WLO continuation modes: "
        f"{', '.join(listing['wlo_continuation_modes'])} "
        "(sweep --continuation / --pareto; default: cold)"
    )
    backends = ", ".join(
        f"{b['name']} ({b['description']}"
        + (
            f"; tiers: {', '.join(t['name'] for t in b['tiers'])}"
            if b["tiers"] else ""
        )
        + ")"
        for b in listing["sim_backends"]
    )
    print(f"Simulation backends: {backends}")
    dispatchers = ", ".join(
        f"{b['name']} ({b['description']})"
        for b in listing["execution_backends"]
    )
    print(f"Execution backends: {dispatchers}")
    formats = ", ".join(
        f"{f['name']} ({f['description']})" for f in listing["formats"]
    )
    print(
        f"Formats: {formats}; plus parameterized binary(E,M) "
        "(E exponent / M mantissa bits, e.g. --format 'binary(8,10)')"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace, request, runner) -> int:
    """Run a grid slice through the engine and print the flat table.

    Fault-tolerant: a failing cell (e.g. an infeasible constraint)
    never aborts the sweep — every other cell completes, persists to
    the cache, and prints; the failures get their own per-cell table
    and the exit status is non-zero only after everything completable
    completed.
    """
    from repro.experiments import SweepStats
    from repro.report import TextTable

    report = runner.submit(request)
    order = {req: i for i, req in enumerate(request.plan(runner.config).requests)}
    outcomes = sorted(
        report.outcomes, key=lambda o: order[report.cell_request(o)]
    )
    table = TextTable(
        headers=(
            "kernel", "target", "constraint_db", "wlo", "flow", "format",
            "scalar_cycles", "wlo_first_speedup", "wlo_slp_speedup",
            "float_speedup", "wlo_iters", "warm",
        ),
        title="Sweep — (kernel × target × constraint) cells",
    )
    failures = TextTable(
        headers=("kernel", "target", "constraint_db", "wlo", "flow",
                 "format", "error"),
        title="Failed cells — completed cells above were kept and cached",
    )
    for outcome in outcomes:
        cell_request = report.cell_request(outcome)
        cell = report.cell(outcome)
        if cell is None:
            failures.add_row(
                cell_request.kernel, cell_request.target,
                cell_request.constraint_db, cell_request.wlo,
                cell_request.flow, cell_request.format or "fixed",
                outcome["error"],
            )
            continue
        table.add_row(
            cell.kernel, cell.target, cell.constraint_db, cell_request.wlo,
            cell_request.flow, cell_request.format or "fixed",
            cell.scalar_cycles,
            round(cell.wlo_first_speedup, 3),
            round(cell.wlo_slp_speedup, 3),
            round(cell.float_speedup, 3),
            cell.wlo_iterations,
            "yes" if cell.warm_start else "",
        )
    print(table.render())
    stats = SweepStats(**report.counts)
    if stats.failed:
        print()
        print(failures.render())
    print(f"\n{stats.summary()} in {report.elapsed_s:.1f}s")
    _export(args, table, "sweep")
    return 1 if stats.failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Start the HTTP job service; the engine flags become the
    process-wide request defaults that submitted payloads may
    override per job."""
    from repro.api import SweepRequest
    from repro.serve import SweepService, make_server

    service = SweepService(
        defaults=SweepRequest.from_args(args).validate().to_payload()
    )
    server = make_server(args.host, args.port, service, verbose=args.verbose)
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port}")
    print("  POST /jobs              submit a SweepRequest payload")
    print("  GET  /jobs/<id>/outcomes?since=N   poll results")
    print("  GET  /registries        list flows/engines/backends/"
          "formats/kernels")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api import RunRequest

    request = RunRequest.from_args(args)
    result, state = request.execute()
    print(result.summary())
    # Both result types carry the spec (None for float), and every flow
    # with a search leaves its statistics in the final state.
    spec = result.spec
    if spec is not None:
        print(spec.describe())
    if args.timings:
        print()
        print(state.timing_report())
        stats = state.get("wlo_stats") if state.has("wlo_stats") else None
        if stats is not None:
            from repro.experiments.engine import wlo_stats_numbers

            iterations, evaluations, warm = wlo_stats_numbers(stats)
            print(
                f"WLO search: {iterations} iterations, "
                f"{evaluations} evaluations"
                + (" (warm start)" if warm else "")
            )
        if spec is not None:
            from repro.fixedpoint.widthproof import prove_int64_safe
            from repro.ir.backend import DEFAULT_BACKEND, get_backend
            from repro.kernels import kernel_by_name

            backend = get_backend(request.sim_backend or DEFAULT_BACKEND)
            program = kernel_by_name(request.kernel)
            tier = backend.fixed_tier(program, spec)
            line = f"fixed-point sim tier: {tier}"
            if backend.tiers:
                proof = prove_int64_safe(program, spec)
                line += f" — {proof.describe()}"
            print(line)
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.codegen import emit_fixed_point_c, emit_simd_c
    from repro.kernels import kernel_by_name
    from repro.pipeline import run_flow
    from repro.targets import get_target

    program = kernel_by_name(args.kernel)
    target = get_target(args.target)
    result = run_flow("wlo-slp", program, target, args.constraint)
    assert result.spec is not None and result.groups is not None
    if args.simd:
        source = emit_simd_c(program, result.spec, result.groups)
    else:
        source = emit_fixed_point_c(program, result.spec)
    if args.output is not None:
        args.output.write_text(source)
        print(f"wrote {args.output}")
    else:
        print(source)
    return 0


def _export(args: argparse.Namespace, table, stem: str) -> None:
    out = getattr(args, "out", None)
    if out is None:
        return
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / f"{stem}.csv")
    table.to_json(out / f"{stem}.json")
    print(f"\n[wrote {out}/{stem}.csv and .json]")


if __name__ == "__main__":
    sys.exit(main())
