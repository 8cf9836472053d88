"""Micro-benchmarks of the substrates.

These time the hot primitives the flows are built on — useful both as
regression guards and to show where the engineering effort went (the
vectorized ``EVALACC`` is the load-bearing one: Fig. 1c's conflict
detection calls it O(candidates^2) times).
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.accuracy import extract_gains
from repro.experiments.engine import KernelConfig, kernel_programs
from repro.fixedpoint import (
    FixedPointInterpreter,
    SlotMap,
    analyze_ranges,
    simulation_ranges,
)
from repro.ir import Interpreter, build_dependence_graph, get_backend
from repro.codegen import lower_scalar_program, lower_simd_program
from repro.scheduler import schedule_block
from repro.slp import extract_candidates, initial_items
from repro.targets import get_target
from repro.wlo import tabu_wlo


def test_evalacc_speed(runner, benchmark):
    """Analytical noise evaluation (the paper's EVALACC)."""
    context = runner.context("fir")
    spec = context.fresh_spec()
    power = benchmark(context.model.noise_power, spec)
    assert power > 0.0


def test_float_interpreter_speed(runner, benchmark):
    """Reference interpreter throughput on the FIR analysis twin."""
    context = runner.context("fir")
    program = context.analysis_program
    rng = np.random.default_rng(0)
    inputs = {
        decl.name: rng.uniform(*decl.value_range, size=decl.shape)
        for decl in program.input_arrays()
    }
    interpreter = Interpreter(program)
    outputs = benchmark(interpreter.run, inputs)
    assert "y" in outputs


def test_fxp_interpreter_speed(runner, benchmark):
    """Bit-accurate fixed-point interpreter throughput."""
    context = runner.context("fir")
    program = context.analysis_program
    spec = context.fresh_spec()
    rng = np.random.default_rng(0)
    inputs = {
        decl.name: rng.uniform(*decl.value_range, size=decl.shape)
        for decl in program.input_arrays()
    }
    interpreter = FixedPointInterpreter(program, spec)
    outputs = benchmark(interpreter.run, inputs)
    assert "y" in outputs


def test_bench_sim_backend_throughput(runner, results_dir):
    """Scalar vs batch simulation throughput (recorded per PR).

    Runs the FIR analysis twin — the program every simulation-backed
    validation executes — over one stimulus set through both backends,
    float and fixed point.  The acceptance bar: the batch backend is
    bit-identical and at least 5x faster on both executions.

    Deliberately free of the pytest-benchmark fixture so CI can
    smoke-run it with a bare pytest install.
    """
    from conftest import record_bench

    context = runner.context("fir")
    program = context.analysis_program
    spec = context.fresh_spec()
    rng = np.random.default_rng(0)
    stimuli = [
        {
            decl.name: rng.uniform(*decl.value_range, size=decl.shape)
            for decl in program.input_arrays()
        }
        for _ in range(8)
    ]
    scalar = get_backend("scalar")
    batch = get_backend("batch")
    batch.run_float(program, stimuli[:1])  # warm the vectorization plan

    started = time.perf_counter()
    scalar_float = scalar.run_float(program, stimuli)
    scalar_float_seconds = time.perf_counter() - started
    started = time.perf_counter()
    scalar_fixed = scalar.run_fixed(program, spec, stimuli)
    scalar_fixed_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batch_float = batch.run_float(program, stimuli)
    batch_float_seconds = time.perf_counter() - started
    started = time.perf_counter()
    batch_fixed = batch.run_fixed(program, spec, stimuli)
    batch_fixed_seconds = time.perf_counter() - started

    # Bar 1: not a single bit may differ.
    for ref, got in zip(scalar_float + scalar_fixed,
                        batch_float + batch_fixed):
        for name in ref:
            assert np.array_equal(ref[name], got[name])

    float_speedup = scalar_float_seconds / batch_float_seconds
    fixed_speedup = scalar_fixed_seconds / batch_fixed_seconds
    record_bench("sim_backend_micro", {
        "kernel": "fir",
        "n_samples": program.arrays["y"].shape[0],
        "n_stimuli": len(stimuli),
        "python": platform.python_version(),
        "scalar_float_seconds": round(scalar_float_seconds, 4),
        "batch_float_seconds": round(batch_float_seconds, 4),
        "scalar_fixed_seconds": round(scalar_fixed_seconds, 4),
        "batch_fixed_seconds": round(batch_fixed_seconds, 4),
        "float_speedup": round(float_speedup, 1),
        "fixed_speedup": round(fixed_speedup, 1),
    })
    # Bar 2: the batch backend must pay for itself — >= 5x on both.
    assert float_speedup >= 5.0
    assert fixed_speedup >= 5.0


def test_bench_fxp_native_micro(runner, results_dir):
    """Native int64 tier vs object tier (recorded per PR).

    Same batch interpreter, same vector plan, same stimuli — the only
    difference is the lane dtype the width proof licenses.  The
    acceptance bar: the proof engages on the FIR analysis twin, the
    int64 tier is bit-identical to the object tier, and it is at
    least 3x faster.

    Deliberately free of the pytest-benchmark fixture so CI can
    smoke-run it with a bare pytest install.
    """
    from conftest import record_bench

    context = runner.context("fir")
    program = context.program  # paper-sized, so lane work dominates
    spec = context.fresh_spec()
    rng = np.random.default_rng(0)
    stimuli = [
        {
            decl.name: rng.uniform(*decl.value_range, size=decl.shape)
            for decl in program.input_arrays()
        }
        for _ in range(8)
    ]
    batch = get_backend("batch")
    assert batch.fixed_tier(program, spec) == "batch[int64]"
    batch.run_fixed(program, spec, stimuli[:1])  # warm the plan caches

    started = time.perf_counter()
    native = batch.run_fixed(program, spec, stimuli)
    native_seconds = time.perf_counter() - started
    started = time.perf_counter()
    exact = batch.run_fixed(program, spec, stimuli, force_object=True)
    object_seconds = time.perf_counter() - started

    # Bar 1: the tiers are indistinguishable — not a single bit.
    for ref, got in zip(exact, native):
        for name in ref:
            assert np.array_equal(ref[name], got[name])

    speedup = object_seconds / native_seconds
    record_bench("fxp_native_micro", {
        "kernel": "fir",
        "n_samples": program.arrays["y"].shape[0],
        "n_stimuli": len(stimuli),
        "python": platform.python_version(),
        "tier": batch.fixed_tier(program, spec),
        "object_seconds": round(object_seconds, 4),
        "native_seconds": round(native_seconds, 4),
        "native_speedup": round(speedup, 1),
    })
    # Bar 2: the proof must pay for itself — >= 3x over object lanes.
    assert speedup >= 3.0


#: Timed rounds per function and paper twin; each reads its median.
ANALYSIS_PREFIX_ROUNDS = 5
#: Bound on the traced reference's seconds over ``extract_gains``'s,
#: summed over the paper twins.  Both run in this test, so machine
#: speed cancels; it read 3.2-3.5 when the graph replaced the trace.
ANALYSIS_PREFIX_MIN_RATIO = 2.5
#: Bound on the batch probe's seconds (joined per observation) over
#: ``simulation_ranges``'s on the iir twin.  It reads about 11 on a
#: 2-core VM (0.06 s against 0.71 s); walking the copies in the graph
#: loop instead of resolving them once per call read about 4.5.
SIMULATION_RANGES_MIN_RATIO = 5.0


def _reference(name: str):
    """A reference module of ``tests/`` that the tests hold a fast
    path to."""
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.append(tests)
    return importlib.import_module(name)


def test_bench_analysis_prefix(results_dir):
    """Gain extraction and range analysis on the paper twins.

    ``extract_gains`` builds the instance graph with numpy and walks it
    over flat buffers; the baseline is the algorithm it replaced, the
    tracing interpreter plus one numpy walk per reference output (the
    tests hold every gain to that reference).  The bar: the summed
    median seconds of the baseline are at least
    ``ANALYSIS_PREFIX_MIN_RATIO`` times those of ``extract_gains``.

    The iir twin's simulation ranges (its interval analysis diverges)
    come from the same graph; their baseline is the batched executor's
    range probe, joined per observation as the tests'
    ``range_reference`` does.  The bars: equal ranges to the bit, and
    the baseline's median seconds at least
    ``SIMULATION_RANGES_MIN_RATIO`` times those of ``simulation_ranges``.

    Deliberately free of the pytest-benchmark fixture so CI can
    smoke-run it with a bare pytest install.
    """
    from conftest import record_bench

    reference = _reference("gain_reference")
    config = KernelConfig()
    kernels: dict[str, dict] = {}
    for kernel in config.kernel_names:
        twin = kernel_programs(config, kernel)[1]
        slotmap = SlotMap(twin)
        seconds: dict[str, list[float]] = {"traced": [], "gains": [], "ranges": []}
        runs = {
            "traced": lambda: reference.traced_adjoints(twin),
            "gains": lambda: extract_gains(twin, slotmap),
            "ranges": lambda: analyze_ranges(twin, slotmap),
        }
        for _ in range(ANALYSIS_PREFIX_ROUNDS):
            for name, run in runs.items():
                started = time.perf_counter()
                run()
                seconds[name].append(time.perf_counter() - started)
        medians = {name: statistics.median(s) for name, s in seconds.items()}
        kernels[kernel] = {
            "traced_gains_s": round(medians["traced"], 4),
            "gains_s": round(medians["gains"], 4),
            "ranges_s": round(medians["ranges"], 4),
        }

    ranges_reference = _reference("range_reference")
    twin = kernel_programs(config, "iir")[1]
    slotmap = SlotMap(twin)
    seconds = {"probe": [], "graph": []}
    for _ in range(ANALYSIS_PREFIX_ROUNDS):
        started = time.perf_counter()
        probed = ranges_reference.join_per_observation(twin, slotmap, "batch")
        seconds["probe"].append(time.perf_counter() - started)
        started = time.perf_counter()
        graphed = simulation_ranges(twin, slotmap, backend="batch").ranges
        seconds["graph"].append(time.perf_counter() - started)
    probe_s, graph_s = (statistics.median(seconds[n]) for n in ("probe", "graph"))

    traced = sum(k["traced_gains_s"] for k in kernels.values())
    graph = sum(k["gains_s"] for k in kernels.values())
    ratio = traced / graph
    record_bench("analysis_prefix", {
        "python": platform.python_version(),
        "rounds": ANALYSIS_PREFIX_ROUNDS,
        "kernels": kernels,
        "traced_gains_s": round(traced, 4),
        "gains_s": round(graph, 4),
        "ranges_s": round(sum(k["ranges_s"] for k in kernels.values()), 4),
        "ratio": round(ratio, 2),
        "min_ratio": ANALYSIS_PREFIX_MIN_RATIO,
        "iir_probe_ranges_s": round(probe_s, 4),
        "iir_simulation_ranges_s": round(graph_s, 4),
        "simulation_ranges_ratio": round(probe_s / graph_s, 2),
        "simulation_ranges_min_ratio": SIMULATION_RANGES_MIN_RATIO,
    })
    # The bars: no per-instance trace, and it shows; and the graph's
    # ranges are the probe's, faster.
    assert ratio >= ANALYSIS_PREFIX_MIN_RATIO
    assert ranges_reference.range_bits(graphed) == ranges_reference.range_bits(probed)
    assert probe_s / graph_s >= SIMULATION_RANGES_MIN_RATIO


#: Timed rounds per run of the format-noise bench; each reads its median.
FORMAT_NOISE_ROUNDS = 5
#: Bounds on the lane executors' median seconds over the backends' on
#: the iir twin, whose float runs take the instance graph.  Both run in
#: this test, so machine speed cancels.  They read 5.0-5.5 on the
#: float32 run and 2.7-3.1 on the oracle when the graph took these runs
#: over (3.7 on the float32 run with the integer-ratio rounder in both
#: paths).
FORMAT_NOISE_MIN_RATIOS = {"float32": 2.5, "oracle": 1.5}


def test_bench_format_noise(results_dir):
    """A float32 cell's noise measurement on each paper twin.

    The oracle references (``BigFloatBackend.run_float``) and the
    float32 run (``FormatAccuracyEvaluator.measured_outputs``) are
    timed through the backends, which take the instance graph for a
    program without lane loops (iir), and through the lane executors
    called directly, in interleaved rounds.  The bars: equal output
    bytes and equal noise (``float.hex``) on every twin, and on the iir
    twin the lanes' median seconds at least ``FORMAT_NOISE_MIN_RATIOS``
    times the backends'.  fir and conv keep their lanes, so their
    ratios read about 1 and are recorded unguarded.
    """
    from conftest import record_bench

    from repro.accuracy import FormatAccuracyEvaluator
    from repro.accuracy.metrics import measured_noise_power
    from repro.ir.batch import FormatBatchInterpreter, OracleBatchInterpreter
    from repro.ir.vectorize import vector_plan

    config = KernelConfig()
    kernels: dict[str, dict] = {}
    for kernel in config.kernel_names:
        twin = kernel_programs(config, kernel)[1]
        evaluator = FormatAccuracyEvaluator(
            twin, "float32", n_stimuli=2, discard=64 if kernel == "iir" else 0,
        )
        stimuli = evaluator.stimuli
        runs = {
            "oracle": lambda: get_backend("bigfloat").run_float(twin, stimuli),
            "oracle_lanes": lambda: OracleBatchInterpreter(twin).run(stimuli),
            "float32": evaluator.measured_outputs,
            "float32_lanes": lambda: FormatBatchInterpreter(
                twin, evaluator.format
            ).run(stimuli),
        }
        seconds: dict[str, list[float]] = {name: [] for name in runs}
        outputs = {}
        for _ in range(FORMAT_NOISE_ROUNDS):
            for name, run in runs.items():
                started = time.perf_counter()
                outputs[name] = run()
                seconds[name].append(time.perf_counter() - started)
        for name in ("oracle", "float32"):
            for got, lanes in zip(outputs[name], outputs[name + "_lanes"]):
                assert got.keys() == lanes.keys()
                for array in lanes:
                    assert got[array].tobytes() == lanes[array].tobytes()
        lanes_noise = sum(
            measured_noise_power(reference, measured, evaluator.discard)
            for reference, measured in zip(
                outputs["oracle_lanes"], outputs["float32_lanes"]
            )
        ) / len(stimuli)
        noise = evaluator.noise_power()
        assert noise.hex() == lanes_noise.hex()

        medians = {name: statistics.median(s) for name, s in seconds.items()}
        kernels[kernel] = {
            "path": "lanes" if vector_plan(twin).loops else "graph",
            "noise_power": noise.hex(),
            **{f"{name}_s": round(medians[name], 4) for name in runs},
            **{
                f"{name}_ratio": round(medians[name + "_lanes"] / medians[name], 2)
                for name in FORMAT_NOISE_MIN_RATIOS
            },
        }

    record_bench("format_noise", {
        "python": platform.python_version(),
        "rounds": FORMAT_NOISE_ROUNDS,
        "kernels": kernels,
        "min_ratios": FORMAT_NOISE_MIN_RATIOS,
    })
    # The bars: iir's format simulations run flat, and it shows.
    iir = kernels["iir"]
    assert iir["path"] == "graph"
    for name, bound in FORMAT_NOISE_MIN_RATIOS.items():
        assert iir[f"{name}_ratio"] >= bound, (name, iir)


#: Timed rounds per path of the joint-round bench; each reads its median.
JOINT_ROUND_ROUNDS = 5
#: Bound on the per-question reference's seconds over the trial tables'
#: on the conv panel.  Both run in this test, so machine speed cancels;
#: it read 3.1-3.7 when the tables replaced the trial memo.
JOINT_ROUND_MIN_RATIO = 2.5


def test_bench_joint_round(results_dir):
    """The conv panel's 14 joint searches (the 7 paper constraints on
    both datapaths) through trial tables and through the per-question
    reference round, every run with cold memos.

    The tables evaluate each distinct round once, as one batched
    closed form, and decide every visit from it; the reference asks
    each validity and pair check as its own trial, answered from a
    question-keyed memo (99,197 questions on this panel).  Both must
    reach the same spec states and outcomes.  The bar: the reference's
    median seconds are at least ``JOINT_ROUND_MIN_RATIO`` times the
    tables'.
    """
    from conftest import record_bench

    from repro.accuracy import AccuracyModel
    from repro.experiments.engine import PAPER_CONSTRAINT_GRID, build_context
    from repro.wlo import wlo_slp_optimize

    reference = _reference("slp_round_reference")
    context = build_context(KernelConfig(), "conv")
    program = context.program
    datapaths = [get_target(t).word_lengths for t in ("xentium", "vex-4")]

    def panel():
        # Cold memos: a fresh model, and the program's SLP index
        # dropped (``block_memo`` keeps it on the program object).
        program.__dict__.pop("_block_memos", None)
        model = AccuracyModel(program, context.slotmap, context.model.gains)
        outcomes = []
        started = time.perf_counter()
        for word_lengths in datapaths:
            for constraint in PAPER_CONSTRAINT_GRID:
                spec = context.fresh_spec(max_wl=word_lengths.max_wl)
                outcome = wlo_slp_optimize(
                    program, spec, model, word_lengths, constraint
                )
                outcomes.append((spec.state_key(), outcome.n_groups,
                                 outcome.selection))
        return time.perf_counter() - started, outcomes, model

    seconds: dict[str, list[float]] = {"tables": [], "reference": []}
    for _ in range(JOINT_ROUND_ROUNDS):
        elapsed, outcomes, model = panel()
        seconds["tables"].append(elapsed)
        memo = reference.TrialMemo()
        with memo.installed():
            elapsed, expected, _ = panel()
        seconds["reference"].append(elapsed)
        assert outcomes == expected
    medians = {name: statistics.median(s) for name, s in seconds.items()}
    ratio = medians["reference"] / medians["tables"]
    record_bench("joint_round", {
        "kernel": "conv",
        "searches": len(outcomes),
        "python": platform.python_version(),
        "rounds": JOINT_ROUND_ROUNDS,
        "tables_s": round(medians["tables"], 4),
        "reference_s": round(medians["reference"], 4),
        "ratio": round(ratio, 2),
        "min_ratio": JOINT_ROUND_MIN_RATIO,
        "table_builds": model.table_builds,
        "table_visits": model.table_visits,
        "table_rows": model.table_rows,
        "table_rechecks": model.table_rechecks,
        "reference_questions": memo.questions,
        "reference_hits": memo.hits,
    })
    # The bar: a round is evaluated once, not a question at a time.
    assert ratio >= JOINT_ROUND_MIN_RATIO


#: What a ``repro`` process loads before it computes anything: the CLI,
#: the Python API and the 84-cell paper sweep plan.  Prints the
#: modules that must not load, the module count and the peak RSS.
COLD_START_PROBE = """
import json, resource, sys
import repro.cli, repro.api
plan = repro.api.SweepRequest().validate().plan()
assert len(plan.requests) == 84, len(plan.requests)
heavy = sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
    or name == "numpy.f2py" or name.startswith("numpy.f2py.")
)
print(json.dumps({
    "heavy_modules": heavy,
    "modules_loaded": len(sys.modules),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""
#: The floor every ``repro`` process pays: the interpreter and numpy.
NUMPY_PROBE = "import numpy"
COLD_START_PAIRS = 5
#: Spawn-time bound of the probe over a bare numpy import.  Both run
#: in this test, so machine speed cancels; with scipy.signal and
#: networkx on every start the ratio read about 11.5.
COLD_START_MAX_RATIO = 5.0


def test_bench_cold_start(results_dir):
    """Spawn cost of a ``repro`` process against ``import numpy``.

    Alternates the two spawns for ``COLD_START_PAIRS`` pairs.  The bars:
    no scipy, networkx or ``numpy.f2py`` module loads, and the probe
    spawns in at most ``COLD_START_MAX_RATIO`` times the median of a
    bare numpy import.

    Deliberately free of the pytest-benchmark fixture so CI can
    smoke-run it with a bare pytest install.
    """
    from conftest import record_bench

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )

    def spawn(code: str) -> tuple[float, str]:
        started = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        seconds = time.perf_counter() - started
        assert result.returncode == 0, result.stderr
        return seconds, result.stdout

    numpy_seconds, probe_seconds, reports = [], [], []
    for _ in range(COLD_START_PAIRS):
        numpy_seconds.append(spawn(NUMPY_PROBE)[0])
        seconds, out = spawn(COLD_START_PROBE)
        probe_seconds.append(seconds)
        reports.append(json.loads(out))

    numpy_median = statistics.median(numpy_seconds)
    probe_median = statistics.median(probe_seconds)
    ratio = probe_median / numpy_median
    heavy = sorted({name for report in reports for name in report["heavy_modules"]})
    record_bench("cold_start", {
        "python": platform.python_version(),
        "pairs": COLD_START_PAIRS,
        "numpy_import_median_s": round(numpy_median, 3),
        "import_and_plan_median_s": round(probe_median, 3),
        "ratio": round(ratio, 2),
        "max_ratio": COLD_START_MAX_RATIO,
        "peak_rss_mb": round(max(r["peak_rss_mb"] for r in reports), 1),
        "modules_loaded": reports[-1]["modules_loaded"],
        "heavy_modules": heavy,
    })
    # Bar 1: nothing a repro process loads imports the test oracles.
    assert heavy == []
    # Bar 2: start-up stays within a few bare numpy imports.
    assert ratio <= COLD_START_MAX_RATIO


def test_scheduler_speed(runner, benchmark):
    """List scheduling of the scalar FIR body."""
    context = runner.context("fir")
    target = get_target("xentium")
    lowered = lower_scalar_program(context.program, context.fresh_spec(), target)
    schedule = benchmark(schedule_block, lowered["body"], target)
    assert schedule.length > 0


def test_candidate_extraction_speed(runner, benchmark):
    """Structural SLP candidate enumeration on the CONV body."""
    context = runner.context("conv")
    block = context.program.blocks["body"]
    deps = build_dependence_graph(block)
    items = initial_items(block)
    target = get_target("vex-4")
    candidates = benchmark(
        extract_candidates, context.program, items, deps, target
    )
    assert len(candidates) > 10


@pytest.mark.parametrize("target_name", ["xentium", "vex-4"])
def test_tabu_wlo_speed(runner, benchmark, target_name):
    """Full Tabu WLO run (the WLO-First engine)."""
    context = runner.context("fir")
    target = get_target(target_name)

    def run():
        spec = context.fresh_spec(max_wl=target.max_wl)
        return tabu_wlo(
            context.program, spec, context.model, target, -35.0
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.best_cost > 0


def test_simd_lowering_speed(runner, benchmark):
    """SIMD lowering of an optimized FIR (pack/shift insertion)."""
    from repro.pipeline import run_flow

    context = runner.context("fir")
    target = get_target("vex-4")
    flow = run_flow(
        "wlo-slp", context.program, target, -25.0,
        analysis_program=context.analysis_program,
    )
    lowered = benchmark(
        lower_simd_program, context.program, flow.spec, target, flow.groups
    )
    assert "body" in lowered
