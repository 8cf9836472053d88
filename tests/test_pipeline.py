"""Pass-pipeline architecture tests.

The load-bearing contract: every paper flow run as a declared pipeline
is **bit-identical** to its hand-wired reference function
(``flow_reference.py``) — same spec, same cycles, same noise, same
groups — across a kernel × target × constraint smoke grid.  Plus the
registry error paths and the per-pass cache reuse guarantees the sweep
engine builds on.
"""

from __future__ import annotations

import numpy as np
import pytest

from flow_reference import (
    reference_context,
    run_float,
    run_wlo_first,
    run_wlo_slp,
)
from repro.errors import FlowError, WLOError
from repro.pipeline import (
    ANALYSIS_PASS_NAMES,
    FlowSpec,
    FlowState,
    NoiseReportPass,
    Pass,
    PassCache,
    Pipeline,
    available_flows,
    content_fingerprint,
    declare_joint_flow,
    execute_flow,
    get_flow,
    register_flow,
    run_flow,
)
from repro.targets import get_target
from repro.wlo.registry import (
    available_wlo_engines,
    get_wlo_engine,
    register_wlo_engine,
)


def _group_shape(groups):
    """Comparable structure of a per-block group dict."""
    if groups is None:
        return None
    return {
        name: [(g.kind, tuple(g.lanes), g.wl, g.size) for g in group_set]
        for name, group_set in groups.items()
    }


def _assert_specs_identical(a, b):
    assert np.array_equal(a.wl_vector(), b.wl_vector())
    assert np.array_equal(a.iwl_vector(), b.iwl_vector())
    assert np.array_equal(a.edge_wl_matrix(), b.edge_wl_matrix())


# ----------------------------------------------------------------------
# Golden parity: pipeline flows vs the hand-wired reference flows.

@pytest.fixture(scope="module")
def fir_reference(small_fir):
    """The small FIR's analysis prefix built by hand, outside the pass
    cache: the reference flows' own context."""
    return reference_context(small_fir)


class TestLegacyParity:
    """Pipeline declarations must reproduce the hand-wired reference
    flows bit-for-bit on a kernel × target × constraint smoke grid."""

    @pytest.mark.parametrize("target_name,constraint", [
        ("xentium", -15.0), ("xentium", -45.0), ("vex-1", -25.0),
    ])
    def test_wlo_slp_fir(
        self, fir_context, fir_reference, target_name, constraint
    ):
        target = get_target(target_name)
        legacy = run_wlo_slp(
            fir_context.program, target, constraint, fir_reference
        )
        piped = run_flow(
            "wlo-slp", fir_context.program, target, constraint
        )
        assert piped.flow == legacy.flow == "wlo-slp"
        assert piped.total_cycles == legacy.total_cycles
        assert piped.noise_db == legacy.noise_db
        assert _group_shape(piped.groups) == _group_shape(legacy.groups)
        _assert_specs_identical(piped.spec, legacy.spec)

    def test_wlo_slp_iir(self, iir_context):
        target = get_target("st240")
        legacy = run_wlo_slp(iir_context.program, target, -30.0)
        piped = run_flow("wlo-slp", iir_context.program, target, -30.0)
        assert piped.total_cycles == legacy.total_cycles
        assert piped.noise_db == legacy.noise_db
        assert _group_shape(piped.groups) == _group_shape(legacy.groups)
        _assert_specs_identical(piped.spec, legacy.spec)

    @pytest.mark.parametrize("engine", ["tabu", "max-1", "min+1"])
    def test_wlo_first_engines(self, fir_context, fir_reference, engine):
        target = get_target("xentium")
        legacy = run_wlo_first(
            fir_context.program, target, -25.0, fir_reference, wlo=engine
        )
        piped = run_flow(
            "wlo-first", fir_context.program, target, -25.0, wlo=engine
        )
        assert piped.scalar.flow == legacy.scalar.flow
        assert piped.simd.flow == legacy.simd.flow
        assert piped.scalar.total_cycles == legacy.scalar.total_cycles
        assert piped.simd.total_cycles == legacy.simd.total_cycles
        assert piped.scalar.noise_db == legacy.scalar.noise_db
        assert _group_shape(piped.simd.groups) == _group_shape(
            legacy.simd.groups
        )
        _assert_specs_identical(piped.spec, legacy.spec)

    @pytest.mark.parametrize("target_name", ["xentium", "st240", "vex-1"])
    def test_float(self, fir_context, target_name):
        target = get_target(target_name)
        legacy = run_float(fir_context.program, target)
        piped = run_flow("float", fir_context.program, target)
        assert piped.flow == legacy.flow == "float"
        assert piped.total_cycles == legacy.total_cycles
        assert piped.spec is None and piped.noise_db is None

    def test_twin_context_parity(self):
        """Pipelines honour the analysis-twin trick like the reference
        context (same decisions from a reduced-trip-count twin)."""
        from repro.kernels import fir

        program = fir(n_samples=96, n_taps=16)
        twin = fir(n_samples=48, n_taps=16)
        target = get_target("xentium")
        ctx = reference_context(program, twin)
        legacy = run_wlo_slp(program, target, -30.0, ctx)
        piped = run_flow(
            "wlo-slp", program, target, -30.0, analysis_program=twin
        )
        assert piped.total_cycles == legacy.total_cycles
        assert piped.noise_db == legacy.noise_db
        _assert_specs_identical(piped.spec, legacy.spec)


# ----------------------------------------------------------------------
# New flow variants.

class TestFlowVariants:
    def test_variants_registered(self):
        names = available_flows()
        assert {"float", "wlo-first", "wlo-slp"} <= set(names)
        assert {"wlo-first-greedy", "wlo-slp-lite"} <= set(names)

    def test_greedy_variant_equals_parameterized_baseline(self, fir_context):
        target = get_target("xentium")
        variant = run_flow(
            "wlo-first-greedy", fir_context.program, target, -25.0
        )
        explicit = run_flow(
            "wlo-first", fir_context.program, target, -25.0, wlo="max-1"
        )
        assert variant.simd.total_cycles == explicit.simd.total_cycles
        assert variant.simd.flow == "wlo-first-greedy/max-1/simd"

    def test_lite_variant_equals_ablation_kwargs(
        self, fir_context, fir_reference
    ):
        target = get_target("xentium")
        variant = run_flow("wlo-slp-lite", fir_context.program, target, -25.0)
        legacy = run_wlo_slp(
            fir_context.program, target, -25.0, fir_reference,
            harmonize=False, scaloptim=False,
        )
        assert variant.total_cycles == legacy.total_cycles
        assert variant.noise_db == legacy.noise_db
        _assert_specs_identical(variant.spec, legacy.spec)

    def test_custom_declaration_is_one_line(self, fir_context):
        declare_joint_flow(
            "test-no-conflicts", "test variant", accuracy_conflicts=False,
            overwrite=True,
        )
        result = run_flow(
            "test-no-conflicts", fir_context.program, get_target("xentium"),
            -25.0,
        )
        assert result.flow == "test-no-conflicts"
        assert result.total_cycles > 0


# ----------------------------------------------------------------------
# Registry error paths.

class TestFlowRegistry:
    def test_unknown_flow_lists_available(self):
        with pytest.raises(FlowError, match="unknown flow 'warp'"):
            get_flow("warp")
        with pytest.raises(FlowError, match="wlo-slp"):
            get_flow("warp")

    def test_duplicate_registration_rejected(self):
        spec = get_flow("wlo-slp")
        with pytest.raises(FlowError, match="already registered"):
            register_flow(spec)
        register_flow(spec, overwrite=True)  # explicit replace is fine

    def test_unknown_override_rejected(self, small_fir):
        with pytest.raises(FlowError, match="no parameter"):
            run_flow(
                "wlo-slp", small_fir, get_target("xentium"), -25.0,
                engine="tabu",
            )

    def test_missing_constraint_rejected(self, small_fir):
        with pytest.raises(FlowError, match="requires an accuracy constraint"):
            run_flow("wlo-slp", small_fir, get_target("xentium"))

    def test_case_insensitive_lookup(self):
        assert get_flow("WLO-SLP") is get_flow("wlo-slp")


class TestWloRegistry:
    def test_unknown_engine_lists_available(self):
        with pytest.raises(WLOError, match="unknown WLO engine 'quantum'"):
            get_wlo_engine("quantum")
        with pytest.raises(WLOError, match="tabu"):
            get_wlo_engine("quantum")

    def test_builtins_present(self):
        assert {"tabu", "max-1", "min+1"} <= set(available_wlo_engines())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(WLOError, match="already registered"):
            register_wlo_engine("tabu", get_wlo_engine("tabu"))

    def test_custom_engine_runs_through_flows(self, fir_context):
        register_wlo_engine(
            "test-greedy", get_wlo_engine("max-1"), overwrite=True
        )
        target = get_target("xentium")
        via_alias = run_flow(
            "wlo-first", fir_context.program, target, -25.0,
            wlo="test-greedy",
        )
        direct = run_flow(
            "wlo-first", fir_context.program, target, -25.0, wlo="max-1"
        )
        assert via_alias.simd.total_cycles == direct.simd.total_cycles


# ----------------------------------------------------------------------
# Pipeline mechanics: validation, state, fingerprints.

class TestPipelineMechanics:
    def test_misordered_pass_list_rejected(self):
        with pytest.raises(FlowError, match="no earlier pass writes"):
            Pipeline((NoiseReportPass(),))

    def test_pass_must_write_declared_artifacts(self, small_fir):
        class Liar(Pass):
            name = "liar"
            reads = ("program",)
            writes = ("something",)

            def run(self, state):
                return {"other": 1}

        state = FlowState.seed(small_fir, get_target("xentium"))
        with pytest.raises(FlowError, match="declared"):
            Pipeline((Liar(),)).run(state, cache=PassCache())

    def test_missing_artifact_error_names_available(self, small_fir):
        state = FlowState.seed(small_fir, get_target("xentium"))
        with pytest.raises(FlowError, match="no artifact 'spec'"):
            state.get("spec")

    def test_program_fingerprints_differ_by_content(self):
        from repro.kernels import fir

        base = content_fingerprint(fir(n_samples=64, n_taps=16))
        longer = content_fingerprint(fir(n_samples=128, n_taps=16))
        assert base != longer
        assert base == content_fingerprint(fir(n_samples=64, n_taps=16))

    def test_fingerprint_covers_coefficient_payloads(self):
        from repro.kernels import fir

        taps = 16
        coeffs = np.linspace(-0.4, 0.4, taps)
        a = content_fingerprint(fir(n_samples=64, n_taps=taps))
        b = content_fingerprint(
            fir(n_samples=64, n_taps=taps, coefficients=coeffs)
        )
        assert a != b

    def test_no_fingerprint_for_derived_types(self):
        with pytest.raises(TypeError, match="derived artifacts"):
            content_fingerprint(object())

    def test_constraint_free_flow_rejects_constraint_readers(self):
        from repro.pipeline import LowerFloatPass, SchedulePass, WloPass

        with pytest.raises(FlowError, match="constraint_db"):
            Pipeline(
                (LowerFloatPass(), SchedulePass("float_lowered"), WloPass()),
                has_constraint=False,
            )
        # The same list is fine when a constraint seed will exist…
        # (order check only; WloPass also needs spec/model upstream)
        with pytest.raises(FlowError, match="spec"):
            Pipeline(
                (LowerFloatPass(), SchedulePass("float_lowered"), WloPass()),
                has_constraint=True,
            )

    def test_engine_name_case_insensitive(self, small_fir):
        target = get_target("xentium")
        lower = run_flow(
            "wlo-first", small_fir, target, -25.0, wlo="tabu",
            cache=PassCache(),
        )
        upper = run_flow(
            "wlo-first", small_fir, target, -25.0, wlo="Tabu",
            cache=PassCache(),
        )
        for a, b in ((lower.scalar, upper.scalar), (lower.simd, upper.simd)):
            assert a.total_cycles == b.total_cycles
            assert a.noise_db == b.noise_db
            assert _group_shape(a.groups) == _group_shape(b.groups)
            assert a.extra["wlo_stats"] == b.extra["wlo_stats"]
        _assert_specs_identical(lower.spec, upper.spec)


# ----------------------------------------------------------------------
# Per-pass caching: the sweep-speed contract.

class TestPassCache:
    def test_second_constraint_skips_all_analysis_passes(self, small_fir):
        cache = PassCache()
        target = get_target("xentium")
        run_flow("wlo-slp", small_fir, target, -15.0, cache=cache)
        for name in ANALYSIS_PASS_NAMES:
            assert cache.executions(name) == 1
        run_flow("wlo-slp", small_fir, target, -45.0, cache=cache)
        for name in ANALYSIS_PASS_NAMES:
            assert cache.executions(name) == 1  # zero re-executions
            assert cache.hits[name] == 1

    def test_analysis_prefix_shared_across_flows(self, small_fir):
        cache = PassCache()
        target = get_target("xentium")
        run_flow("wlo-first", small_fir, target, -25.0, cache=cache)
        run_flow("wlo-slp", small_fir, target, -25.0, cache=cache)
        run_flow("wlo-slp-lite", small_fir, target, -25.0, cache=cache)
        for name in ANALYSIS_PASS_NAMES:
            assert cache.executions(name) == 1
            assert cache.hits[name] == 2

    def test_different_programs_never_alias(self, small_fir, small_conv):
        cache = PassCache()
        target = get_target("xentium")
        run_flow("wlo-slp", small_fir, target, -15.0, cache=cache)
        run_flow("wlo-slp", small_conv, target, -15.0, cache=cache)
        for name in ANALYSIS_PASS_NAMES:
            assert cache.executions(name) == 2
            assert cache.hits.get(name, 0) == 0

    def test_cached_rerun_is_bit_identical(self, small_fir):
        cache = PassCache()
        target = get_target("vex-1")
        first = run_flow("wlo-slp", small_fir, target, -25.0, cache=cache)
        second = run_flow("wlo-slp", small_fir, target, -25.0, cache=cache)
        assert second.total_cycles == first.total_cycles
        assert second.noise_db == first.noise_db
        _assert_specs_identical(second.spec, first.spec)

    def test_lru_eviction_bounds_entries(self):
        cache = PassCache(max_entries=2)
        cache.store("k1", {"x": 1})
        cache.store("k2", {"x": 2})
        # A hit touches k1: k2 is now least recently used.
        assert cache.resolve("p", "k1", dict) == ({"x": 1}, True)
        cache.store("k3", {"x": 3})  # evicts k2
        assert len(cache) == 2
        assert cache.resolve("p", "k2", lambda: {"x": 4}) == ({"x": 4}, False)
        assert cache.resolve("p", "k3", dict) == ({"x": 3}, True)
        assert cache.resolve("p", "k1", dict) == ({}, False)  # evicted by k2

    def test_concurrent_lookups_and_stores(self):
        """``repro serve`` job threads share the global cache: a store
        that evicts the key a lookup just found must not break it."""
        import sys
        import threading

        cache = PassCache(max_entries=4)
        errors: list[Exception] = []

        def work(worker: int) -> None:
            try:
                for step in range(3000):
                    key = f"k{(step * (worker + 1)) % 9}"
                    cache.resolve("pass", key, lambda: {"x": step})
                    cache.count_execution("other")
            except Exception as error:  # reported by the assert below
                errors.append(error)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= cache.max_entries
        assert cache.executions("other") == 4 * 3000

    def test_resolve_computes_a_key_once(self):
        """Threads missing together on one key: the first to claim it
        computes, the others wait and count hits.  When the computing
        thread raises, that error is its own, and exactly one waiter (or
        a later caller) computes again, so the counts do not depend on
        how the threads interleave."""
        import sys
        import threading

        cache = PassCache()
        calls: list[int] = []

        def compute() -> dict:
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("first compute fails")
            return {"x": len(calls)}

        barrier = threading.Barrier(4)
        results: list[tuple] = []
        errors: list[Exception] = []

        def work() -> None:
            barrier.wait(timeout=60)
            try:
                results.append(cache.resolve("pass", "k", compute))
            except RuntimeError as error:
                errors.append(error)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 2 and len(errors) == 1 and len(results) == 3
        outputs = results[0][0]
        assert outputs == {"x": 2}
        assert all(found is outputs for found, _ in results)
        assert sorted(cached for _, cached in results) == [False, True, True]
        assert cache.misses == {"pass": 2} and cache.hits == {"pass": 2}
        assert cache._pending == {}

    def test_timings_report_sources(self, small_fir):
        cache = PassCache()
        target = get_target("xentium")
        _, cold = execute_flow(
            "wlo-slp", small_fir, target, -15.0, cache=cache
        )
        _, warm = execute_flow(
            "wlo-slp", small_fir, target, -45.0, cache=cache
        )
        assert all(not t.cached for t in cold.timings)
        cached = {t.name.split("[")[0] for t in warm.timings if t.cached}
        assert set(ANALYSIS_PASS_NAMES) <= cached
        report = warm.timing_report()
        assert "range-analysis" in report and "cached" in report


# ----------------------------------------------------------------------
# Search sharing: the search passes are keyed on the target's word
# lengths, so targets with one datapath share every search.

SEARCH_PASSES = ("wlo", "wlo-slp", "slp-extract")


def _cell(program, target, cache, constraint=-25.0, **overrides):
    """Both fixed-point flows of one sweep cell, against ``cache``."""
    baseline = run_flow(
        "wlo-first", program, target, constraint, cache=cache, **overrides
    )
    joint = run_flow(
        "wlo-slp", program, target, constraint, cache=cache, **overrides
    )
    return baseline, joint


def _cell_shape(cell):
    """Everything a cell's numbers come from, comparably."""
    baseline, joint = cell
    return [
        (
            result.total_cycles, result.noise_db,
            _group_shape(result.groups), result.spec.state_key(),
            result.extra["wlo_stats"],
        )
        for result in (baseline.scalar, baseline.simd, joint)
    ]


class TestSearchSharing:
    @pytest.mark.parametrize("first,second", [
        ("xentium", "st240"), ("vex-4", "vex-1"),
    ])
    def test_twin_targets_run_each_search_once(self, small_fir, first, second):
        shared = PassCache()
        cells = {
            name: _cell(small_fir, get_target(name), shared)
            for name in (first, second)
        }
        for name in SEARCH_PASSES:
            assert shared.executions(name) == 1, name
            assert shared.hits[name] == 1, name
        # One initial spec per datapath, asked for by all four flows.
        assert shared.executions("iwl-assignment") == 1
        assert shared.hits["iwl-assignment"] == 3
        for name, cell in cells.items():
            alone = _cell(small_fir, get_target(name), PassCache())
            assert _cell_shape(cell) == _cell_shape(alone), name

    def test_sharing_follows_the_word_lengths(self, small_fir):
        import dataclasses

        base = get_target("xentium")
        wider = dataclasses.replace(
            base, name="xentium-wide", issue_width=2 * base.issue_width
        )
        quads = dataclasses.replace(
            base, name="xentium-quads", simd_widths=(16, 8)
        )
        cache = PassCache()
        _cell(small_fir, base, cache)
        shared = _cell(small_fir, wider, cache)
        for name in SEARCH_PASSES:
            assert cache.executions(name) == 1, name
        assert _cell_shape(shared) == _cell_shape(
            _cell(small_fir, wider, PassCache())
        )
        _cell(small_fir, quads, cache)
        for name in SEARCH_PASSES:
            assert cache.executions(name) == 2, name

    def test_cached_specs_are_never_mutated(self, small_fir):
        cache = PassCache()
        seen: dict[int, tuple] = {}
        for target_name in ("xentium", "st240", "vex-4", "vex-1"):
            for constraint in (-25.0, -45.0):
                _cell(small_fir, get_target(target_name), cache, constraint)
                for outputs in list(cache._entries.values()):
                    spec = outputs.get("spec")
                    if spec is not None:
                        seen.setdefault(id(spec), (spec, spec.state_key()))
        # Per datapath: one initial spec, and one spec per search pass
        # and constraint.
        assert len(seen) == 2 * (1 + 2 * 2)
        for spec, state in seen.values():
            assert spec.state_key() == state

    def test_returned_specs_are_the_callers_own(self, small_fir):
        cache = PassCache()
        baseline, joint = _cell(small_fir, get_target("xentium"), cache)
        expected = _cell_shape(_cell(small_fir, get_target("st240"), PassCache()))
        for spec in (baseline.simd.spec, joint.spec):
            for slot in range(spec.slotmap.n_slots):
                spec.set_wl(slot, 3)
        # The twin's searches are cache hits, answered from untouched specs.
        assert _cell_shape(_cell(small_fir, get_target("st240"), cache)) == expected
        assert cache.executions("wlo") == cache.executions("wlo-slp") == 1

    def test_warm_panels_stay_per_target(self, small_fir):
        from repro.wlo import clear_continuations

        def panel(target_name, cache):
            target = get_target(target_name)
            return [
                _cell_shape(_cell(
                    small_fir, target, cache, constraint,
                    continuation="warm",
                ))
                for constraint in (-45.0, -35.0, -25.0)  # strictest first
            ]

        clear_continuations()
        try:
            shared = PassCache()
            panel("xentium", shared)
            after_twin = panel("st240", shared)
            clear_continuations()
            alone = panel("st240", PassCache())
        finally:
            clear_continuations()
        assert after_twin == alone

    def test_search_engines_see_only_word_lengths(self, small_fir):
        from repro.targets import WordLengths

        seen = []

        def spy(program, spec, model, word_lengths, constraint_db):
            seen.append(word_lengths)
            return get_wlo_engine("max-1")(
                program, spec, model, word_lengths, constraint_db
            )

        register_wlo_engine("test-spy", spy, overwrite=True)
        target = get_target("vex-4")
        run_flow(
            "wlo-first", small_fir, target, -25.0, wlo="test-spy",
            cache=PassCache(),
        )
        assert seen == [WordLengths(32, (16, 8))] == [target.word_lengths]


# ----------------------------------------------------------------------
# Content keys: the back end runs once per distinct spec and groups.

class _Reached(Pass):
    """A search stand-in that reaches equal spec and groups (fresh
    objects each run) at every constraint."""

    name = "reached"
    reads = ("constraint_db",)
    writes = ("spec", "groups")

    def __init__(self, spec, groups) -> None:
        self.spec = spec
        self.groups = groups

    def run(self, state):
        return {"spec": self.spec.clone(), "groups": _rebuilt(self.groups)}


def _rebuilt(groups, block=None, index=None, **changes):
    """A copy of a per-block group dict, with group ``index`` of
    ``block`` replaced by ``dataclasses.replace(group, **changes)``."""
    import dataclasses

    from repro.slp.groups import GroupSet

    copy = {}
    for name, group_set in groups.items():
        copy[name] = GroupSet(name)
        for i, group in enumerate(group_set):
            if (name, i) == (block, index):
                group = dataclasses.replace(group, **changes)
            copy[name].add(group)
    return copy


@pytest.fixture(scope="module")
def joint_state(small_fir):
    """The final state of one wlo-slp run: a spec and non-empty groups."""
    _, state = execute_flow(
        "wlo-slp", small_fir, get_target("vex-4"), -25.0, cache=PassCache()
    )
    assert any(len(group_set) for group_set in state.get("groups").values())
    return state


class TestContentKeys:
    def test_equal_content_shares_the_back_end(self, small_fir, joint_state):
        from repro.pipeline import LowerSimdPass, SchedulePass

        cache = PassCache()
        pipeline = Pipeline((
            _Reached(joint_state.get("spec"), joint_state.get("groups")),
            LowerSimdPass(),
            SchedulePass("simd_lowered"),
        ))
        states = [
            pipeline.run(
                FlowState.seed(small_fir, get_target("vex-4"), constraint),
                cache,
            )
            for constraint in (-25.0, -45.0)
        ]
        first, second = states
        assert first.get("spec") is not second.get("spec")
        for name in ("spec", "groups"):
            assert first.fingerprint(name) == second.fingerprint(name)
            assert first.fingerprint(name) == joint_state.fingerprint(name)
        for name in ("lower-simd", "schedule"):
            assert cache.executions(name) == 1, name
            assert cache.hits[name] == 1, name
        assert second.get("cycles") is first.get("cycles")

    def test_spec_fingerprint_follows_its_content(self, joint_state):
        from repro.fixedpoint.spec import FixedPointSpec, SlotMap
        from repro.kernels import fir
        from repro.pipeline.cache import derived_fingerprint

        def fingerprint(spec):
            return derived_fingerprint("spec", spec, "any pass key")

        spec = joint_state.get("spec")
        base = fingerprint(spec)
        assert fingerprint(spec.clone()) == base
        root = spec.slotmap.roots[0]
        narrower = spec.clone()
        narrower.set_wl(root, spec.wl(root) - 1)
        assert fingerprint(narrower) != base
        relabelled = spec.clone()
        relabelled.max_wl = spec.max_wl // 2
        assert relabelled.state_key() == spec.state_key()
        assert fingerprint(relabelled) != base
        # The same state on another program.
        short, long = (
            FixedPointSpec(SlotMap(fir(n_samples=n, n_taps=16)))
            for n in (64, 128)
        )
        assert short.state_key() == long.state_key()
        assert fingerprint(short) != fingerprint(long)

    def test_groups_fingerprint_follows_its_content(self, joint_state):
        from repro.pipeline.cache import derived_fingerprint

        def fingerprint(groups):
            return derived_fingerprint("groups", groups, "any pass key")

        groups = joint_state.get("groups")
        base = fingerprint(groups)
        assert fingerprint(_rebuilt(groups)) == base
        block = next(name for name, found in groups.items() if len(found))
        group = groups[block].groups[0]
        narrower = _rebuilt(groups, block, 0, wl=group.wl // 2)
        reordered = _rebuilt(groups, block, 0, lanes=group.lanes[::-1])
        assert fingerprint(narrower) != base
        assert fingerprint(reordered) != base
        assert fingerprint(narrower) != fingerprint(reordered)

    def test_other_artifacts_keep_the_pass_key(self, joint_state):
        from repro.pipeline.cache import derived_fingerprint

        stats = joint_state.get("wlo_stats")
        assert derived_fingerprint("wlo_stats", stats, "k1") == "k1:wlo_stats"


# ----------------------------------------------------------------------
# FlowSpec structure introspection (what the sweep cache keys on).

class TestFlowStructure:
    def test_pass_names_resolve_parameters(self):
        names = get_flow("wlo-first").pass_names(wlo="min+1")
        assert "wlo[engine='min+1']" in names
        assert names.index(
            "range-analysis[method='auto',sim_backend='batch']"
        ) == 0
        # The simulation backend resolves into the pass signature too,
        # so cell keys can never alias results across backends.
        scalar_names = get_flow("wlo-first").pass_names(sim_backend="scalar")
        assert scalar_names != get_flow("wlo-first").pass_names()

    def test_variants_have_distinct_structures(self):
        assert (
            get_flow("wlo-slp").pass_names()
            != get_flow("wlo-slp-lite").pass_names()
        )
        assert (
            get_flow("wlo-first").pass_names()
            != get_flow("wlo-first-greedy").pass_names()
        )

    def test_spec_from_registry_is_frozen_declaration(self):
        spec = get_flow("wlo-slp")
        assert isinstance(spec, FlowSpec)
        assert spec.needs_constraint
        assert not get_flow("float").needs_constraint
