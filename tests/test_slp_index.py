"""The per-block SLP index: its memos answer what a fresh computation does.

Both extraction front ends ask one :class:`~repro.slp.extraction.BlockSlp`
per block for candidates, structural conflicts and selections.  A memoized
selection must pick what :func:`~repro.slp.extraction.select_groups`
picks, call ``on_select`` in the same order and count the same
:class:`~repro.slp.extraction.SelectionStats`.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ir import build_dependence_graph, dependence_graph
from repro.kernels import conv2d, fir, iir
from repro.pipeline import PassCache, run_flow
from repro.slp import (
    BenefitEstimator,
    BlockSlp,
    SelectionStats,
    block_slp,
    conflict_matrix,
    extract_candidates,
    initial_items,
    merge_items,
    select_groups,
)
from repro.slp import extraction
from repro.targets import get_target

#: Fresh programs of the session fixtures' shapes: a shared program may
#: arrive with a warm index.
BUILDERS = {
    "fir": lambda: fir(n_samples=64, n_taps=16),
    "iir": lambda: iir(n_samples=256, order=4),
    "conv": lambda: conv2d(height=18, width=18),
}


def _stats_delta(before: SelectionStats, after: SelectionStats) -> dict:
    return {
        name: getattr(after, name) - getattr(before, name)
        for name in (f.name for f in dataclasses.fields(SelectionStats))
    }


class TestSelectionMemo:
    @pytest.mark.parametrize("kernel", sorted(BUILDERS))
    def test_every_selection_matches_a_fresh_one(self, kernel, monkeypatch):
        program = BUILDERS[kernel]()
        memoized = BlockSlp.select
        computed = []
        checked = []

        def counting(*args, **kwargs):
            computed.append(1)
            return select_groups(*args, **kwargs)

        def checked_select(
            self, candidates, conflicts, items, on_select=None, stats=None
        ):
            applied, replayed = [], []

            def apply(chosen):
                applied.append(chosen)
                if on_select is not None:
                    on_select(chosen)

            before = dataclasses.replace(stats or SelectionStats())
            after = dataclasses.replace(before)
            picks = memoized(self, candidates, conflicts, items, apply, after)
            fresh_before = dataclasses.replace(before)
            fresh_after = dataclasses.replace(before)
            fresh = select_groups(
                list(candidates), set(conflicts),
                BenefitEstimator(self.program, self.block), list(items),
                replayed.append, fresh_after,
            )
            assert picks == fresh
            assert applied == replayed == fresh
            assert _stats_delta(before, after) == _stats_delta(
                fresh_before, fresh_after
            )
            if stats is not None:
                for field in dataclasses.fields(SelectionStats):
                    setattr(stats, field.name, getattr(after, field.name))
            checked.append(1)
            return picks

        monkeypatch.setattr(extraction, "select_groups", counting)
        monkeypatch.setattr(BlockSlp, "select", checked_select)
        cache = PassCache()
        for target_name in ("xentium", "st240", "vex-4"):
            target = get_target(target_name)
            for flow in ("wlo-first", "wlo-slp"):
                for constraint in (-25.0, -55.0):
                    run_flow(flow, program, target, constraint, cache=cache)
        # Both memo paths ran: some selections were computed, most were
        # answered from the memo.
        assert 0 < len(computed) < len(checked)

    def test_memoized_flows_equal_a_cold_index(self):
        """A run answered from a warm index equals one on a fresh program."""
        target = get_target("vex-4")
        warm = BUILDERS["fir"]()
        for constraint in (-25.0, -55.0):
            run_flow("wlo-slp", warm, target, constraint, cache=PassCache())
        again = run_flow("wlo-slp", warm, target, -55.0, cache=PassCache())
        cold = run_flow(
            "wlo-slp", BUILDERS["fir"](), target, -55.0, cache=PassCache()
        )
        assert again.total_cycles == cold.total_cycles
        assert again.extra["selection_stats"] == cold.extra["selection_stats"]
        assert again.spec.state_key() == cold.spec.state_key()

    def test_threads_share_one_index(self, monkeypatch):
        """``repro serve`` job threads share kernel programs, hence their
        indexes; racing the unlocked memo clears only recomputes."""
        import sys
        import threading

        target = get_target("vex-4")
        runs = [
            (flow, constraint)
            for flow in ("wlo-first", "wlo-slp")
            for constraint in (-25.0, -55.0)
        ]

        def cell_numbers(program):
            cache = PassCache()  # each job runs its own searches
            numbers = []
            for flow, constraint in runs:
                result = run_flow(flow, program, target, constraint, cache=cache)
                result = getattr(result, "simd", result)
                numbers.append((
                    result.total_cycles, result.spec.state_key(),
                    result.extra["selection_stats"],
                ))
            return numbers

        expected = cell_numbers(BUILDERS["fir"]())
        monkeypatch.setattr(extraction, "_SLP_MEMO_CAP", 3)
        shared = BUILDERS["fir"]()
        results: dict[int, list] = {}

        def work(worker: int) -> None:
            results[worker] = cell_numbers(shared)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results.get(w) for w in range(4)] == [expected] * 4


class TestIndexAnswers:
    @pytest.fixture()
    def index(self):
        program = BUILDERS["fir"]()
        block = program.blocks["body"]
        return block_slp(program, block), initial_items(block)

    def test_answers_equal_the_builders(self, index):
        slp, items = index
        word_lengths = get_target("vex-4").word_lengths
        deps = build_dependence_graph(slp.block)
        candidates = slp.candidates(items, word_lengths)
        assert candidates == extract_candidates(
            slp.program, items, deps, word_lengths
        )
        assert slp.conflicts(candidates) == conflict_matrix(candidates, deps)

    def test_returned_collections_are_fresh(self, index):
        slp, items = index
        word_lengths = get_target("xentium").word_lengths
        candidates = slp.candidates(items, word_lengths)
        expected_candidates = list(candidates)
        conflicts = slp.conflicts(candidates)
        expected_conflicts = set(conflicts)
        # The joint round extends its conflict set with accuracy
        # conflicts; that must not leak into a later answer.
        conflicts.add(frozenset((0, len(candidates) - 1)))
        conflicts.add(frozenset((1, 2)))
        candidates.pop()
        assert slp.candidates(items, word_lengths) == expected_candidates
        assert slp.conflicts(expected_candidates) == expected_conflicts
        picks = slp.select(expected_candidates, expected_conflicts, items)
        picks.clear()
        assert slp.select(expected_candidates, expected_conflicts, items)

    def test_word_lengths_key_the_candidates(self, index):
        slp, items = index
        vex, xentium = get_target("vex-4"), get_target("xentium")
        pairs = slp.candidates(items, vex.word_lengths)
        picks = slp.select(pairs, slp.conflicts(pairs), items)
        merged = merge_items(items, picks)
        # 4x8 quads exist on vex; a 2x16 target asking the same
        # question after it must not be answered with them.
        quads = [
            c for c in slp.candidates(merged, vex.word_lengths) if c.size == 4
        ]
        assert quads and {c.wl for c in quads} == {8}
        assert not [
            c for c in slp.candidates(merged, xentium.word_lengths)
            if c.size == 4
        ]

    def test_overfilled_memos_stay_within_the_cap(self, index, monkeypatch):
        monkeypatch.setattr(extraction, "_SLP_MEMO_CAP", 2)
        slp, items = index
        program = slp.program
        word_lengths = get_target("vex-4").word_lengths
        deps = build_dependence_graph(slp.block)
        estimator = BenefitEstimator(program, slp.block)
        for _ in range(2):
            for size in range(3, len(items) + 1, 3):
                subset = items[:size]
                candidates = slp.candidates(subset, word_lengths)
                assert candidates == extract_candidates(
                    program, subset, deps, word_lengths
                )
                conflicts = slp.conflicts(candidates)
                assert conflicts == conflict_matrix(candidates, deps)
                picks = slp.select(candidates, conflicts, subset)
                assert picks == select_groups(
                    candidates, conflicts, estimator, subset
                )
                for memo in (slp._candidates, slp._conflicts, slp._selections):
                    assert len(memo) <= 2


class TestProgramMemos:
    def test_one_index_and_graph_per_block(self):
        program = BUILDERS["iir"]()
        for block in program.blocks.values():
            slp = block_slp(program, block)
            assert block_slp(program, block) is slp
            assert dependence_graph(program, block) is slp.deps
            fresh = build_dependence_graph(block)
            assert sorted(slp.deps.edges()) == sorted(fresh.edges())

    def test_fresh_programs_and_foreign_blocks_start_cold(self):
        program, twin = BUILDERS["fir"](), BUILDERS["fir"]()
        block, twin_block = program.blocks["body"], twin.blocks["body"]
        assert block_slp(program, block) is not block_slp(twin, twin_block)
        # A block of another program is never memoized under this one.
        assert block_slp(program, twin_block) is not block_slp(
            program, twin_block
        )
        assert block_slp(program, twin_block).block is twin_block
        assert dependence_graph(program, twin_block).block is twin_block
