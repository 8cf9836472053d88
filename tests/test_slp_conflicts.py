"""Conflict detection tests (common op, cyclic dependency)."""

import pytest

from repro.ir import OpKind, ProgramBuilder, build_dependence_graph
from repro.slp import (
    Candidate,
    conflict_matrix,
    have_common_op,
    have_cyclic_dependency,
    structural_conflict,
)


def _cross_program():
    """Two add chains crossing each other: a1 -> b2 and b1 -> a2.

    Grouping {a1, a2} and {b1, b2} creates a group-level cycle: the
    canonical SLP conflict example.
    """
    b = ProgramBuilder("cross")
    x = b.input_array("x", (4,), value_range=(-1.0, 1.0))
    y = b.output_array("y", (2,))
    with b.block("blk"):
        a1 = b.add(b.load(x, 0), b.load(x, 1))       # opid 2
        b1 = b.add(b.load(x, 2), b.load(x, 3))       # opid 5
        b2 = b.add(a1, b.load(x, 0))                 # opid 7: uses a1
        a2 = b.add(b1, b.load(x, 1))                 # opid 9: uses b1
        b.store(y, 0, a2)
        b.store(y, 1, b2)
    return b.build(), (a1.opid, b1.opid, b2.opid, a2.opid)


class TestCommonOp:
    def test_shared_lane(self):
        a = Candidate((1, 2), (3, 4), OpKind.ADD, 16)
        b = Candidate((4, 5), (6, 7), OpKind.ADD, 16)
        assert have_common_op(a, b)

    def test_disjoint(self):
        a = Candidate((1,), (2,), OpKind.ADD, 16)
        b = Candidate((3,), (4,), OpKind.ADD, 16)
        assert not have_common_op(a, b)


class TestCyclicDependency:
    def test_crossing_chains_conflict(self):
        program, (a1, b1, b2, a2) = _cross_program()
        deps = build_dependence_graph(program.blocks["blk"])
        group_a = Candidate((a1,), (a2,), OpKind.ADD, 16)
        group_b = Candidate((b1,), (b2,), OpKind.ADD, 16)
        assert have_cyclic_dependency(group_a, group_b, deps)
        assert structural_conflict(group_a, group_b, deps)

    def test_one_way_dependence_is_fine(self):
        """Producer group feeding consumer group: no cycle."""
        program, (a1, b1, b2, a2) = _cross_program()
        deps = build_dependence_graph(program.blocks["blk"])
        producers = Candidate((a1,), (b1,), OpKind.ADD, 16)
        consumers = Candidate((b2,), (a2,), OpKind.ADD, 16)
        assert not have_cyclic_dependency(producers, consumers, deps)
        assert not structural_conflict(producers, consumers, deps)


class TestConflictMatrix:
    def test_matrix_matches_pairwise(self, small_fir):
        from repro.slp import extract_candidates, initial_items
        from repro.targets import get_target

        block = small_fir.blocks["body"]
        deps = build_dependence_graph(block)
        candidates = extract_candidates(
            small_fir, initial_items(block), deps, get_target("xentium")
        )
        matrix = conflict_matrix(candidates, deps)
        for i in range(len(candidates)):
            for j in range(i + 1, len(candidates)):
                expected = structural_conflict(
                    candidates[i], candidates[j], deps
                )
                assert (frozenset((i, j)) in matrix) == expected

    def test_matrix_is_symmetric_by_construction(self, small_fir):
        from repro.slp import extract_candidates, initial_items
        from repro.targets import get_target

        block = small_fir.blocks["body"]
        deps = build_dependence_graph(block)
        candidates = extract_candidates(
            small_fir, initial_items(block), deps, get_target("xentium")
        )
        for pair in conflict_matrix(candidates, deps):
            assert len(pair) == 2

    @pytest.mark.parametrize("kernel", ["small_fir", "small_iir", "small_conv"])
    def test_matrix_matches_pairwise_on_widened_items(self, kernel, request):
        """Multi-lane items too: the set form equals the per-pair rule."""
        from repro.slp import (
            BenefitEstimator,
            extract_candidates,
            initial_items,
            merge_items,
            select_groups,
        )
        from repro.targets import vex

        program = request.getfixturevalue(kernel)
        target = vex(4)
        rounds = 0
        for block in program.blocks.values():
            deps = build_dependence_graph(block)
            estimator = BenefitEstimator(program, block)
            items = initial_items(block)
            while True:
                candidates = extract_candidates(program, items, deps, target)
                matrix = conflict_matrix(candidates, deps)
                assert matrix == {
                    frozenset((i, j))
                    for i in range(len(candidates))
                    for j in range(i + 1, len(candidates))
                    if structural_conflict(candidates[i], candidates[j], deps)
                }
                rounds += 1
                selected = select_groups(candidates, matrix, estimator, items)
                if not selected:
                    break
                items = merge_items(items, selected)
        assert rounds > len(program.blocks)  # some block widened
