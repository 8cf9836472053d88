"""Batched single-root moves: exact decisions and exact cost deltas.

The Tabu and ``max-1`` searches score a whole neighbourhood at once:
:meth:`AccuracyModel.move_violations` decides every move against the
constraint and :meth:`WlCostTable.move_costs` prices it.  Both must
answer exactly what the per-move round trip (save, set the word length,
ask, revert) answers, or the searches would leave their trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accuracy import AccuracyModel
from repro.errors import WLOError
from repro.experiments.engine import PAPER_TARGETS, KernelConfig, build_context
from repro.ir import OpKind
from repro.pipeline import AnalysisContext
from repro.targets import TargetModel, get_target
from repro.wlo import GreedyResult, WlCostTable, max_minus_one, tabu_wlo
from repro.wlo.continuation import apply_warm_start

PAPER_KERNELS = ("fir", "iir", "conv")

#: Supported word lengths of the paper targets' two datapaths.
WIDTHS = ((16, 32), (8, 16, 32))


@pytest.fixture(scope="module")
def paper_contexts():
    """The paper kernels' sweep contexts: benchmark programs whose
    models carry the analysis twins' gains."""
    return {k: build_context(KernelConfig(), k) for k in PAPER_KERNELS}


@pytest.fixture(scope="module")
def all_contexts(paper_contexts, small_kernels):
    """The paper contexts plus one for every catalog kernel."""
    contexts = {f"paper-{k}": c for k, c in paper_contexts.items()}
    for name, program in small_kernels.items():
        contexts[f"catalog-{name}"] = AnalysisContext.build(program)
    return contexts


def _fresh_model(context) -> AccuracyModel:
    return AccuracyModel(context.program, context.slotmap, context.model.gains)


def _all_moves(spec, supported):
    """Every root to every other supported word length, in root order."""
    roots, wls = [], []
    for root in spec.slotmap.roots:
        for wl in supported:
            if wl != spec.wl(root):
                roots.append(root)
                wls.append(wl)
    return roots, wls


def _moved(spec, root, wl, ask):
    """``ask(spec)`` after setting ``root`` to ``wl``; ``spec`` is kept."""
    token = spec.save()
    spec.set_wl(root, wl)
    try:
        return ask(spec)
    finally:
        spec.revert(token)


def _narrow_edges(context, spec, count):
    """Narrow the first operand of the first ``count`` multiplies to
    16 bits, as a joint SLP round does."""
    muls = [o.opid for o in context.program.all_ops() if o.kind is OpKind.MUL]
    for opid in muls[:count]:
        spec.set_edge_wl(opid, 0, 16)


class TestExactDecisions:
    """``move_violations`` equals ``violates`` of every moved spec."""

    @pytest.mark.parametrize("name", [
        *(f"paper-{k}" for k in PAPER_KERNELS),
        "catalog-conv", "catalog-dot", "catalog-fir", "catalog-iir",
        "catalog-sad", "catalog-scale_offset",
    ])
    def test_random_states_and_constraints(self, all_contexts, name):
        from hypothesis import given, settings, strategies as st

        context = all_contexts[name]
        model = _fresh_model(context)
        reference = _fresh_model(context)
        roots = context.slotmap.roots

        @given(st.data())
        @settings(max_examples=40, deadline=None)
        def run(data):
            supported = data.draw(st.sampled_from(WIDTHS))
            spec = context.fresh_spec()
            for root in roots:
                spec.set_wl(root, data.draw(st.sampled_from(supported)))
            _narrow_edges(context, spec, data.draw(st.integers(0, 3)))
            move_roots, move_wls = _all_moves(spec, supported)
            noise = [
                _moved(spec, r, w, reference.noise_db)
                for r, w in zip(move_roots, move_wls)
            ]
            # A constraint among the moves' noise levels splits them
            # (hypothesis also lands on a level itself: a recheck).
            constraint = data.draw(st.floats(min(noise) - 1.0, max(noise) + 1.0))
            expected = [level > constraint for level in noise]
            before = spec.state_key()
            got = model.move_violations(spec, move_roots, move_wls, constraint)
            assert got.tolist() == expected
            assert spec.state_key() == before

        run()
        assert model.batch_rows > 0

    @pytest.mark.parametrize("kernel", PAPER_KERNELS)
    def test_constraint_at_a_row_rechecks(self, paper_contexts, kernel):
        """A constraint exactly at one move's noise lies inside that
        row's error bound: the row is re-asked, and both the row and its
        neighbours still get the exact answer."""
        context = paper_contexts[kernel]
        model = _fresh_model(context)
        rng = np.random.default_rng(7)
        for supported in WIDTHS:
            spec = context.fresh_spec()
            for root in context.slotmap.roots:
                spec.set_wl(root, int(rng.choice(supported)))
            move_roots, move_wls = _all_moves(spec, supported)
            noise = [
                _moved(spec, r, w, model.noise_db)
                for r, w in zip(move_roots, move_wls)
            ]
            for m in (0, len(noise) // 2, len(noise) - 1):
                constraint = noise[m]
                rechecks = model.batch_rechecks
                got = model.move_violations(
                    spec, move_roots, move_wls, constraint
                )
                assert got.tolist() == [level > constraint for level in noise]
                assert not got[m]  # at the constraint is feasible
                assert model.batch_rechecks > rechecks

    def test_memo_is_keyed_on_state_and_moves(self, fir_context):
        """A neighbourhood asked again, under any constraint, is a memo
        hit; a different state, root list or word-length list is not."""
        model = _fresh_model(fir_context)
        reference = _fresh_model(fir_context)
        spec = fir_context.fresh_spec()
        roots, wls = _all_moves(spec, (16, 32))
        model.move_violations(spec, roots, wls, -30.0)
        model.move_violations(spec, roots, wls, -60.0)
        model.move_violations(spec, roots[1:], wls[1:], -60.0)
        narrow = [8] * len(roots)
        got = model.move_violations(spec, roots, narrow, -60.0)
        assert got.tolist() == [
            _moved(spec, r, 8, lambda s: reference.violates(s, -60.0))
            for r in roots
        ]
        assert got.tolist() != model.move_violations(
            spec, roots, wls, -60.0
        ).tolist()
        spec.set_wl(roots[0], 16)
        model.move_violations(spec, *_all_moves(spec, (16, 32)), -60.0)
        assert (model.batch_calls, model.batch_hits) == (6, 2)
        assert model.batch_rows == 4 * len(roots) - 1
        # Counted apart from the single-state questions.
        assert (model.eval_count, model.miss_count) == (0, 0)

    def test_empty_neighbourhood(self, fir_context):
        model = _fresh_model(fir_context)
        got = model.move_violations(fir_context.fresh_spec(), [], [], -30.0)
        assert got.shape == (0,)

    def test_noiseless_rows_take_the_db_floor(self, fir_context, monkeypatch):
        """A row without noise has no dB value to bound: it is re-asked,
        and ``noise_power``'s -400 dB floor decides it, as it decides
        the moved spec."""
        model = _fresh_model(fir_context)

        def exact_sites(fwl, iwl, edge):
            shape = fwl.shape[:-1] + model._k2.shape
            return np.zeros(shape), np.zeros(shape)

        monkeypatch.setattr(model, "_site_moments", exact_sites)
        model.include_coeff_error = False
        spec = fir_context.fresh_spec()
        roots, wls = _all_moves(spec, (16, 32))
        assert model.violates(spec, -500.0)
        got = model.move_violations(spec, roots, wls, -500.0)
        assert got.all()
        assert model.batch_rechecks == len(roots)


class TestExactCosts:
    """``move_costs`` equals the walk of every moved spec, by ``==``."""

    @pytest.mark.parametrize("target_name", PAPER_TARGETS)
    @pytest.mark.parametrize("kernel", PAPER_KERNELS)
    def test_paper_pairs_match_the_walk(self, paper_contexts, kernel, target_name):
        context = paper_contexts[kernel]
        target = get_target(target_name)
        table = WlCostTable(context.program, target.word_lengths)
        assert table.exact_deltas
        supported = sorted(target.supported_wls)
        rng = np.random.default_rng(3)
        for _ in range(5):
            spec = context.fresh_spec(max_wl=target.max_wl)
            for root in context.slotmap.roots:
                spec.set_wl(root, int(rng.choice(supported)))
            current = table.cost(spec)
            roots, wls = _all_moves(spec, supported)
            expected = [
                _moved(spec, r, w, table.cost) for r, w in zip(roots, wls)
            ]
            got = table.move_costs(spec, roots, wls, current)
            assert got.tolist() == expected

    def test_48_bit_datapath_walks(self, fir_context, monkeypatch):
        """16-bit lanes of a 48-bit datapath cost 1/3: deltas would
        round, so every move is priced by a walk."""
        wide = TargetModel(
            name="dsp48", issue_width=4, scalar_wl=48, simd_widths=(16, 8)
        )
        table = WlCostTable(fir_context.program, wide.word_lengths)
        assert not table.exact_deltas
        spec = fir_context.fresh_spec(max_wl=48)
        roots, wls = _all_moves(spec, sorted(wide.supported_wls))
        expected = [_moved(spec, r, w, table.cost) for r, w in zip(roots, wls)]
        walks = []
        walk = WlCostTable.cost
        monkeypatch.setattr(
            WlCostTable, "cost", lambda self, s: walks.append(1) or walk(self, s)
        )
        got = table.move_costs(spec, roots, wls, walk(table, spec))
        assert got.tolist() == expected
        assert len(walks) == len(roots)

    def test_searches_on_a_48_bit_datapath(self, fir_context):
        """Tabu and max-1 track their cost through walked moves: each
        returns the walk of the spec it leaves.  The pinned cost and
        search effort are what the per-move loops they replaced
        returned on this fixture."""
        wide = TargetModel(
            name="dsp48", issue_width=4, scalar_wl=48, simd_widths=(16, 8)
        )
        table = WlCostTable(fir_context.program, wide.word_lengths)
        spec = fir_context.fresh_spec(max_wl=48)
        tabu = tabu_wlo(fir_context.program, spec, _fresh_model(fir_context),
                        wide.word_lengths, -50.0)
        assert tabu.best_cost == table.cost(spec) == 1450.666666666666
        assert (tabu.iterations, tabu.evaluations, tabu.improved_moves) == (
            41, 711, 11
        )
        spec = fir_context.fresh_spec(max_wl=48)
        greedy = max_minus_one(fir_context.program, spec,
                               _fresh_model(fir_context), wide.word_lengths,
                               -50.0)
        assert greedy == GreedyResult(table.cost(spec), 11, 132, False)
        assert greedy.cost == tabu.best_cost


def _max_minus_one_per_move(program, spec, model, word_lengths, constraint_db,
                            warm_start=None):
    """The per-move ``max-1`` loop the batched engine replaced: save,
    narrow, ask, price by a walk, revert.  Kept as the oracle."""
    roots = spec.slotmap.roots
    supported = sorted(word_lengths.supported_wls)
    for root in roots:
        spec.set_wl(root, word_lengths.max_wl)
    if model.violates(spec, constraint_db):
        raise WLOError(
            f"constraint {constraint_db} dB infeasible at maximum word lengths"
        )
    warm = False
    if warm_start is not None:
        token = spec.save()
        if apply_warm_start(spec, warm_start, supported) and not model.violates(
            spec, constraint_db
        ):
            warm = True
        else:
            spec.revert(token)
    costs = WlCostTable(program, word_lengths)
    moves = 0
    evaluations = 0
    while True:
        best = None
        for root in roots:
            narrower = [w for w in supported if w < spec.wl(root)]
            if not narrower:
                continue
            wl = max(narrower)
            token = spec.save()
            spec.set_wl(root, wl)
            evaluations += 1
            if not model.violates(spec, constraint_db):
                key = (costs.cost(spec), root, wl)
                if best is None or key < best:
                    best = key
            spec.revert(token)
        if best is None:
            break
        _cost, root, wl = best
        spec.set_wl(root, wl)
        moves += 1
    return GreedyResult(costs.cost(spec), moves, evaluations, warm)


class TestMaxMinusOneOracle:
    @pytest.mark.parametrize("target_name", ["xentium", "vex-4"])
    @pytest.mark.parametrize("constraint", [-15.0, -45.0, -65.0])
    def test_matches_the_per_move_loop(self, fir_context, target_name,
                                       constraint):
        target = get_target(target_name)
        spec = fir_context.fresh_spec()
        oracle_spec = fir_context.fresh_spec()
        got = max_minus_one(
            fir_context.program, spec, _fresh_model(fir_context), target,
            constraint,
        )
        expected = _max_minus_one_per_move(
            fir_context.program, oracle_spec, _fresh_model(fir_context),
            target, constraint,
        )
        assert got == expected
        assert spec.state_key() == oracle_spec.state_key()
        assert got.moves > 0

    def test_warm_seed_matches_the_per_move_loop(self, fir_context):
        target = get_target("vex-4")
        seed_spec = fir_context.fresh_spec()
        max_minus_one(fir_context.program, seed_spec, fir_context.model,
                      target, -65.0)
        seed = {r: seed_spec.wl(r) for r in fir_context.slotmap.roots}
        spec = fir_context.fresh_spec()
        oracle_spec = fir_context.fresh_spec()
        got = max_minus_one(fir_context.program, spec, fir_context.model,
                            target, -45.0, warm_start=seed)
        expected = _max_minus_one_per_move(
            fir_context.program, oracle_spec, fir_context.model, target,
            -45.0, warm_start=seed,
        )
        assert got == expected and got.warm_start
        assert spec.state_key() == oracle_spec.state_key()
