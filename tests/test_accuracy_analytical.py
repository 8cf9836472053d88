"""The central validation: analytical EVALACC vs bit-accurate truth."""

import numpy as np
import pytest

from repro.accuracy import (
    SimulationAccuracyEvaluator,
    build_accuracy_model,
    enumerate_sites,
    quant_noise_moments,
)
from repro.accuracy.sites import SiteKind
from repro.fixedpoint import QuantMode, SlotMap
from repro.utils import power_to_db


def _uniform(context, wl):
    spec = context.fresh_spec()
    for root in context.slotmap.roots:
        spec.set_wl(root, wl)
    return spec


class TestAnalyticalVsSimulated:
    """The flows trust the model; these tests are why they may."""

    @pytest.mark.parametrize("wl", [24, 16, 12, 10])
    def test_fir_tracks_simulation(self, fir_context, wl):
        spec = _uniform(fir_context, wl)
        analytical = fir_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=3
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=1.5)

    @pytest.mark.parametrize("wl", [24, 20, 16])
    def test_iir_tracks_simulation(self, iir_context, wl):
        spec = _uniform(iir_context, wl)
        analytical = iir_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            iir_context.program, n_stimuli=3, discard=64
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=3.0)

    @pytest.mark.parametrize("wl", [24, 16, 10])
    def test_conv_tracks_simulation(self, conv_context, wl):
        spec = _uniform(conv_context, wl)
        analytical = conv_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            conv_context.program, n_stimuli=3
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=1.5)

    def test_mixed_spec_tracks_simulation(self, fir_context):
        """Non-uniform specs (the ones WLO produces) must track too."""
        spec = _uniform(fir_context, 32)
        rng = np.random.default_rng(9)
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, int(rng.choice([12, 16, 24, 32])))
        analytical = fir_context.model.noise_db(spec)
        simulated = SimulationAccuracyEvaluator(
            fir_context.program, n_stimuli=3
        ).noise_db(spec)
        assert analytical == pytest.approx(simulated, abs=2.0)


class TestModelProperties:
    def test_monotone_in_wl(self, fir_context):
        """More bits never hurt."""
        powers = [
            fir_context.model.noise_power(_uniform(fir_context, wl))
            for wl in (8, 12, 16, 20, 24, 28, 32)
        ]
        assert powers == sorted(powers, reverse=True)

    def test_edge_narrowing_adds_noise(self, fir_context):
        from repro.ir import OpKind

        spec = _uniform(fir_context, 32)
        base = fir_context.model.noise_power(spec)
        for op in fir_context.program.all_ops():
            if op.kind is OpKind.MUL:
                spec.set_edge_wl(op.opid, 0, 16)
                spec.set_edge_wl(op.opid, 1, 16)
        assert fir_context.model.noise_power(spec) > base

    def test_rounding_mode_shrinks_bias(self, small_fir):
        trunc = build_accuracy_model(
            small_fir, quant_mode=QuantMode.TRUNCATE
        )
        rnd = build_accuracy_model(small_fir, quant_mode=QuantMode.ROUND)
        slotmap = trunc.slotmap
        from repro.fixedpoint import FixedPointSpec, analyze_ranges, assign_iwls

        spec = FixedPointSpec(slotmap)
        assign_iwls(spec, analyze_ranges(small_fir, slotmap))
        for root in slotmap.roots:
            spec.set_wl(root, 12)
        assert rnd.noise_power(spec) < trunc.noise_power(spec)

    def test_violates_is_threshold(self, fir_context):
        spec = _uniform(fir_context, 16)
        level = fir_context.model.noise_db(spec)
        assert fir_context.model.violates(spec, level - 1.0)
        assert not fir_context.model.violates(spec, level + 1.0)

    def test_coeff_error_term_contributes(self, fir_context):
        from repro.accuracy import AccuracyModel

        with_coeff = fir_context.model
        without = AccuracyModel(
            fir_context.program, fir_context.slotmap, with_coeff.gains,
            include_coeff_error=False,
        )
        spec = _uniform(fir_context, 10)
        assert with_coeff.noise_power(spec) > without.noise_power(spec)

    def test_breakdown_sums_to_variance_part(self, fir_context):
        spec = _uniform(fir_context, 16)
        contributions = fir_context.model.breakdown(spec)
        assert contributions, "expected active sites at 16 bits"
        assert all(value >= 0 for _name, value in contributions)
        # breakdown is sorted descending
        values = [v for _n, v in contributions]
        assert values == sorted(values, reverse=True)

    def test_eval_count_increments(self, fir_context):
        """``eval_count`` counts the questions asked of single states; a
        trial-table row counts only when a visit re-asks it exactly."""
        model = _fresh_model(fir_context)
        spec = _uniform(fir_context, 16)
        model.noise_power(spec)
        assert model.eval_count == 1
        group = (_mul_pairs(fir_context)[0], 8)
        level = power_to_db(_fresh_trial(_fresh_model(fir_context), spec, [group]))
        trials = model.group_trials(spec, (group,))
        assert trials.violations(spec, level - 1.0).tolist() == [True]
        assert model.eval_count == 1  # decided by the row's bounds
        assert trials.violations(spec, level).tolist() == [False]
        assert (model.eval_count, model.table_rechecks) == (2, 1)


def _fresh_model(context):
    from repro.accuracy import AccuracyModel

    return AccuracyModel(context.program, context.slotmap, context.model.gains)


def _mul_pairs(context):
    """Lane tuples of every two multiplies (SLP-shaped groups)."""
    from itertools import combinations

    from repro.ir import OpKind

    muls = [o.opid for o in context.program.all_ops() if o.kind is OpKind.MUL]
    return list(combinations(muls, 2))


def _fresh_trial(model, spec, groups):
    """The uncached trial on ``model``: save, narrow, evaluate, revert."""
    from repro.slp import set_group_wl

    token = spec.save()
    for lanes, wl in groups:
        set_group_wl(spec, model.program, lanes, wl)
    power = model.noise_power(spec)
    spec.revert(token)
    return power


def _random_specs(context, count, seed):
    """``count`` distinct-ish specs: random WLs, binary points, edges."""
    from repro.ir import OpKind

    rng = np.random.default_rng(seed)
    roots = context.slotmap.roots
    muls = [o.opid for o in context.program.all_ops() if o.kind is OpKind.MUL]
    specs = []
    for _ in range(count):
        spec = _uniform(context, 32)
        for root in roots:
            spec.set_wl(root, int(rng.choice([8, 12, 16, 24, 32])))
        for opid in muls[: int(rng.integers(0, len(muls) + 1))]:
            spec.set_edge_wl(opid, int(rng.integers(0, 2)), 16)
        specs.append(spec)
    return specs


class TestNoiseMemo:
    """The state-keyed memo returns exactly what the closed form does."""

    def test_counts_hits_and_misses(self, fir_context):
        model = _fresh_model(fir_context)
        spec = _uniform(fir_context, 16)
        first = model.noise_power(spec)
        assert model.noise_power(spec) == first
        assert (model.eval_count, model.miss_count) == (2, 1)

    def test_edge_change_alone_misses(self, fir_context):
        from repro.ir import OpKind

        model = _fresh_model(fir_context)
        spec = _uniform(fir_context, 32)
        base = model.noise_power(spec)
        mul = next(
            o for o in fir_context.program.all_ops() if o.kind is OpKind.MUL
        )
        spec.set_edge_wl(mul.opid, 0, 8)
        narrowed = model.noise_power(spec)
        assert model.miss_count == 2
        assert narrowed > base
        assert narrowed == _fresh_model(fir_context).noise_power(spec)

    def test_random_walk_matches_fresh_models(self, fir_context):
        from repro.ir import OpKind

        rng = np.random.default_rng(2017)
        model = _fresh_model(fir_context)
        spec = _uniform(fir_context, 32)
        roots = fir_context.slotmap.roots
        muls = [
            o.opid for o in fir_context.program.all_ops() if o.kind is OpKind.MUL
        ]
        tokens = [spec.save()]
        for _ in range(120):
            move = rng.integers(0, 4)
            root = int(rng.choice(roots))
            if move == 0:
                spec.set_wl(root, int(rng.choice([8, 12, 16, 24, 32])))
            elif move == 1:
                spec.set_fwl(root, spec.wl(root) - int(rng.integers(1, 6)))
            elif move == 2:
                spec.set_edge_wl(
                    int(rng.choice(muls)), int(rng.integers(0, 2)),
                    int(rng.choice([8, 16, 127])),
                )
            else:
                spec.revert(tokens[int(rng.integers(0, len(tokens)))])
                del tokens[1:]
            tokens.append(spec.save())
            expected = _fresh_model(fir_context).noise_power(spec)
            assert model.noise_power(spec) == expected
        assert 0 < model.miss_count < model.eval_count  # the walk revisits

    def test_overfill_stays_within_cap(self, fir_context, monkeypatch):
        from repro.accuracy import analytical

        monkeypatch.setattr(analytical, "_MEMO_CAP", 8)
        model = _fresh_model(fir_context)
        specs = _random_specs(fir_context, 30, seed=5)
        for spec in specs:
            model.noise_power(spec)
            assert len(model._memo) <= 8
        reference = _fresh_model(fir_context)
        for spec in specs:
            assert model.noise_power(spec) == reference.noise_power(spec)

    def test_threads_share_one_model(self, fir_context, monkeypatch):
        """Concurrent job threads (``repro serve``) share one model: its
        state memo, its trial tables, its neighbourhood memo and its
        coefficient cache."""
        import sys
        import threading

        from repro.accuracy import analytical

        specs = _random_specs(fir_context, 40, seed=11)
        # Three multiply pairs at two widths: 6 validity rows and 15
        # pair rows per spec, decided at the noise of one pair row (a
        # recheck whose exact value the threads store concurrently).
        groups = tuple(
            (lanes, wl) for lanes in _mul_pairs(fir_context)[:3] for wl in (8, 16)
        )
        first, second = np.triu_indices(len(groups), 1)
        # Every root to 12 and to 24 bits, against the spec's own noise
        # level: that splits each neighbourhood, and a move to the width
        # a root already has lands on the constraint (a recheck).
        roots = [r for r in fir_context.slotmap.roots for _ in range(2)]
        wls = [12, 24] * (len(roots) // 2)
        constraints = [_fresh_model(fir_context).noise_db(s) for s in specs]

        def exact_trials(spec):
            reference = _fresh_model(fir_context)
            return [
                power_to_db(_fresh_trial(reference, spec, trial))
                for trial in [[g] for g in groups] + [
                    [groups[i], groups[j]] for i, j in zip(first, second)
                ]
            ]

        def exact_moves(spec, constraint):
            verdicts = []
            for root, wl in zip(roots, wls):
                token = spec.save()
                spec.set_wl(root, wl)
                verdicts.append(_fresh_model(fir_context).violates(spec, constraint))
                spec.revert(token)
            return verdicts

        levels = [exact_trials(s) for s in specs]
        # Each spec's trials are decided at its first pair row's noise.
        at = [level[len(groups)] for level in levels]
        expected = [
            (_fresh_model(fir_context).noise_power(s),
             [level > a for level in trial_levels[:len(groups)]],
             [level > a for level in trial_levels[len(groups):]],
             exact_moves(s, c))
            for s, c, trial_levels, a in zip(specs, constraints, levels, at)
        ]
        # Small caps make the threads race the clears too (the
        # coefficient cache sees 23 distinct keys; two tables fit under
        # the row cap).
        monkeypatch.setattr(analytical, "_MEMO_CAP", 16)
        monkeypatch.setattr(
            analytical, "_TABLE_ROW_CAP", 2 * (21 + analytical._TABLE_KEY_ROWS)
        )
        shared = _fresh_model(fir_context)
        results: dict[int, list] = {}

        def work(worker: int) -> None:
            # A recheck mutates its spec, so each job owns its specs;
            # only the model is shared.
            own = [spec.clone() for spec in specs]
            order = np.random.default_rng(worker).permutation(len(specs))
            got = [None] * len(specs)
            for _ in range(5):
                for index in order:
                    spec = own[index]
                    trials = shared.group_trials(spec, groups)
                    got[index] = (
                        shared.noise_power(spec),
                        trials.violations(spec, at[index]).tolist(),
                        trials.violations(
                            spec, at[index], first, second
                        ).tolist(),
                        shared.move_violations(
                            spec, roots, wls, constraints[index]
                        ).tolist(),
                    )
            assert [s.state_key() for s in own] == [
                s.state_key() for s in specs
            ]
            results[worker] = got

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
        assert [results.get(w) for w in range(4)] == [expected] * 4
        assert shared.table_rechecks > 0
        for memo in (shared._memo, shared._move_memo, shared._coeff_cache):
            assert len(memo) <= 16
        held = sum(table.charge for table in shared._trial_tables.values())
        assert held <= analytical._TABLE_ROW_CAP


def _per_class_evaluate(model, spec):
    """The closed form evaluated one site class at a time (a reference
    copy of the evaluator before the classes were fused)."""
    from repro.accuracy.analytical import _moments
    from repro.fixedpoint import NO_NARROW

    t = model._tables
    fwl = spec.fwl_vector()
    iwl = spec.iwl_vector()
    edge = spec.edge_wl_matrix()
    var_total = 0.0
    mean_total = 0.0
    if t.al_from.size:
        mean, var = _moments(fwl[t.al_from], fwl[t.al_to], model.quant_mode)
        var_total += float(np.dot(var, t.al_k2))
        mean_total += float(np.dot(mean, t.al_k1))
    if t.me_op.size:
        f_prod = fwl[t.me_prod]
        budget = edge[t.me_op, t.me_pos]
        f_cons = np.where(
            budget >= NO_NARROW, f_prod,
            np.minimum(f_prod, budget - iwl[t.me_prod]),
        )
        mean, var = _moments(f_prod, f_cons, model.quant_mode)
        var_total += float(np.dot(var, t.me_k2))
        mean_total += float(np.dot(mean, t.me_k1))
    if t.mo_op.size:
        total = np.zeros(t.mo_op.size, dtype=np.int64)
        for pos in (0, 1):
            producers = np.array(
                [model.program.op(int(o)).operands[pos] for o in t.mo_op],
                dtype=np.int64,
            )
            f_prod = fwl[producers]
            budget = edge[t.mo_op, pos]
            total = total + np.where(
                budget >= NO_NARROW, f_prod,
                np.minimum(f_prod, budget - iwl[producers]),
            )
        mean, var = _moments(total, fwl[t.mo_op], model.quant_mode)
        var_total += float(np.dot(var, t.mo_k2))
        mean_total += float(np.dot(mean, t.mo_k1))
    if t.in_to.size:
        q = np.ldexp(1.0, -fwl[t.in_to])
        var = q * q / 12.0
        var_total += float(np.dot(var, t.in_k2))
        if model.input_mode is QuantMode.TRUNCATE:
            mean_total += float(np.dot(-q / 2.0, t.in_k1))
    power = var_total + mean_total * mean_total
    if model.include_coeff_error and model._coeff_slots.size:
        power += model._coeff_power(fwl)
    return power


class TestFusedEvaluator:
    """One gather and one moments call give every float the per-class
    evaluation gives."""

    @pytest.mark.parametrize("kernel", [
        "conv", "dot", "fir", "iir", "sad", "scale_offset",
    ])
    def test_random_walks_match_the_per_class_form(self, small_kernels, kernel):
        from repro.accuracy import AccuracyModel, extract_gains
        from repro.fixedpoint import FixedPointSpec
        from repro.ir import OpKind

        program = small_kernels[kernel]
        slotmap = SlotMap(program)
        gains = extract_gains(program, slotmap, n_ref_outputs=2)
        muls = [o.opid for o in program.all_ops() if o.kind is OpKind.MUL]
        roots = slotmap.roots
        modes = (QuantMode.TRUNCATE, QuantMode.ROUND)
        rng = np.random.default_rng(2017)
        checked = 0
        for quant_mode in modes:
            for input_mode in modes:
                for coeff in (True, False):
                    model = AccuracyModel(
                        program, slotmap, gains, quant_mode=quant_mode,
                        input_mode=input_mode, include_coeff_error=coeff,
                    )
                    spec = FixedPointSpec(slotmap)
                    tokens = [spec.save()]
                    for _ in range(40):
                        move = rng.integers(0, 4)
                        root = int(rng.choice(roots))
                        if move == 0:
                            spec.set_wl(root, int(rng.choice([8, 12, 16, 32])))
                        elif move == 1:
                            spec.set_fwl(
                                root, spec.wl(root) - int(rng.integers(-2, 9))
                            )
                        elif move == 2 and muls:
                            spec.set_edge_wl(
                                int(rng.choice(muls)), int(rng.integers(0, 2)),
                                int(rng.choice([4, 8, 16, 127])),
                            )
                        elif len(tokens) > 1:
                            spec.revert(tokens[int(rng.integers(0, len(tokens)))])
                            del tokens[1:]
                        tokens.append(spec.save())
                        assert model._evaluate(spec) == _per_class_evaluate(
                            model, spec
                        )
                        checked += 1
        assert checked == 2 * 2 * 2 * 40


class TestSites:
    def test_fir_site_inventory(self, small_fir):
        slotmap = SlotMap(small_fir)
        sites = enumerate_sites(small_fir, slotmap)
        kinds = {}
        for site in sites:
            kinds[site.kind] = kinds.get(site.kind, 0) + 1
        n_muls = sum(
            1 for o in small_fir.all_ops() if o.kind.value == "mul"
        )
        assert kinds[SiteKind.MUL_OUT] == n_muls
        assert kinds[SiteKind.MUL_EDGE] == 2 * n_muls
        assert kinds[SiteKind.INPUT] == 1  # one input array

    def test_tied_edges_have_no_align_site(self, tiny_program):
        """acc = acc + v: the acc operand is format-tied to the add."""
        slotmap = SlotMap(tiny_program)
        sites = enumerate_sites(tiny_program, slotmap)
        from repro.ir import OpKind

        add = next(o for o in tiny_program.all_ops() if o.kind is OpKind.ADD)
        readvar_pos = [
            pos for pos, producer in enumerate(add.operands)
            if tiny_program.op(producer).kind is OpKind.READVAR
        ]
        align_positions = {
            site.pos for site in sites
            if site.kind is SiteKind.ALIGN and site.opid == add.opid
        }
        for pos in readvar_pos:
            assert pos not in align_positions


class TestMoments:
    def test_truncation_moments_match_empirical(self, rng):
        f_from, f_to = 20, 8
        mean, var = quant_noise_moments(f_from, f_to, QuantMode.TRUNCATE)
        samples = rng.integers(-(2 ** 30), 2 ** 30, size=20000)
        errors = ((samples >> (f_from - f_to)) * 2.0 ** -f_to
                  - samples * 2.0 ** -f_from)
        assert errors.mean() == pytest.approx(mean, rel=0.05)
        assert errors.var() == pytest.approx(var, rel=0.05)

    def test_rounding_moments_match_empirical(self, rng):
        f_from, f_to = 20, 8
        mean, var = quant_noise_moments(f_from, f_to, QuantMode.ROUND)
        samples = rng.integers(-(2 ** 30), 2 ** 30, size=20000)
        shift = f_from - f_to
        rounded = (samples + (1 << (shift - 1))) >> shift
        errors = rounded * 2.0 ** -f_to - samples * 2.0 ** -f_from
        assert errors.mean() == pytest.approx(mean, abs=var ** 0.5 / 50)
        assert errors.var() == pytest.approx(var, rel=0.05)

    def test_no_discard_no_noise(self):
        assert quant_noise_moments(8, 8, QuantMode.TRUNCATE) == (0.0, 0.0)
        assert quant_noise_moments(8, 16, QuantMode.TRUNCATE) == (0.0, 0.0)
