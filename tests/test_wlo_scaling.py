"""SCALOPTIM (paper Fig. 1b) tests."""

from repro.ir import OpKind, ProgramBuilder, loop_index
from repro.slp import GroupSet, SIMDGroup
from repro.wlo import lane_shifts, optimize_scalings, superword_reuses


def _mismatch_setup():
    """Two mul->store lanes with different mul formats: the consumer
    (store) group needs different per-lane shifts until SCALOPTIM
    uniformizes the producer lane formats.  A second, full-precision
    output (z) also consumes the products, so producer-side fixes are
    not noise-free — the accuracy guard has something to reject."""
    b = ProgramBuilder("mismatch")
    x = b.input_array("x", (32,), value_range=(-1.0, 1.0))
    h = b.coeff_array("h", [0.5, 0.25])
    y = b.output_array("y", (32,))
    z = b.output_array("z", (32,))
    i = loop_index("i")
    with b.loop("i", 16):
        with b.block("body"):
            t0 = b.mul(b.load(x, i * 2), b.load(h, 0))
            t1 = b.mul(b.load(x, i * 2 + 1), b.load(h, 1))
            b.store(y, i * 2, t0)
            b.store(y, i * 2 + 1, t1)
            b.store(z, i * 2, t0)
            b.store(z, i * 2 + 1, t1)
    program = b.build()

    from repro.pipeline import AnalysisContext

    context = AnalysisContext.build(program)
    spec = context.fresh_spec()
    ops = program.blocks["body"].ops
    muls = tuple(o.opid for o in ops if o.kind is OpKind.MUL)
    stores = tuple(
        o.opid for o in ops if o.kind is OpKind.STORE and o.array == "y"
    )
    groups = GroupSet("body")
    groups.add(SIMDGroup(0, "body", OpKind.MUL, muls, 16))
    groups.add(SIMDGroup(1, "body", OpKind.STORE, stores, 16))
    for opid in muls + stores:
        spec.set_wl(opid, 16)
    # Both lanes need *positive* (right) shifts into the store format,
    # but by different amounts: lane 0 by 3 bits, lane 1 by 1 bit.
    spec.set_fwl(stores[0], spec.fwl(muls[0]) - 3)
    spec.set_fwl(muls[1], spec.fwl(stores[0]) + 1)
    return program, context, spec, groups, muls, stores


class TestLaneShifts:
    def test_mismatch_detected(self):
        program, context, spec, groups, muls, stores = _mismatch_setup()
        store_group = groups.groups[1]
        shifts = lane_shifts(spec, program, store_group, 0)
        assert shifts == [3, 1]

    def test_reuse_edges_found(self):
        program, context, spec, groups, muls, stores = _mismatch_setup()
        reuses = superword_reuses(groups, program)
        assert len(reuses) == 1
        producer, consumer, pos = reuses[0]
        assert producer.kind is OpKind.MUL
        assert consumer.kind is OpKind.STORE and pos == 0


class TestOptimizeScalings:
    def test_uniformizes_when_budget_allows(self):
        program, context, spec, groups, muls, stores = _mismatch_setup()
        stats = optimize_scalings(program, spec, context.model, -20.0, groups)
        assert stats.fixed == 1
        shifts = lane_shifts(spec, program, groups.groups[1], 0)
        assert len(set(shifts)) == 1

    def test_rejected_when_budget_exhausted(self):
        program, context, spec, groups, muls, stores = _mismatch_setup()
        level = context.model.noise_db(spec)
        stats = optimize_scalings(
            program, spec, context.model, level + 0.1, groups
        )
        # No fix possible without violating the (already tight) budget
        # on the producer side; consumer side cannot move (store group
        # writes one array with one format).
        assert stats.fixed == 0
        assert stats.rejected_by_accuracy + stats.skipped_untieable >= 1

    def test_accuracy_never_violated(self):
        program, context, spec, groups, muls, stores = _mismatch_setup()
        for constraint in (-10.0, -30.0, -50.0):
            token = spec.save()
            optimize_scalings(program, spec, context.model, constraint, groups)
            assert not context.model.violates(spec, constraint)
            spec.revert(token)

    def test_already_uniform_is_noop(self, fir_context):
        """FIR's accumulator chains are format-tied: zero shifts."""
        from repro.wlo import wlo_slp_optimize
        from repro.targets import get_target

        spec = fir_context.fresh_spec()
        outcome = wlo_slp_optimize(
            fir_context.program, spec, fir_context.model,
            get_target("xentium"), -15.0, harmonize=False,
        )
        stats = outcome.scaling
        assert stats.reuse_edges > 0
        assert stats.already_uniform == stats.reuse_edges - stats.fixed - (
            stats.rejected_by_accuracy + stats.skipped_negative
            + stats.skipped_untieable
        )


class TestWordLengthsPreserved:
    def test_scaloptim_moves_binary_points_only(self):
        program, context, spec, groups, muls, stores = _mismatch_setup()
        wl_before = spec.wl_vector().copy()
        optimize_scalings(program, spec, context.model, -20.0, groups)
        assert (spec.wl_vector() == wl_before).all()
