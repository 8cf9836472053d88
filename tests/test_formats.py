"""The numeric-format axis: registry, exact RNE quantization, the
arbitrary-precision bigfloat oracle, and format sweep cells.

Three contracts pinned here:

* **Exactness** — :class:`~repro.formats.FloatFormat` rounding is true
  IEEE RNE: bit-identical to numpy's float32/float16 casts on their
  shared formats, idempotent, subnormal- and overflow-correct.
* **Oracle soundness** (golden) — on every shipped kernel the float64
  reference agrees with the 200-bit ``bigfloat`` oracle to far below
  any noise level the experiments report, and fixed-point execution
  under the oracle backend stays bit-identical to the scalar
  reference.
* **No aliasing** — format cells key caches separately from
  fixed-point cells on every layer (request, pipeline signature, disk
  cache), while the default spelling stays byte-identical to the
  pre-format scheme.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from format_reference import reference_round
from repro.accuracy import FormatAccuracyEvaluator
from repro.accuracy.metrics import measured_noise_power
from repro.api import SweepRequest
from repro.errors import FormatError
from repro.experiments import (
    CellRequest,
    ExperimentRunner,
    KernelConfig,
    SweepCache,
    cell_pipeline_signature,
)
from repro.formats import (
    BigFloat,
    FloatFormat,
    available_formats,
    big_to_float,
    canonical_format,
    ensure_quantization_format,
    get_format,
    register_format,
)
from repro.ir import get_backend
from repro.kernels import conv2d, dot_product, fir, iir, sad, scale_offset
from repro.utils import power_to_db

SMALL = dict(
    n_samples=96, analysis_samples=96, image_size=18, analysis_image_size=18
)

#: Small instances of every registered kernel (mirrors
#: tests/test_backend.py's catalog).
KERNEL_BUILDERS = {
    "fir": lambda: fir(n_samples=40, n_taps=16),
    "iir": lambda: iir(n_samples=48, order=4),
    "conv": lambda: conv2d(height=11, width=12),
    "dot": lambda: dot_product(length=32),
    "sad": lambda: sad(length=32),
    "scale_offset": lambda: scale_offset(length=32),
}


def _stimuli(program, seed, count=2):
    rng = np.random.default_rng(seed)
    return [
        {
            decl.name: rng.uniform(*decl.value_range, size=decl.shape)
            for decl in program.input_arrays()
        }
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Exact RNE quantization.


class TestFloatFormatRounding:
    def _probe_values(self):
        rng = np.random.default_rng(7)
        values = list(rng.uniform(-4.0, 4.0, size=64))
        values += list(rng.normal(0.0, 1e-40, size=16))  # subnormal zone
        values += list(rng.normal(0.0, 1e38, size=16))  # overflow zone
        values += [0.0, -0.0, 1.0, -1.0, 2.0**-149, 2.0**-150, 1e39, -1e39]
        return np.array(values, dtype=np.float64)

    def test_float32_matches_numpy_cast_bit_for_bit(self):
        spec = get_format("float32")
        values = self._probe_values()
        ours = spec.quantize_array(values)
        with np.errstate(over="ignore"):  # the overflow-to-inf probes
            numpy_cast = values.astype(np.float32).astype(np.float64)
        assert np.array_equal(ours, numpy_cast)
        assert np.array_equal(np.signbit(ours), np.signbit(numpy_cast))

    def test_half_precision_matches_numpy_float16(self):
        # IEEE half is the binary(5,10) family member; numpy's float16
        # cast is the independent reference implementation.
        spec = get_format("binary(5,10)")
        values = np.array(
            list(np.random.default_rng(11).uniform(-70000, 70000, 64))
            + [2.0**-25, 2.0**-26, 65504.0, 65520.0, -65520.0, 1e-8],
            dtype=np.float64,
        )
        ours = spec.quantize_array(values)
        with np.errstate(over="ignore"):  # the overflow-to-inf probes
            numpy_cast = values.astype(np.float16).astype(np.float64)
        assert np.array_equal(ours, numpy_cast)

    @pytest.mark.parametrize("name", ["bfloat16", "binary(8,10)", "float32"])
    def test_rounding_is_idempotent(self, name):
        spec = get_format(name)
        once = spec.quantize_array(self._probe_values())
        finite = once[np.isfinite(once)]
        assert np.array_equal(spec.quantize_array(finite), finite)

    def test_signed_zero_and_infinities_preserved(self):
        spec = get_format("bfloat16")
        assert math.copysign(1.0, spec.round_value(-0.0)) == -1.0
        assert spec.round_value(math.inf) == math.inf
        assert spec.round_value(-math.inf) == -math.inf

    def test_overflow_rounds_to_infinity(self):
        bf16 = get_format("bfloat16")
        # bfloat16 max finite is 2**127 * (2 - 2**-7) ~= 3.39e38.
        assert bf16.round_value(1e39) == math.inf
        assert bf16.round_value(-1e39) == -math.inf
        assert bf16.round_value(3.38e38) != math.inf

    def test_tiny_values_round_onto_subnormal_grid(self):
        f32 = get_format("float32")
        ulp = 2.0**-149  # smallest float32 subnormal
        assert f32.round_value(ulp) == ulp
        assert f32.round_value(ulp * 0.25) == 0.0
        # Ties round to even: 1.5 ulp -> 2 ulp, 0.5 ulp -> 0.
        assert f32.round_value(ulp * 1.5) == 2 * ulp
        assert f32.round_value(ulp * 0.5) == 0.0

    def test_float64_is_the_identity(self):
        f64 = get_format("float64")
        values = self._probe_values()
        assert np.array_equal(f64.quantize_array(values), values)

    def test_shapes_survive_quantization(self):
        spec = get_format("float32")
        grid = np.random.default_rng(3).uniform(-1, 1, size=(4, 5))
        assert spec.quantize_array(grid).shape == (4, 5)

    def test_width_bounds_enforced(self):
        with pytest.raises(FormatError, match="exponent width"):
            FloatFormat("toowide", 12, 10)
        with pytest.raises(FormatError, match="mantissa width"):
            FloatFormat("toolong", 8, 53)


#: Formats whose rounding is held to the reference, edges included:
#: the registered reduced formats, IEEE half, the narrowest members, and
#: float64's exponent range with a shorter mantissa.
EXACTNESS_FORMATS = (
    "float32", "bfloat16", "binary(5,10)", "binary(2,1)", "binary(3,2)",
    "binary(11,51)", "binary(11,1)",
)


def _bits(values) -> bytes:
    """The float64 bits of ``values``: ``==`` cannot tell -0.0 from 0.0,
    and a NaN equals nothing."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _edge_values(spec) -> list[float]:
    """Each place the rounding can go wrong, both signs.

    The subnormal grid and the ties between its points; a tie in every
    binade (one rounding down to even, one up); the overflow threshold
    and one float64 ulp either side of it; and the float64 specials.
    """
    tiny = math.ldexp(1.0, spec.emin - spec.man_bits)  # subnormal step
    half_ulp = math.ldexp(1.0, -(spec.man_bits + 1))
    values = [k * tiny for k in range(0, 2 ** min(spec.man_bits, 10) + 3)]
    values += [(k + 0.5) * tiny for k in range(0, 2 ** min(spec.man_bits, 10) + 2)]
    for exponent in range(spec.emin, spec.emax + 1):
        values.append(math.ldexp(1.0 + half_ulp, exponent))
        values.append(math.ldexp(1.0 + 3 * half_ulp, exponent))
    threshold = math.ldexp(2.0 - half_ulp, spec.emax)
    with np.errstate(over="ignore"):  # float64's max has no next float
        above = float(np.nextafter(threshold, math.inf))
    values += [
        threshold, float(np.nextafter(threshold, 0.0)), above,
        math.ldexp(2.0 - 2 * half_ulp, spec.emax),  # the largest finite
    ]
    values += [
        0.0, math.inf, math.nan, 5e-324, 2.5e-323, 2.0**-1074 * 12345,
        2.0**-1022, np.nextafter(2.0**-1022, 0.0), 1.7976931348623157e308,
    ]
    return values + [-v for v in values]


class TestRoundingExactness:
    """``round_value`` and ``quantize_array`` equal the integer
    reference (``tests/format_reference.py``) bit for bit."""

    @pytest.mark.parametrize("name", EXACTNESS_FORMATS)
    def test_random_values(self, name):
        spec = get_format(name)
        rng = np.random.default_rng(sum(map(ord, name)))
        values = np.concatenate([
            rng.normal(0.0, 1.0, 4000),
            rng.standard_normal(4000) * np.exp2(rng.integers(
                max(spec.emin - spec.man_bits - 4, -1074),
                min(spec.emax + 3, 1024), 4000,
            ).astype(float)),
            rng.standard_normal(2000)
            * np.exp2(rng.integers(-1074, 1024, 2000).astype(float)),
        ])
        expected = _bits([reference_round(spec, v) for v in values.tolist()])
        assert _bits([spec.round_value(v) for v in values.tolist()]) == expected
        assert spec.quantize_array(values).tobytes() == expected

    @pytest.mark.parametrize("name", EXACTNESS_FORMATS)
    def test_edges(self, name):
        spec = get_format(name)
        values = _edge_values(spec)
        expected = _bits([reference_round(spec, v) for v in values])
        assert _bits([spec.round_value(v) for v in values]) == expected
        assert spec.quantize_array(np.array(values)).tobytes() == expected

    def test_overflow_threshold_rounds_to_infinity(self):
        for name in EXACTNESS_FORMATS:
            spec = get_format(name)
            half_ulp = math.ldexp(1.0, -(spec.man_bits + 1))
            threshold = math.ldexp(2.0 - half_ulp, spec.emax)
            largest = math.ldexp(2.0 - 2 * half_ulp, spec.emax)
            assert spec.round_value(threshold) == math.inf, name
            assert spec.round_value(-threshold) == -math.inf, name
            below = float(np.nextafter(threshold, 0.0))
            assert spec.round_value(below) == largest, name

    def test_half_matches_numpy_float16_on_the_edges(self):
        spec = get_format("binary(5,10)")
        values = np.array([v for v in _edge_values(spec) if not math.isnan(v)])
        with np.errstate(over="ignore"):  # the overflow-to-inf probes
            numpy_cast = values.astype(np.float16).astype(np.float64)
        assert spec.quantize_array(values).tobytes() == numpy_cast.tobytes()


# ----------------------------------------------------------------------
# The oracle value type.


class TestBigFloat:
    def test_float64_round_trips_exactly(self):
        for value in (0.1, -1.0 / 3.0, 2.0**-1060, 1.794e308, -0.0, 42.5):
            assert big_to_float(BigFloat.from_float(value)) == value

    def test_arithmetic_beats_float64(self):
        # 1 + 2**-80 cancels to exactly 2**-80 at 200-bit precision;
        # float64 would return 0.
        one = BigFloat.from_float(1.0)
        tiny = BigFloat.from_float(2.0**-80)
        assert float((one + tiny) - one) == 2.0**-80
        assert (1.0 + 2.0**-80) - 1.0 == 0.0  # the float64 failure mode

    def test_multiplication_is_exact_within_precision(self):
        x = BigFloat.from_float(1.5)
        assert float(x * x) == 2.25
        assert float(-x) == -1.5
        assert float(abs(-x)) == 1.5

    def test_mixed_type_comparisons(self):
        two = BigFloat.from_float(2.0)
        assert two == 2.0 and two == 2
        assert two > 1.75 and two < 3
        assert 1.75 < two  # reflected
        assert hash(two) == hash(BigFloat.from_float(2.0))

    def test_precision_rounding_is_rne(self):
        # 2**201 + 1 needs 202 bits; at prec=200 the tail rounds away.
        rounded = BigFloat((1 << 201) + 1, 0)
        assert rounded == BigFloat(1, 201)

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError, match="non-finite"):
            BigFloat.from_float(math.inf)

    def test_overflowing_conversion_saturates_to_inf(self):
        assert big_to_float(BigFloat(1, 2000)) == math.inf
        assert big_to_float(BigFloat(-1, 2000)) == -math.inf


# ----------------------------------------------------------------------
# Registry dialect and aliasing.


class TestFormatRegistry:
    def test_unknown_format_error_is_the_standard_dialect(self):
        with pytest.raises(FormatError) as excinfo:
            get_format("floot32")
        assert str(excinfo.value) == (
            "unknown format 'floot32'; available: bfloat16, bigfloat, "
            "binary(E,M), fixed, float32, float64"
        )

    def test_lookup_is_case_insensitive(self):
        assert get_format("Float32") is get_format("float32")
        assert get_format("") is get_format("fixed")

    def test_binary_family_is_memoized(self):
        assert get_format("binary(8, 10)") is get_format("BINARY(8,10)")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FormatError, match="already registered"):
            register_format(FloatFormat("float32", 8, 23))

    def test_oracle_is_not_sweepable(self):
        with pytest.raises(FormatError, match="not a.*sweepable"):
            ensure_quantization_format("bigfloat")
        assert ensure_quantization_format("float32").name == "float32"

    def test_listing_is_sorted(self):
        names = available_formats()
        assert names == sorted(names)
        assert {"fixed", "float32", "bfloat16", "bigfloat"} <= set(names)

    def test_canonical_spelling(self):
        assert canonical_format("") == ""
        assert canonical_format("Fixed") == ""
        assert canonical_format("Binary( 8 , 10 )") == "binary(8,10)"
        assert canonical_format("FLOAT32") == "float32"

    def test_fixed_spellings_never_split_cells(self):
        default = CellRequest("fir", "vex-1", -25.0, "tabu", "wlo-slp")
        spelled = CellRequest(
            "fir", "vex-1", -25.0, "tabu", "wlo-slp", format="fixed"
        )
        assert default == spelled
        assert default.format == ""


# ----------------------------------------------------------------------
# Oracle soundness (golden).


class TestOracleSoundness:
    #: The float64 reference's rounding noise vs the oracle must sit
    #: far below any constraint the experiments sweep (the loosest is
    #: -2.5 dB, the strictest -70 dB).
    REFERENCE_NOISE_CEILING_DB = -180.0

    @pytest.mark.parametrize("kernel", sorted(KERNEL_BUILDERS))
    def test_float64_reference_agrees_with_oracle(self, kernel):
        program = KERNEL_BUILDERS[kernel]()
        stimuli = _stimuli(program, 2017)
        float64 = get_backend("batch").run_float(program, stimuli)
        oracle = get_backend("bigfloat").run_float(program, stimuli)
        power = sum(
            measured_noise_power(exact, rounded)
            for exact, rounded in zip(oracle, float64)
        ) / len(stimuli)
        noise_db = power_to_db(power)
        assert noise_db < self.REFERENCE_NOISE_CEILING_DB, (kernel, noise_db)

    def test_oracle_fixed_point_is_bit_identical_to_scalar(self):
        # Fixed-point execution is exact integer arithmetic — the
        # oracle backend must not change a single bit of it.
        from repro.fixedpoint import (
            FixedPointSpec,
            SlotMap,
            analyze_ranges,
            assign_iwls,
        )

        program = KERNEL_BUILDERS["fir"]()
        slotmap = SlotMap(program)
        spec = FixedPointSpec(slotmap, max_wl=32)
        assign_iwls(spec, analyze_ranges(program, slotmap))
        for position, root in enumerate(slotmap.roots):
            spec.set_wl(root, (12, 16, 20, 24)[position % 4])
        stimuli = _stimuli(program, 5)
        reference = get_backend("scalar").run_fixed(program, spec, stimuli)
        measured = get_backend("bigfloat").run_fixed(program, spec, stimuli)
        for ref, got in zip(reference, measured):
            for name in ref:
                assert np.array_equal(ref[name], got[name]), name

    def test_oracle_tier_label(self):
        program = KERNEL_BUILDERS["dot"]()
        from repro.fixedpoint import FixedPointSpec, SlotMap

        spec = FixedPointSpec(SlotMap(program), max_wl=32)
        assert get_backend("bigfloat").fixed_tier(program, spec) \
            == "bigfloat[object]"

    def test_format_noise_ordering_is_physical(self):
        # More mantissa bits -> less noise, on the same kernel and
        # stimuli; float64's "noise" is the reference rounding floor.
        program = KERNEL_BUILDERS["fir"]()
        noise = {
            name: FormatAccuracyEvaluator(program, name, n_stimuli=2).noise_db()
            for name in ("float64", "float32", "bfloat16")
        }
        assert noise["float64"] < self.REFERENCE_NOISE_CEILING_DB
        assert noise["float64"] < noise["float32"] < noise["bfloat16"]
        assert noise["bfloat16"] < -20.0  # still a usable format


# ----------------------------------------------------------------------
# Cache separation.


class TestFormatCacheKeys:
    def _requests(self):
        base = CellRequest("fir", "vex-1", -25.0, "tabu", "wlo-slp")
        return base, [
            CellRequest("fir", "vex-1", -25.0, "tabu", "wlo-slp",
                        format=name)
            for name in ("float32", "bfloat16", "binary(8,10)")
        ]

    def test_pipeline_signatures_never_alias(self):
        import json

        base, formatted = self._requests()
        signatures = {
            json.dumps(cell_pipeline_signature(request), sort_keys=True)
            for request in [base] + formatted
        }
        assert len(signatures) == 1 + len(formatted)

    def test_disk_cache_keys_never_alias(self, tmp_path):
        cache = SweepCache(tmp_path)
        config = KernelConfig(**SMALL)
        base, formatted = self._requests()
        keys = {cache.key(config, request) for request in [base] + formatted}
        assert len(keys) == 1 + len(formatted)
        # ... while the canonical spelling maps to the same key.
        spelled = CellRequest("fir", "vex-1", -25.0, "tabu", "wlo-slp",
                              format="Float32")
        assert cache.key(config, spelled) == cache.key(config, formatted[0])


# ----------------------------------------------------------------------
# End-to-end format sweeps (small instances).


class TestFormatSweepCells:
    def test_float32_cell_through_the_runner(self):
        runner = ExperimentRunner(KernelConfig(**SMALL))
        cell = runner.cell("fir", "vex-1", -25.0, format="float32")
        fixed = runner.cell("fir", "vex-1", -25.0)
        # Format cells skip WLO: cycles are the float flow's, the
        # speedup columns are 1.0 by construction, and the noise is
        # the format's own rounding noise vs the oracle.
        assert cell.scalar_cycles == cell.wlo_slp_cycles == cell.float_cycles
        assert cell.wlo_slp_speedup == 1.0
        assert cell.wlo_first_groups == cell.wlo_slp_groups == 0
        assert cell.wlo_slp_noise_db == cell.wlo_first_noise_db
        assert cell.wlo_slp_noise_db < -100.0  # float32 on fir
        assert cell != fixed

    def test_format_cells_never_go_infeasible(self):
        runner = ExperimentRunner(KernelConfig(**SMALL))
        # -400 dB is infeasible for fixed point (see test_api) but a
        # format cell has no word lengths to search: it reports the
        # format's noise at any constraint.
        cell = runner.cell("fir", "vex-1", -400.0, format="float32")
        assert cell.constraint_db == -400.0

    def test_float32_sweep_through_the_api(self):
        request = SweepRequest(
            kernels=("fir",), targets=("vex-1",), grid=(-15.0, -25.0),
            format="float32", no_cache=True,
        ).validate()
        runner = ExperimentRunner.from_request(request, KernelConfig(**SMALL))
        report = runner.submit(request)
        report.ensure_complete()
        assert report.counts["computed"] >= 1
        for outcome in report.outcomes:
            assert report.cell_request(outcome).format == "float32"
            cell = report.cell(outcome)
            assert cell is not None and cell.wlo_slp_speedup == 1.0

    def test_bfloat16_sweep_through_the_service(self):
        from repro.serve import SweepService

        service = SweepService(config=KernelConfig(**SMALL))
        job = service.submit_payload({
            "kernels": ["fir"], "targets": ["vex-1"], "grid": [-15.0],
            "format": "bfloat16", "no_cache": True,
        })
        deadline = time.monotonic() + 120.0
        while True:
            poll = service.outcomes_since(job.id)
            if poll["status"] in ("done", "error"):
                break
            assert time.monotonic() < deadline, "job did not finish"
            time.sleep(0.05)
        assert poll["status"] == "done", poll["error"]
        (outcome,) = poll["outcomes"]
        assert outcome["request"]["format"] == "bfloat16"

    def test_unknown_format_fails_request_validation(self):
        with pytest.raises(FormatError, match="unknown format"):
            SweepRequest(format="posit16").validate()
