"""C back-end tests: bit-exactness against the Python interpreter.

The scalar emitter is compiled with the system C compiler (when one
exists) and its output mantissas compared bit-for-bit with the
fixed-point interpreter — the strongest cross-validation in the suite.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.codegen import emit_fixed_point_c, emit_simd_c
from repro.fixedpoint import FxpConfig, OverflowMode, QuantMode, run_fixed_point
from repro.pipeline import run_flow
from repro.targets import get_target

HAVE_CC = shutil.which("cc") is not None

requires_cc = pytest.mark.skipif(not HAVE_CC, reason="no C compiler")


def _compile_and_run(source: str, tmp_path) -> np.ndarray:
    c_file = tmp_path / "kernel.c"
    binary = tmp_path / "kernel"
    c_file.write_text(source)
    subprocess.run(
        ["cc", "-O2", "-o", str(binary), str(c_file)],
        check=True, capture_output=True,
    )
    out = subprocess.run(
        [str(binary)], check=True, capture_output=True, text=True
    )
    return np.array([int(line) for line in out.stdout.split()])


def _mantissas(values: np.ndarray, fwl: int) -> np.ndarray:
    return np.round(np.asarray(values) * 2.0 ** fwl).astype(np.int64)


@requires_cc
class TestBitExactness:
    @pytest.mark.parametrize("wl", [32, 16, 12])
    def test_fir_scalar_c_matches_interpreter(
        self, fir_context, rng, tmp_path, wl
    ):
        program = fir_context.program
        spec = fir_context.fresh_spec()
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, wl)
        x = rng.uniform(-1, 1, program.arrays["x"].shape)
        source = emit_fixed_point_c(program, spec, inputs={"x": x})
        c_out = _compile_and_run(source, tmp_path)
        py_out = run_fixed_point(program, spec, {"x": x})["y"]
        fwl = spec.fwl(fir_context.slotmap.slot_of_symbol("y"))
        np.testing.assert_array_equal(c_out, _mantissas(py_out, fwl))

    def test_iir_scalar_c_matches_interpreter(
        self, iir_context, rng, tmp_path
    ):
        program = iir_context.program
        spec = iir_context.fresh_spec()
        for root in iir_context.slotmap.roots:
            spec.set_wl(root, 16)
        x = rng.uniform(-1, 1, program.arrays["x"].shape)
        source = emit_fixed_point_c(program, spec, inputs={"x": x})
        c_out = _compile_and_run(source, tmp_path)
        py_out = run_fixed_point(program, spec, {"x": x})["y"]
        fwl = spec.fwl(iir_context.slotmap.slot_of_symbol("y"))
        np.testing.assert_array_equal(c_out, _mantissas(py_out, fwl))

    def test_conv_scalar_c_matches_interpreter(
        self, conv_context, rng, tmp_path
    ):
        program = conv_context.program
        spec = conv_context.fresh_spec()
        for root in conv_context.slotmap.roots:
            spec.set_wl(root, 16)
        img = rng.uniform(-1, 1, program.arrays["img"].shape)
        source = emit_fixed_point_c(program, spec, inputs={"img": img})
        c_out = _compile_and_run(source, tmp_path)
        py_out = run_fixed_point(program, spec, {"img": img})["out"]
        fwl = spec.fwl(conv_context.slotmap.slot_of_symbol("out"))
        np.testing.assert_array_equal(
            c_out, _mantissas(py_out.ravel(), fwl)
        )

    def test_rounding_mode_matches(self, fir_context, rng, tmp_path):
        program = fir_context.program
        spec = fir_context.fresh_spec()
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, 14)
        config = FxpConfig(quant_mode=QuantMode.ROUND)
        x = rng.uniform(-1, 1, program.arrays["x"].shape)
        source = emit_fixed_point_c(program, spec, config, inputs={"x": x})
        c_out = _compile_and_run(source, tmp_path)
        py_out = run_fixed_point(program, spec, {"x": x}, config)["y"]
        fwl = spec.fwl(fir_context.slotmap.slot_of_symbol("y"))
        np.testing.assert_array_equal(c_out, _mantissas(py_out, fwl))

    def test_wrap_mode_matches(self, fir_context, rng, tmp_path):
        program = fir_context.program
        spec = fir_context.fresh_spec()
        for root in fir_context.slotmap.roots:
            spec.set_wl(root, 16)
        config = FxpConfig(overflow=OverflowMode.WRAP)
        x = rng.uniform(-1, 1, program.arrays["x"].shape)
        source = emit_fixed_point_c(program, spec, config, inputs={"x": x})
        c_out = _compile_and_run(source, tmp_path)
        py_out = run_fixed_point(program, spec, {"x": x}, config)["y"]
        fwl = spec.fwl(fir_context.slotmap.slot_of_symbol("y"))
        np.testing.assert_array_equal(c_out, _mantissas(py_out, fwl))


class TestStructural:
    def test_scalar_source_shape(self, fir_context):
        source = emit_fixed_point_c(
            fir_context.program, fir_context.fresh_spec()
        )
        assert "void kernel(void)" in source
        assert "static const int32_t h[" in source  # coeff initializer
        assert "requant(" in source
        assert "main" not in source  # no stimulus embedded

    def test_simd_source_uses_macro_api(self, fir_context):
        result = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), -15.0
        )
        source = emit_simd_c(
            fir_context.program, result.spec, result.groups
        )
        assert "V2MUL(" in source
        assert "V2ADD(" in source
        assert "V2LOAD(" in source
        assert "#define V2ADD" in source  # portable fallback present

    def test_simd_group_count_matches(self, fir_context):
        result = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), -15.0
        )
        source = emit_simd_c(
            fir_context.program, result.spec, result.groups
        )
        assert source.count("/* group g") == result.n_groups

    @requires_cc
    def test_simd_source_compiles(self, fir_context, tmp_path):
        result = run_flow(
            "wlo-slp", fir_context.program, get_target("xentium"), -15.0
        )
        source = emit_simd_c(
            fir_context.program, result.spec, result.groups
        )
        c_file = tmp_path / "simd.c"
        c_file.write_text(source + "\nint main(void) { kernel_simd(); return 0; }\n")
        subprocess.run(
            ["cc", "-O2", "-o", str(tmp_path / "simd"), str(c_file)],
            check=True, capture_output=True,
        )
