"""Shared fixtures: small kernels and session-cached analysis contexts.

Tests use reduced problem sizes (the algorithms are size-independent);
contexts are session-scoped because gain extraction is the expensive
step and every accuracy/flow test needs one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir import ProgramBuilder, loop_index
from repro.kernels import conv2d, fir, iir, kernel_by_name, kernel_names
from repro.pipeline import AnalysisContext


@pytest.fixture(scope="session")
def small_fir():
    """16-tap FIR over 64 samples (same shape as the paper's, smaller)."""
    return fir(n_samples=64, n_taps=16)


@pytest.fixture(scope="session")
def small_iir():
    """4th-order IIR over 256 samples."""
    return iir(n_samples=256, order=4)


@pytest.fixture(scope="session")
def small_conv():
    """3x3 convolution over a 18x18 image."""
    return conv2d(height=18, width=18)


@pytest.fixture(scope="session")
def small_kernels():
    """A small instance of every shipped kernel (``repro kernels``), by
    name; sizes are reduced, shapes are the paper's."""
    sizes = {
        "fir": dict(n_samples=40, n_taps=16),
        "iir": dict(n_samples=48, order=4),
        "conv": dict(height=11, width=12),
        "dot": dict(length=32),
        "sad": dict(length=32),
        "scale_offset": dict(length=32),
    }
    assert sorted(sizes) == kernel_names()
    return {name: kernel_by_name(name, **size) for name, size in sizes.items()}


@pytest.fixture(scope="session")
def fir_context(small_fir) -> AnalysisContext:
    return AnalysisContext.build(small_fir)


@pytest.fixture(scope="session")
def iir_context(small_iir) -> AnalysisContext:
    return AnalysisContext.build(small_iir)


@pytest.fixture(scope="session")
def conv_context(small_conv) -> AnalysisContext:
    return AnalysisContext.build(small_conv)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def build_tiny_accumulate(n: int = 8) -> "ProgramBuilder":
    """A minimal accumulate kernel used by several unit tests."""
    builder = ProgramBuilder("tiny")
    x = builder.input_array("x", (n,), value_range=(-1.0, 1.0))
    y = builder.output_array("y", (1,))
    acc = builder.scalar("acc")
    with builder.block("init"):
        builder.setvar(acc, builder.const(0.0))
    with builder.loop("i", n):
        with builder.block("body"):
            v = builder.load(x, loop_index("i"))
            builder.setvar(acc, builder.add(builder.getvar(acc), v))
    with builder.block("fin"):
        builder.store(y, 0, builder.getvar(acc))
    return builder.build()


@pytest.fixture()
def tiny_program():
    return build_tiny_accumulate()
