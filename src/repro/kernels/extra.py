"""Auxiliary kernels used by examples and tests.

Not part of the paper's benchmark suite, but exercising parts of the
IR the three paper kernels do not (ABS/SUB in SAD, multiple outputs in
scale-offset), and small enough for quick-start material.
:data:`KERNELS` is the catalog of every kernel by name, paper kernels
included (a :class:`repro.registry.Registry`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import IRError
from repro.ir.builder import ProgramBuilder
from repro.ir.index import loop_index
from repro.ir.program import Program
from repro.kernels.conv2d import conv2d
from repro.kernels.fir import fir
from repro.kernels.iir import iir
from repro.registry import Registry

__all__ = [
    "KERNELS",
    "KernelSpec",
    "dot_product",
    "kernel_by_name",
    "kernel_catalog",
    "kernel_names",
    "sad",
    "scale_offset",
]


def dot_product(length: int = 64, unroll: int = 4, name: str = "dot") -> Program:
    """Unrolled dot product of two input vectors (quick-start kernel)."""
    if length % unroll:
        raise IRError(f"length ({length}) must be divisible by unroll ({unroll})")
    builder = ProgramBuilder(name)
    a = builder.input_array("a", (length,), value_range=(-1.0, 1.0))
    bv = builder.input_array("b", (length,), value_range=(-1.0, 1.0))
    out = builder.output_array("out", (1,))
    accumulators = [builder.scalar(f"acc{j}") for j in range(unroll)]

    i = loop_index("i")
    with builder.block("init"):
        zero = builder.const(0.0)
        for acc in accumulators:
            builder.setvar(acc, zero)
    with builder.loop("i", length // unroll):
        with builder.block("body"):
            for j, acc in enumerate(accumulators):
                av = builder.load(a, i * unroll + j)
                bvv = builder.load(bv, i * unroll + j)
                builder.setvar(
                    acc, builder.add(builder.getvar(acc), builder.mul(av, bvv))
                )
    with builder.block("reduce"):
        partials = [builder.getvar(acc) for acc in accumulators]
        while len(partials) > 1:
            partials = [
                builder.add(partials[i2], partials[i2 + 1])
                for i2 in range(0, len(partials) - 1, 2)
            ] + ([partials[-1]] if len(partials) % 2 else [])
        builder.store(out, 0, partials[0])
    return builder.build()


def sad(length: int = 64, unroll: int = 4, name: str = "sad") -> Program:
    """Sum of absolute differences (motion estimation inner loop)."""
    if length % unroll:
        raise IRError(f"length ({length}) must be divisible by unroll ({unroll})")
    builder = ProgramBuilder(name)
    a = builder.input_array("ref", (length,), value_range=(-1.0, 1.0))
    bv = builder.input_array("cur", (length,), value_range=(-1.0, 1.0))
    out = builder.output_array("out", (1,))
    accumulators = [builder.scalar(f"acc{j}") for j in range(unroll)]

    i = loop_index("i")
    with builder.block("init"):
        zero = builder.const(0.0)
        for acc in accumulators:
            builder.setvar(acc, zero)
    with builder.loop("i", length // unroll):
        with builder.block("body"):
            for j, acc in enumerate(accumulators):
                av = builder.load(a, i * unroll + j)
                bvv = builder.load(bv, i * unroll + j)
                diff = builder.abs_(builder.sub(av, bvv))
                builder.setvar(acc, builder.add(builder.getvar(acc), diff))
    with builder.block("reduce"):
        partials = [builder.getvar(acc) for acc in accumulators]
        while len(partials) > 1:
            partials = [
                builder.add(partials[i2], partials[i2 + 1])
                for i2 in range(0, len(partials) - 1, 2)
            ] + ([partials[-1]] if len(partials) % 2 else [])
        builder.store(out, 0, partials[0])
    return builder.build()


def scale_offset(
    length: int = 64,
    scale: float = 0.7,
    offset: float = 0.05,
    name: str = "scale_offset",
) -> Program:
    """Elementwise ``y = scale * x + offset`` (simplest SLP shape)."""
    builder = ProgramBuilder(name)
    x = builder.input_array("x", (length,), value_range=(-1.0, 1.0))
    y = builder.output_array("y", (length,))
    i = loop_index("i")
    unroll = 2
    if length % unroll:
        raise IRError(f"length ({length}) must be even")
    with builder.loop("i", length // unroll):
        with builder.block("body"):
            for j in range(unroll):
                xv = builder.load(x, i * unroll + j)
                scaled = builder.mul(xv, builder.const(scale))
                builder.store(
                    y, i * unroll + j,
                    builder.add(scaled, builder.const(offset)),
                )
    return builder.build()


@dataclass(frozen=True)
class KernelSpec:
    """One catalog kernel: its factory and a one-line description."""

    name: str
    build: Callable[..., Program]
    description: str

    def listing(self) -> dict[str, str]:
        """The kernel's entry in :func:`repro.api.registry_listing`."""
        return {"name": self.name, "description": self.description}


KERNELS: Registry[KernelSpec] = Registry("kernel", IRError)
for _spec in (
    KernelSpec("conv", conv2d, "3x3 image convolution, fully unrolled (paper)"),
    KernelSpec("dot", dot_product, "unrolled dot product (quick-start kernel)"),
    KernelSpec("fir", fir, "64-tap FIR filter, tap loop unrolled by 4 (paper)"),
    KernelSpec("iir", iir, "10th-order IIR filter, direct form I (paper)"),
    KernelSpec("sad", sad, "sum of absolute differences (motion estimation)"),
    KernelSpec("scale_offset", scale_offset, "elementwise y = scale*x + offset"),
):
    KERNELS.register(_spec.name, _spec)
kernel_names = KERNELS.names


def kernel_catalog() -> dict[str, tuple]:
    """Every registered kernel: name → (factory, one-line description)."""
    specs = map(KERNELS.get, kernel_names())
    return {spec.name: (spec.build, spec.description) for spec in specs}


def kernel_by_name(name: str, **kwargs) -> Program:
    """Build any :data:`KERNELS` entry by name (case-insensitive)."""
    return KERNELS.get(name).build(**kwargs)
