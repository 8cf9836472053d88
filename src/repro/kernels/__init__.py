"""The paper's benchmark kernels (plus auxiliary examples)."""

from repro.kernels.conv2d import conv2d, default_conv_kernel
from repro.kernels.extra import (
    KERNELS,
    dot_product,
    kernel_by_name,
    kernel_catalog,
    kernel_names,
    sad,
    scale_offset,
)
from repro.kernels.fir import default_fir_coefficients, fir
from repro.kernels.iir import default_iir_coefficients, iir

__all__ = [
    "KERNELS",
    "conv2d",
    "default_conv_kernel",
    "default_fir_coefficients",
    "default_iir_coefficients",
    "dot_product",
    "fir",
    "iir",
    "kernel_by_name",
    "kernel_catalog",
    "kernel_names",
    "sad",
    "scale_offset",
]
