"""The paper's FIR benchmark.

A 64-tap FIR filter whose innermost (tap) loop is partially unrolled
by 4 with four partial accumulators (Section V-C: "the innermost loop
in FIR ... is partially unrolled by 4 to expose SLP").  The filter is
written in correlation form, ``y[n] = sum_k x[n+k] * h[k]``, so that
the data and coefficient lanes of an unrolled iteration walk memory in
the same ascending order — the layout every production FIR kernel uses
to make vector loads possible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IRError
from repro.ir.builder import ProgramBuilder
from repro.ir.index import loop_index
from repro.ir.program import Program

__all__ = ["fir", "default_fir_coefficients"]


def default_fir_coefficients(n_taps: int = 64) -> np.ndarray:
    """A unit-DC-gain lowpass (the classic benchmark filter).

    The windowed-sinc design ``scipy.signal.firwin(n_taps, 0.25)``:
    cutoff 0.25 of Nyquist, symmetric Hamming window, scaled to unit
    gain at DC.  Every step follows scipy's own operation order, so
    the taps are bit-identical to scipy's; ``np.hamming`` is not (it
    differs in the last bit).
    """
    cutoff = 0.25
    m = np.arange(n_taps, dtype=np.float64) - 0.5 * (n_taps - 1)
    taps = cutoff * np.sinc(cutoff * m)
    # The Hamming window as scipy's general_cosine accumulates it.
    fac = np.linspace(-np.pi, np.pi, n_taps)
    window = np.zeros(n_taps)
    for k, weight in enumerate((0.54, 1.0 - 0.54)):
        window += weight * np.cos(k * fac)
    taps *= window
    taps /= np.sum(taps)  # unit gain at DC
    return taps


def fir(
    n_samples: int = 2048,
    n_taps: int = 64,
    unroll: int = 4,
    coefficients: np.ndarray | None = None,
    name: str | None = None,
) -> Program:
    """Build the FIR benchmark program.

    Parameters
    ----------
    n_samples:
        Output length (outer loop trip count).
    n_taps:
        Filter length; must be divisible by ``unroll``.
    unroll:
        Partial unroll factor of the tap loop (paper: 4), one partial
        accumulator per unrolled lane.
    coefficients:
        Filter taps; defaults to a 0.25-normalized-band lowpass.
    """
    if n_taps % unroll:
        raise IRError(f"n_taps ({n_taps}) must be divisible by unroll ({unroll})")
    taps = (
        default_fir_coefficients(n_taps)
        if coefficients is None
        else np.asarray(coefficients, dtype=np.float64)
    )
    if taps.shape != (n_taps,):
        raise IRError(f"expected {n_taps} coefficients, got {taps.shape}")

    b = ProgramBuilder(name or f"fir{n_taps}")
    x = b.input_array("x", (n_samples + n_taps - 1,), value_range=(-1.0, 1.0))
    h = b.coeff_array("h", taps)
    y = b.output_array("y", (n_samples,))
    accumulators = [b.scalar(f"acc{j}") for j in range(unroll)]

    n = loop_index("n")
    k = loop_index("k")
    with b.loop("n", n_samples):
        with b.block("init"):
            zero = b.const(0.0)
            for acc in accumulators:
                b.setvar(acc, zero)
        with b.loop("k", n_taps // unroll):
            with b.block("body"):
                for j, acc in enumerate(accumulators):
                    xv = b.load(x, n + k * unroll + j)
                    hv = b.load(h, k * unroll + j)
                    term = b.mul(xv, hv, label=f"tap{j}")
                    b.setvar(acc, b.add(b.getvar(acc), term), label=f"acc{j}")
        with b.block("reduce"):
            partials = [b.getvar(acc) for acc in accumulators]
            while len(partials) > 1:
                partials = [
                    b.add(partials[i], partials[i + 1])
                    for i in range(0, len(partials) - 1, 2)
                ] + ([partials[-1]] if len(partials) % 2 else [])
            b.store(y, n, partials[0], label="y[n]")
    return b.build()
