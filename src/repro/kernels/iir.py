"""The paper's IIR benchmark.

A 10th-order IIR filter in direct form I, with both tap loops
partially unrolled by 4 into four shared partial accumulators (paper
Section V-C).  The feedback taps use *negated* coefficients so every
multiply-accumulate is an isomorphic ``acc += value * coeff`` —
exactly what an engineer does to expose SLP in a DF-I loop.

Tap counts are padded with zero coefficients to a multiple of the
unroll factor (the standard trick); the padded taps read guard cells
that are always zero, so the filter's response is unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IRError
from repro.ir.builder import ProgramBuilder
from repro.ir.index import loop_index
from repro.ir.program import Program
from repro.utils import ceil_div

__all__ = ["iir", "default_iir_coefficients"]


def default_iir_coefficients(order: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) of a stable Butterworth lowpass of the given order.

    The design ``scipy.signal.butter(order, 0.25)``: the analog
    prototype's poles scaled to the pre-warped cutoff, then the
    bilinear transform at ``fs = 2``.  Every step follows scipy's own
    operation order, so both polynomials are bit-identical to scipy's.
    """
    fs2 = 4.0  # 2 * fs
    warped = fs2 * np.tan(np.pi * 0.25 / 2.0)
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = warped * -np.exp(1j * np.pi * m / (2 * order))
    gain = warped**order * np.real(1.0 / np.prod(fs2 - poles))
    b = gain * np.poly(-np.ones(order))
    a = np.poly((fs2 + poles) / (fs2 - poles))
    return b, a


def iir(
    n_samples: int = 2048,
    order: int = 10,
    unroll: int = 4,
    coefficients: tuple[np.ndarray, np.ndarray] | None = None,
    name: str | None = None,
) -> Program:
    """Build the IIR benchmark program (direct form I).

    ``y[n] = sum_i b[i] x[n-i] - sum_j a[j] y[n-j]`` with ``order+1``
    feed-forward and ``order`` feedback taps.
    """
    if coefficients is None:
        b_taps, a_taps = default_iir_coefficients(order)
    else:
        b_taps = np.asarray(coefficients[0], dtype=np.float64)
        a_taps = np.asarray(coefficients[1], dtype=np.float64)
    if len(b_taps) != order + 1 or len(a_taps) != order + 1:
        raise IRError(
            f"order-{order} filter needs {order + 1} coefficients per side"
        )
    if abs(a_taps[0] - 1.0) > 1e-12:
        raise IRError("a[0] must be 1 (normalized filter)")

    n_b = ceil_div(order + 1, unroll) * unroll
    n_a = ceil_div(order, unroll) * unroll
    b_padded = np.zeros(n_b)
    b_padded[: order + 1] = b_taps
    # Feedback taps negated: acc += y_hist * (-a[j]).
    na_padded = np.zeros(n_a)
    na_padded[:order] = -a_taps[1:]

    # Guard cells: b taps reach x[n + order - i] for i < n_b, i.e. down
    # to index n + order - (n_b - 1); a taps reach y[n + order - j] for
    # 1 <= j <= n_a.  Shifting all indices by the pad depth keeps every
    # subscript non-negative, and guard cells stay zero forever.
    x_guard = max(0, n_b - 1 - order)
    y_guard = max(0, n_a - order)

    builder = ProgramBuilder(name or f"iir{order}")
    x = builder.input_array(
        "x", (n_samples + order + x_guard,), value_range=(-1.0, 1.0)
    )
    bc = builder.coeff_array("bc", b_padded)
    nac = builder.coeff_array("nac", na_padded)
    y = builder.output_array("y", (n_samples + order + y_guard,))
    accumulators = [builder.scalar(f"acc{j}") for j in range(unroll)]

    n = loop_index("n")
    k = loop_index("k")
    with builder.loop("n", n_samples):
        with builder.block("init"):
            zero = builder.const(0.0)
            for acc in accumulators:
                builder.setvar(acc, zero)
        with builder.loop("k", n_b // unroll):
            with builder.block("btaps"):
                for j, acc in enumerate(accumulators):
                    tap = k * unroll + j
                    xv = builder.load(x, n + order + x_guard - tap)
                    cv = builder.load(bc, tap)
                    term = builder.mul(xv, cv, label=f"b{j}")
                    builder.setvar(acc, builder.add(builder.getvar(acc), term))
        with builder.loop("k", n_a // unroll):
            with builder.block("ataps"):
                for j, acc in enumerate(accumulators):
                    tap = k * unroll + j  # feedback delay = tap + 1
                    yv = builder.load(y, n + order + y_guard - 1 - tap)
                    cv = builder.load(nac, tap)
                    term = builder.mul(yv, cv, label=f"a{j}")
                    builder.setvar(acc, builder.add(builder.getvar(acc), term))
        with builder.block("reduce"):
            partials = [builder.getvar(acc) for acc in accumulators]
            while len(partials) > 1:
                partials = [
                    builder.add(partials[i], partials[i + 1])
                    for i in range(0, len(partials) - 1, 2)
                ] + ([partials[-1]] if len(partials) % 2 else [])
            builder.store(y, n + order + y_guard, partials[0], label="y[n]")
    return builder.build()
