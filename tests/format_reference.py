"""Reference rounding onto a binary float format's grid.

This is the exact integer form ``FloatFormat.round_value`` had before
it became a frexp/round/ldexp rounding: the value as an exact dyadic
``man * 2**exp`` (``float.as_integer_ratio``), the mantissa shifted
onto the format's grid with the shared integer round-half-even
primitive, subnormals clamped at ``emin - man_bits``, and overflow past
``emax`` to infinity.  ``tests/test_formats.py`` holds ``round_value``
and ``quantize_array`` to it bit for bit.
"""

from __future__ import annotations

import math

from repro.fixedpoint.quantize import round_half_even_shift


def reference_round(fmt, value: float) -> float:
    """Nearest value of ``fmt`` (a ``FloatFormat``) to ``value``, RNE."""
    value = float(value)
    if value == 0.0 or not math.isfinite(value):
        return value
    if fmt.exp_bits == 11 and fmt.man_bits == 52:
        return value  # float64: already on the grid
    numerator, denominator = value.as_integer_ratio()
    man, exp = numerator, -(denominator.bit_length() - 1)
    exponent = exp + man.bit_length() - 1  # floor(log2 |value|)
    ulp_exp = max(exponent, fmt.emin) - fmt.man_bits
    shift = ulp_exp - exp
    if shift <= 0:
        man <<= -shift
    else:
        man = round_half_even_shift(man, shift)
    if man == 0:
        return math.copysign(0.0, value)
    if ulp_exp + man.bit_length() - 1 > fmt.emax:
        return math.copysign(math.inf, value)
    return math.ldexp(man, ulp_exp)
