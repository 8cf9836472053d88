"""Numeric formats as a first-class axis — the fifth registry.

The paper evaluates fixed-point quantization only; this module makes
"which number format" an explicit, registry-resolved choice next to
flows, WLO engines, simulation backends and execution backends:

* ``fixed`` — the existing Q-format path (:mod:`repro.fixedpoint`):
  per-slot word lengths optimized by the WLO engines.  The default;
  cells spell it ``""`` internally so pre-format cache keys and
  request payloads stay byte-identical.
* ``float64`` — the reference format (IEEE binary64).  Sweeping it
  measures the float64 reference's *own* rounding noise against the
  ``bigfloat`` oracle.
* ``float32`` / ``bfloat16`` — IEEE binary32 and brain-float16, the
  common reduced-precision deployment targets.
* ``binary(E,M)`` — parameterized custom-width binary floats (``E``
  exponent bits, ``M`` explicit mantissa bits), resolved on demand
  from the name, e.g. ``binary(8,10)``.
* ``bigfloat`` — the arbitrary-precision binary-float oracle: exact
  Python-int mantissas rounded to :data:`ORACLE_PRECISION` bits after
  every operation (the same zero-dependency trick as the exact
  object-lane fixed-point tier).  Registered as the third evaluation
  backend in :mod:`repro.ir.backend`; not itself a sweepable
  quantization target.

Quantization is *exact*: every float format rounds a float64 with
``math.frexp`` / ``round`` / ``math.ldexp`` — the significand scaled to
the bits the format keeps (fewer below its normal range), rounded
half-to-even by ``round`` (exact on a float), scaled back — true IEEE
round-to-nearest-even including subnormals and overflow to infinity,
never a double-rounding through intermediate dtypes.  It equals the
integer form (``float.as_integer_ratio()`` plus the shared
:func:`~repro.fixedpoint.quantize.round_half_even_shift` primitive,
kept as a test reference in ``tests/format_reference.py``) bit for bit
and takes about half its time; the format simulations call it once per
rounded op.  :func:`big_to_float` keeps the integer form.

:data:`FORMATS` is a :class:`repro.registry.Registry` like every other
name table: case-insensitive lookups, with the standard ``unknown
<kind> '<name>'; available: …`` error (:class:`~repro.errors.FormatError`).
"""

from __future__ import annotations

import math
import re

import numpy as np

from repro.errors import FormatError, unknown_name_error
from repro.fixedpoint.quantize import round_half_even_shift
from repro.registry import Registry, canonical_name

__all__ = [
    "DEFAULT_FORMAT",
    "FORMATS",
    "ORACLE_PRECISION",
    "BigFloat",
    "BigFloatFormat",
    "FixedFormat",
    "FloatFormat",
    "FormatSpec",
    "available_formats",
    "big_to_float",
    "canonical_format",
    "ensure_quantization_format",
    "get_format",
    "register_format",
]

#: The format every request means when it does not say — the paper's
#: fixed-point path (spelled ``""`` in requests and cache keys).
DEFAULT_FORMAT = "fixed"

#: Working precision (mantissa bits) of the ``bigfloat`` oracle.  ~4x
#: float64; kernels are a few thousand multiply-adds deep, so the
#: accumulated oracle rounding error sits hundreds of dB below any
#: format noise it is used to measure.
ORACLE_PRECISION = 200

#: float64's parameters, used both to register the reference format
#: and to bound the custom formats representable inside a float64.
_F64_EXP_BITS = 11
_F64_MAN_BITS = 52
_F64_EMIN = -(2 ** (_F64_EXP_BITS - 1) - 1) + 1  # -1022


def _dyadic_parts(value: float) -> tuple[int, int]:
    """``value`` as exact ``(mantissa, exponent)`` with 2**exponent scale."""
    numerator, denominator = value.as_integer_ratio()
    # Finite floats always have a power-of-two denominator.
    return numerator, -(denominator.bit_length() - 1)


def _round_dyadic(
    man: int, exp: int, man_bits: int, emin: int
) -> tuple[int, int]:
    """RNE of ``man * 2**exp`` onto the grid of a binary float format.

    Returns the rounded ``(mantissa, ulp_exponent)``; the ulp exponent
    is clamped at ``emin - man_bits`` so values below the normal range
    round onto the subnormal grid (possibly to zero).
    """
    exponent = exp + man.bit_length() - 1  # floor(log2 |value|)
    ulp_exp = max(exponent, emin) - man_bits
    shift = ulp_exp - exp
    if shift <= 0:
        return man << -shift, ulp_exp
    return round_half_even_shift(man, shift), ulp_exp


# ----------------------------------------------------------------------
# The oracle value type.


class BigFloat:
    """An arbitrary-precision binary float: int mantissa × 2**exponent.

    Every arithmetic result is rounded to nearest-even at ``prec``
    mantissa bits — exactly an IEEE binary float with an unbounded
    exponent.  Addition, multiplication, negation, absolute value and
    comparisons are all the batch interpreter needs (the kernel IR has
    no division), and the operator overloads make ``dtype=object``
    ndarrays of BigFloats vectorize straight through the existing
    elementwise executor code.
    """

    __slots__ = ("man", "exp", "prec")

    def __init__(self, man: int, exp: int, prec: int = ORACLE_PRECISION) -> None:
        if man:
            overflow = man.bit_length() - prec
            if overflow > 0:
                man = round_half_even_shift(man, overflow)
                exp += overflow
                if man.bit_length() > prec:  # carry out: exact power of two
                    man >>= 1
                    exp += 1
            # Normalize trailing zeros so alignment shifts stay small
            # and equal values share one representation.
            trailing = (man & -man).bit_length() - 1
            if trailing:
                man >>= trailing
                exp += trailing
        else:
            exp = 0
        self.man = man
        self.exp = exp
        self.prec = prec

    # ------------------------------------------------------------------
    @classmethod
    def from_float(cls, value: float, prec: int = ORACLE_PRECISION) -> "BigFloat":
        if not math.isfinite(value):
            raise FormatError(
                f"bigfloat cannot represent non-finite value {value!r}"
            )
        man, exp = _dyadic_parts(float(value))
        return cls(man, exp, prec)

    def __float__(self) -> float:
        return big_to_float(self)

    # ------------------------------------------------------------------
    def _coerce(self, other: object) -> "BigFloat | None":
        if isinstance(other, BigFloat):
            return other
        if isinstance(other, (int, float, np.floating, np.integer)):
            return BigFloat.from_float(float(other), self.prec)
        return None

    def __add__(self, other: object):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        prec = max(self.prec, rhs.prec)
        if self.exp >= rhs.exp:
            return BigFloat(
                (self.man << (self.exp - rhs.exp)) + rhs.man, rhs.exp, prec
            )
        return BigFloat(
            self.man + (rhs.man << (rhs.exp - self.exp)), self.exp, prec
        )

    __radd__ = __add__

    def __sub__(self, other: object):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self.__add__(-rhs)

    def __rsub__(self, other: object):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs.__add__(-self)

    def __mul__(self, other: object):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return BigFloat(
            self.man * rhs.man, self.exp + rhs.exp, max(self.prec, rhs.prec)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "BigFloat":
        return BigFloat(-self.man, self.exp, self.prec)

    def __abs__(self) -> "BigFloat":
        return BigFloat(abs(self.man), self.exp, self.prec)

    def __pos__(self) -> "BigFloat":
        return self

    # ------------------------------------------------------------------
    def _compare(self, other: object) -> int | None:
        rhs = self._coerce(other)
        if rhs is None:
            return None
        lhs_man, rhs_man = self.man, rhs.man
        if self.exp >= rhs.exp:
            lhs_man <<= self.exp - rhs.exp
        else:
            rhs_man <<= rhs.exp - self.exp
        return (lhs_man > rhs_man) - (lhs_man < rhs_man)

    def __eq__(self, other: object):
        order = self._compare(other)
        return NotImplemented if order is None else order == 0

    def __ne__(self, other: object):
        order = self._compare(other)
        return NotImplemented if order is None else order != 0

    def __lt__(self, other: object):
        order = self._compare(other)
        return NotImplemented if order is None else order < 0

    def __le__(self, other: object):
        order = self._compare(other)
        return NotImplemented if order is None else order <= 0

    def __gt__(self, other: object):
        order = self._compare(other)
        return NotImplemented if order is None else order > 0

    def __ge__(self, other: object):
        order = self._compare(other)
        return NotImplemented if order is None else order >= 0

    def __hash__(self) -> int:
        # Normalized (man, exp) is canonical per value, so equal
        # BigFloats hash equal; cross-type hashing is not needed.
        return hash((self.man, self.exp))

    def __repr__(self) -> str:
        return f"BigFloat({self.man}*2**{self.exp})"


def big_to_float(value: BigFloat) -> float:
    """Nearest float64 of a :class:`BigFloat` (RNE, subnormal-exact)."""
    if value.man == 0:
        return 0.0
    man, ulp_exp = _round_dyadic(
        value.man, value.exp, _F64_MAN_BITS, _F64_EMIN
    )
    if man == 0:
        return 0.0
    try:
        # |man| <= 2**53 here, so float(man) and the ldexp are exact.
        return math.ldexp(man, ulp_exp)
    except OverflowError:
        return math.inf if value.man > 0 else -math.inf


# ----------------------------------------------------------------------
# Format specifications.


class FormatSpec:
    """One registered numeric format — name, kind, and quantizer."""

    #: ``"fixed"`` (Q-format path), ``"float"`` (binary float
    #: quantization target) or ``"oracle"`` (evaluation reference).
    kind: str = "float"
    name: str = "format"
    description: str = ""
    #: Whether ``repro sweep --format NAME`` accepts this format as the
    #: quantization target of every cell.
    sweepable: bool = True

    def round_value(self, value: float) -> float:
        """Nearest representable value of this format (RNE)."""
        raise NotImplementedError

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`round_value` over a float64 array."""
        arr = np.asarray(values, dtype=np.float64)
        flat = np.array(
            [self.round_value(v) for v in arr.reshape(-1).tolist()],
            dtype=np.float64,
        )
        return flat.reshape(arr.shape)

    def listing(self) -> dict[str, object]:
        """The format's entry in :func:`repro.api.registry_listing`."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class FixedFormat(FormatSpec):
    """The paper's Q-format fixed-point path (the default format).

    Quantization here is *not* a single rounding function: the flows
    assign a per-slot format (:class:`~repro.fixedpoint.spec.FixedPointSpec`)
    and the WLO engines optimize it, so this spec is a registry marker
    whose cells run the existing pipelines unchanged.
    """

    kind = "fixed"
    name = "fixed"
    description = (
        "per-slot Q-format fixed point, word lengths optimized by the "
        "WLO engines (the paper's path; the default)"
    )

    def round_value(self, value: float) -> float:
        raise FormatError(
            "the 'fixed' format has no single rounding function; "
            "fixed-point quantization is the per-slot spec the flows "
            "optimize"
        )


class FloatFormat(FormatSpec):
    """An IEEE-style binary float with E exponent / M mantissa bits.

    ``man_bits`` counts the explicit (stored) mantissa bits, so
    float64 is ``FloatFormat(11, 52)``, float32 ``(8, 23)`` and
    bfloat16 ``(8, 7)``.  Only formats whose values are representable
    in a float64 are constructible (``exp_bits <= 11``,
    ``man_bits <= 52``): quantized execution carries values in float64
    arrays, which is exact precisely under that bound.
    """

    kind = "float"

    def __init__(
        self,
        name: str,
        exp_bits: int,
        man_bits: int,
        description: str = "",
    ) -> None:
        if not 2 <= exp_bits <= _F64_EXP_BITS:
            raise FormatError(
                f"binary float exponent width must be in "
                f"[2, {_F64_EXP_BITS}], got {exp_bits}"
            )
        if not 1 <= man_bits <= _F64_MAN_BITS:
            raise FormatError(
                f"binary float mantissa width must be in "
                f"[1, {_F64_MAN_BITS}], got {man_bits}"
            )
        self.name = name
        self.exp_bits = exp_bits
        self.man_bits = man_bits
        self.emax = 2 ** (exp_bits - 1) - 1
        self.emin = 1 - self.emax
        #: The least magnitude that rounds to infinity, 2**(emax + 1);
        #: float64 cannot hold it when ``exp_bits == 11``, where ldexp
        #: raises instead.
        self._overflow = (
            math.ldexp(1.0, self.emax + 1) if exp_bits < _F64_EXP_BITS
            else math.inf
        )
        self.description = description or (
            f"binary float, {exp_bits} exponent + {man_bits} mantissa bits"
        )

    @property
    def bits(self) -> int:
        """Total storage bits (sign + exponent + explicit mantissa)."""
        return 1 + self.exp_bits + self.man_bits

    # ------------------------------------------------------------------
    def round_value(self, value: float) -> float:
        value = float(value)
        if value == 0.0 or not math.isfinite(value):
            return value
        if self.exp_bits == _F64_EXP_BITS and self.man_bits == _F64_MAN_BITS:
            return value  # float64: already on the grid
        # value = m * 2**e with 0.5 <= |m| < 1.  Keep p significant
        # bits of m: man_bits + 1, fewer below the normal range, where
        # the grid's step stays 2**(emin - man_bits).
        m, e = math.frexp(value)
        p = self.man_bits + 1
        if e <= self.emin:
            p += e - self.emin - 1
        try:
            # ldexp scales exactly; round() of a float is exact RNE.
            rounded = math.ldexp(round(math.ldexp(m, p)), e - p)
        except OverflowError:  # past float64's range (exp_bits == 11)
            return math.copysign(math.inf, value)
        if rounded == 0.0:
            return math.copysign(0.0, value)
        if abs(rounded) >= self._overflow:
            return math.copysign(math.inf, value)
        return rounded

    def quantize_array(self, values: np.ndarray) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        if self.exp_bits == _F64_EXP_BITS and self.man_bits == _F64_MAN_BITS:
            return arr.copy()
        return super().quantize_array(arr)

    def listing(self) -> dict[str, object]:
        return {
            **super().listing(),
            "exp_bits": self.exp_bits,
            "man_bits": self.man_bits,
            "bits": self.bits,
        }


class BigFloatFormat(FormatSpec):
    """The arbitrary-precision oracle (an evaluation reference).

    Not sweepable: it quantizes nothing — it is the third evaluation
    backend (``--sim-backend bigfloat``) and the reference every float
    format's noise is measured against.
    """

    kind = "oracle"
    name = "bigfloat"
    sweepable = False

    def __init__(self, precision: int = ORACLE_PRECISION) -> None:
        self.precision = precision
        self.description = (
            f"arbitrary-precision binary-float oracle "
            f"({precision}-bit mantissas, exact Python ints); "
            f"evaluation reference, not a quantization target"
        )

    def round_value(self, value: float) -> float:
        # Every float64 is exactly representable at oracle precision.
        return float(value)

    def listing(self) -> dict[str, object]:
        return {**super().listing(), "precision": self.precision}


# ----------------------------------------------------------------------
# Registry.

FORMATS: Registry[FormatSpec] = Registry("format", FormatError)
available_formats = FORMATS.names
#: Dynamically resolved ``binary(E,M)`` specs, memoized by canonical
#: name (they behave as if registered, but the listing shows only the
#: named formats plus the family hint).
_BINARY_CACHE: dict[str, FloatFormat] = {}

_BINARY_PATTERN = re.compile(r"binary\(\s*(\d+)\s*,\s*(\d+)\s*\)")

#: The hint appended to unknown-format errors for the parameterized
#: family — not a registered name itself.
_BINARY_FAMILY = "binary(E,M)"


def register_format(
    spec: FormatSpec, *, overwrite: bool = False
) -> FormatSpec:
    """Register a format spec; returns it (decorator-friendly)."""
    return FORMATS.register(spec.name, spec, overwrite=overwrite)


def canonical_format(name: str) -> str:
    """The canonical spelling of a format name — the aliasing guard.

    ``""`` and ``"fixed"`` (any case) both mean the default fixed-point
    path and canonicalize to ``""`` — the spelling every pre-format
    request, cache key and payload already uses — so the two can never
    key distinct cells.  ``binary(E,M)`` spellings lose whitespace.
    Unknown names pass through lowercased; they fail lookup later with
    the standard registry error.
    """
    key = canonical_name(name).strip()
    if key in ("", DEFAULT_FORMAT):
        return ""
    match = _BINARY_PATTERN.fullmatch(key)
    if match:
        return f"binary({int(match.group(1))},{int(match.group(2))})"
    return key


def get_format(name: str) -> FormatSpec:
    """Look a format up by name (case-insensitive).

    ``""`` resolves to the default ``fixed`` format; ``binary(E,M)``
    names construct (and memoize) the parameterized custom float.
    """
    key = canonical_format(name) or DEFAULT_FORMAT
    found = FORMATS.find(key)
    if found is not None:
        return found
    match = _BINARY_PATTERN.fullmatch(key)
    if match:
        cached = _BINARY_CACHE.get(key)
        if cached is None:
            cached = FloatFormat(
                key, int(match.group(1)), int(match.group(2))
            )
            _BINARY_CACHE[key] = cached
        return cached
    raise unknown_name_error(
        FormatError, "format", name, available_formats() + [_BINARY_FAMILY]
    )


def ensure_quantization_format(name: str) -> FormatSpec:
    """Resolve ``name`` and require a sweepable quantization target.

    The validation behind ``--format``: the oracle is an evaluation
    reference, so asking to *sweep* it is a request error, not a cell
    failure deep inside a worker.
    """
    spec = get_format(name)
    if not spec.sweepable:
        sweepable = [n for n in available_formats() if FORMATS.get(n).sweepable]
        raise FormatError(
            f"format {spec.name!r} is an evaluation oracle, not a "
            f"sweepable quantization target; pick one of "
            f"{', '.join(sweepable)} or {_BINARY_FAMILY}"
        )
    return spec


register_format(FixedFormat())
register_format(FloatFormat(
    "float64", _F64_EXP_BITS, _F64_MAN_BITS,
    "IEEE binary64 — the reference format; sweeping it measures the "
    "reference's own rounding noise against the bigfloat oracle",
))
register_format(FloatFormat(
    "float32", 8, 23, "IEEE binary32 single precision",
))
register_format(FloatFormat(
    "bfloat16", 8, 7, "brain float 16 (binary32 range, 8-bit mantissa)",
))
register_format(BigFloatFormat())
