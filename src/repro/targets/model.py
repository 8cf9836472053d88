"""Processor target models.

A :class:`TargetModel` captures everything the optimizer and the cycle
model need to know about a processor: VLIW issue width, functional
unit counts, operation latencies, which sub-word SIMD lane widths
exist, pack/unpack costs and floating-point support.  The four targets
of the paper (XENTIUM, ST240, VEX-1, VEX-4) are built on this class;
users can define their own (see ``examples/custom_target.py``).

The search flows see a target only through its :class:`WordLengths`
(the scalar datapath and the SIMD lane widths): Tabu WLO moves through
the supported widths, and the joint flow derives each group's width
from eq. (1).  Issue width, units and latencies matter only once code
is lowered and scheduled, so two targets with equal word lengths share
every search result.

Unit classes
------------
``alu``   add/sub/min/max/abs/shift/pack/unpack/permute/extract/insert
``mul``   multiplies (and hardware FP, which shares the multiplier
          pipelines on the modeled cores)
``mem``   loads and stores
``sfu``   the soft-float "unit": a serialized stand-in for the emulation
          call sequence on FPU-less cores (non-pipelined on purpose)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import TargetError

__all__ = ["TargetModel", "WordLengths"]


@dataclass(frozen=True)
class WordLengths:
    """The word-length facts of a target, and every query on them.

    ``scalar_wl`` is the native scalar word length (= the SIMD datapath
    width) and ``simd_widths`` the sub-word lane widths, widest first.
    Built by :attr:`TargetModel.word_lengths`, which validates them.
    """

    scalar_wl: int
    simd_widths: tuple[int, ...]

    @property
    def supported_wls(self) -> tuple[int, ...]:
        """All word lengths an operation can be implemented at."""
        return (self.scalar_wl,) + tuple(self.simd_widths)

    @property
    def max_wl(self) -> int:
        """Maximum supported word length (the Fig. 1a initialization)."""
        return self.scalar_wl

    def lanes_for_wl(self, wl: int) -> int:
        """SIMD lanes available at word length ``wl`` (1 = scalar only)."""
        if wl in self.simd_widths:
            return self.scalar_wl // wl
        return 1

    def group_wl(self, n_elements: int) -> int | None:
        """Paper eq. (1): max supported ``m`` with ``m*Nelem <= SIMD size``.

        Returns ``None`` when no supported sub-word width can hold a
        group of ``n_elements`` lanes (the group cannot be SIMDized).
        """
        candidates = [
            wl for wl in self.simd_widths
            if wl * n_elements <= self.scalar_wl
        ]
        return max(candidates) if candidates else None

    @property
    def max_group_size(self) -> int:
        """Largest SIMD group the target can hold in one word."""
        if not self.simd_widths:
            return 1
        return self.scalar_wl // min(self.simd_widths)


@dataclass(frozen=True)
class TargetModel:
    """Static description of a VLIW SIMD target."""

    name: str
    issue_width: int
    #: Native scalar word length (= the SIMD datapath width), bits.
    scalar_wl: int = 32
    #: Sub-word SIMD lane widths supported, widest first (e.g. (16, 8)).
    simd_widths: tuple[int, ...] = (16,)
    #: Functional unit counts by class.
    units: dict[str, int] = field(
        default_factory=lambda: {"alu": 4, "mul": 2, "mem": 2, "sfu": 1}
    )
    #: Latency (cycles) by unit class; SIMD ops inherit their class.
    latencies: dict[str, int] = field(
        default_factory=lambda: {"alu": 1, "mul": 2, "mem": 2}
    )
    #: Unit classes that are busy for their full latency (not pipelined).
    non_pipelined: frozenset = frozenset({"sfu"})
    #: Hardware floating point support (ST240: yes, others: no).
    has_hw_float: bool = False
    #: Latencies of hardware float add/mul (on the ``mul`` unit class).
    float_latencies: dict[str, int] = field(
        default_factory=lambda: {"fadd": 3, "fmul": 3}
    )
    #: Per-call cycle costs of soft-float emulation (FPU-less cores).
    softfloat_cycles: dict[str, int] = field(
        default_factory=lambda: {"fadd": 38, "fsub": 40, "fmul": 27}
    )
    #: Barrel shifter: any-amount shifts in one cycle.  Without one, a
    #: shift by k costs k cycles (shift-register style).
    barrel_shifter: bool = True
    #: Cycles of taken-branch overhead charged per loop iteration.
    branch_penalty: int = 1

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise TargetError(f"{self.name}: issue width must be >= 1")
        for width in self.simd_widths:
            if width >= self.scalar_wl or self.scalar_wl % width:
                raise TargetError(
                    f"{self.name}: SIMD width {width} does not subdivide "
                    f"the {self.scalar_wl}-bit datapath"
                )
        for unit in ("alu", "mul", "mem"):
            if self.units.get(unit, 0) < 1:
                raise TargetError(f"{self.name}: needs at least one {unit!r} unit")

    # ------------------------------------------------------------------
    # Word-length queries (answered by :class:`WordLengths`)
    # ------------------------------------------------------------------
    @cached_property
    def word_lengths(self) -> WordLengths:
        """What the word-length searches may read of this target."""
        return WordLengths(self.scalar_wl, tuple(self.simd_widths))

    @property
    def supported_wls(self) -> tuple[int, ...]:
        """All word lengths an operation can be implemented at."""
        return self.word_lengths.supported_wls

    @property
    def max_wl(self) -> int:
        """Maximum supported word length (the Fig. 1a initialization)."""
        return self.word_lengths.max_wl

    def lanes_for_wl(self, wl: int) -> int:
        """SIMD lanes available at word length ``wl`` (1 = scalar only)."""
        return self.word_lengths.lanes_for_wl(wl)

    def group_wl(self, n_elements: int) -> int | None:
        """Paper eq. (1); see :meth:`WordLengths.group_wl`."""
        return self.word_lengths.group_wl(n_elements)

    @property
    def max_group_size(self) -> int:
        """Largest SIMD group the target can hold in one word."""
        return self.word_lengths.max_group_size

    # ------------------------------------------------------------------
    # Cost queries
    # ------------------------------------------------------------------
    def latency(self, unit: str) -> int:
        found = self.latencies.get(unit)
        if found is None:
            raise TargetError(f"{self.name}: no latency for unit {unit!r}")
        return found

    def shift_latency(self, amount: int) -> int:
        """Latency of a shift by a compile-time constant ``amount``."""
        if self.barrel_shifter or abs(amount) <= 1:
            return self.latencies.get("alu", 1)
        return abs(amount)

    def pack_ops(self, lanes: int) -> int:
        """ALU ops to assemble a ``lanes``-wide vector from scalars."""
        return max(0, lanes - 1)

    def unpack_ops(self, lanes: int) -> int:
        """ALU ops to scatter a vector back into scalars."""
        return max(0, lanes - 1)

    def loop_overhead_cycles(self) -> int:
        """Per-iteration loop maintenance: induction + taken branch.

        The induction update shares issue slots; on multi-issue
        machines it is absorbed into free slots and only the branch
        penalty remains, while a single-issue machine pays it in full.
        """
        induction = 1 if self.issue_width == 1 else 0
        return self.branch_penalty + induction

    def softfloat_latency(self, op: str) -> int:
        found = self.softfloat_cycles.get(op)
        if found is None:
            raise TargetError(f"{self.name}: no soft-float cost for {op!r}")
        return found

    def describe(self) -> str:
        simd = ", ".join(
            f"{self.scalar_wl // w}x{w}" for w in self.simd_widths
        )
        fp = "HW float" if self.has_hw_float else "soft float"
        return (
            f"{self.name}: {self.issue_width}-issue VLIW, "
            f"{self.scalar_wl}-bit, SIMD [{simd}], {fp}"
        )
