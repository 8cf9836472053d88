"""Result containers of the flows, and the paper's speedup (eq. 2)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.errors import FlowError
from repro.fixedpoint.spec import FixedPointSpec
from repro.scheduler.cycles import CycleReport
from repro.slp.groups import GroupSet

__all__ = ["FlowResult", "WloFirstResult", "speedup"]


@dataclass
class FlowResult:
    """Outcome of one compilation flow on one (target, constraint).

    ``spec`` is the caller's own copy.  ``cycles``, ``groups`` and the
    ``extra`` statistics may be pass-cache artifacts that later results
    share (a twin target's, or a rerun's), so treat them as read-only.
    """

    flow: str
    program_name: str
    target_name: str
    #: NaN for flows without an accuracy constraint (``float``).
    constraint_db: float
    spec: FixedPointSpec | None
    cycles: CycleReport
    #: SIMD groups per block (empty/None for scalar and float flows).
    groups: dict[str, GroupSet] | None = None
    #: Analytical output noise power of the final spec (dB).
    noise_db: float | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.cycles.total_cycles

    @property
    def n_groups(self) -> int:
        if not self.groups:
            return 0
        return sum(len(gs) for gs in self.groups.values())

    def summary(self) -> str:
        constraint = (
            "" if math.isnan(self.constraint_db)
            else f" @ {self.constraint_db:g} dB"
        )
        noise = (
            f", noise {self.noise_db:.1f} dB" if self.noise_db is not None else ""
        )
        return (
            f"[{self.flow}] {self.program_name} on {self.target_name}"
            f"{constraint}: {self.total_cycles} cycles, "
            f"{self.n_groups} SIMD groups{noise}"
        )


class WloFirstResult:
    """Scalar and SIMD results of one WLO-First run.

    The *scalar* cycles are the denominator of every speedup in the
    paper's Fig. 4 and Fig. 6; the *SIMD* cycles are WLO-First's own
    best effort after decoupled SLP extraction.
    """

    def __init__(self, scalar: FlowResult, simd: FlowResult) -> None:
        self.scalar = scalar
        self.simd = simd

    @property
    def spec(self):
        return self.scalar.spec

    def summary(self) -> str:
        return f"{self.scalar.summary()}\n{self.simd.summary()}"


def speedup(baseline: FlowResult | CycleReport, other: FlowResult | CycleReport) -> float:
    """Paper eq. (2): baseline cycles / other cycles."""
    base = baseline.total_cycles
    new = other.total_cycles
    if new <= 0:
        raise FlowError("cannot compute speedup over zero cycles")
    return base / new
