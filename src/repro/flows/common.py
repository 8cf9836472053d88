"""Shared flow plumbing: analysis context and result containers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.accuracy.analytical import AccuracyModel
from repro.accuracy.adjoint import extract_gains
from repro.errors import FlowError
from repro.fixedpoint.iwl import assign_iwls
from repro.fixedpoint.range_analysis import RangeResult, analyze_ranges
from repro.fixedpoint.spec import FixedPointSpec, SlotMap
from repro.ir.program import Program
from repro.scheduler.cycles import CycleReport
from repro.slp.groups import GroupSet

__all__ = ["AnalysisContext", "FlowResult", "flow_code_version", "speedup"]

def _is_semantic(relative: str) -> bool:
    """Whether a package-relative source path can change cell numbers.

    Pure presentation (``report/``), the CLI front end and the
    experiment orchestration layer are excluded — with one exception:
    ``experiments/engine.py`` holds the kernel builders and flow
    wiring of :func:`evaluate_cell`, so it is semantic.  Everything
    else — IR, kernels, flows, WLO, SLP, fixed-point, accuracy,
    scheduler, codegen, targets — participates.
    """
    top = relative.split("/", 1)[0]
    if top in ("report", "cli.py"):
        return False
    if top == "experiments":
        return relative == "experiments/engine.py"
    return True


@lru_cache(maxsize=1)
def flow_code_version() -> str:
    """Content hash of every source file that can change flow numbers.

    The on-disk sweep cache (:mod:`repro.experiments.cache`) keys each
    cell on this hash, so editing any semantic module (flows, WLO, SLP,
    accuracy, scheduler, codegen, kernels, targets, IR, fixed-point)
    invalidates stale results, while edits to tests, docs, the report
    renderers, the CLI, or the experiment harness leave the cache warm.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if not _is_semantic(relative):
            continue
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@dataclass
class AnalysisContext:
    """Reusable per-kernel analysis: ranges, noise gains, slot map.

    Building this is the expensive part of a flow (ranges + adjoints);
    sweeps over accuracy constraints and targets share one context.

    The *analysis twin* trick: gains and ranges are extracted from a
    structurally identical program with reduced trip counts (same ops,
    same ids, shorter loops), because steady-state noise gains converge
    long before the benchmark-sized iteration counts needed for
    realistic cycle numbers.  ``AnalysisContext.build`` verifies the
    twin matches op-for-op.
    """

    program: Program
    analysis_program: Program
    slotmap: SlotMap
    ranges: RangeResult
    model: AccuracyModel

    @staticmethod
    def build(
        program: Program,
        analysis_program: Program | None = None,
        range_method: str = "auto",
        n_ref_outputs: int = 4,
        seed: int = 90210,
        **model_kwargs: Any,
    ) -> "AnalysisContext":
        """Run range analysis and gain extraction for ``program``."""
        twin = analysis_program or program
        _check_twin(program, twin)
        slotmap = SlotMap(program)
        twin_slotmap = slotmap if twin is program else SlotMap(twin)
        ranges = analyze_ranges(twin, twin_slotmap, method=range_method)
        # Re-key the ranges onto the main slotmap (identical numbering).
        ranges = RangeResult(slotmap, ranges.ranges, ranges.method)
        gains = extract_gains(
            twin, twin_slotmap, n_ref_outputs=n_ref_outputs, seed=seed
        )
        model = AccuracyModel(program, slotmap, gains, **model_kwargs)
        return AnalysisContext(program, twin, slotmap, ranges, model)

    def fresh_spec(self, max_wl: int = 32) -> FixedPointSpec:
        """A new spec with range-derived IWLs and maximum WLs."""
        spec = FixedPointSpec(self.slotmap, max_wl=max_wl)
        assign_iwls(spec, self.ranges)
        return spec


def _check_twin(program: Program, twin: Program) -> None:
    if twin is program:
        return
    if twin.n_ops != program.n_ops:
        raise FlowError(
            f"analysis twin has {twin.n_ops} ops, program has {program.n_ops}"
        )
    for op, twin_op in zip(program.all_ops(), twin.all_ops()):
        if op.opid != twin_op.opid or op.kind is not twin_op.kind:
            raise FlowError(
                f"analysis twin diverges at op {op.opid} "
                f"({op.kind} vs {twin_op.kind})"
            )
    if sorted(program.arrays) != sorted(twin.arrays) or sorted(
        program.variables
    ) != sorted(twin.variables):
        raise FlowError("analysis twin symbol tables differ")


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
        noise = (
            f", noise {self.noise_db:.1f} dB" if self.noise_db is not None else ""
        )
        return (
            f"[{self.flow}] {self.program_name} on {self.target_name} @ "
            f"{self.constraint_db:g} dB: {self.total_cycles} cycles, "
            f"{self.n_groups} SIMD groups{noise}"
        )


def speedup(baseline: FlowResult | CycleReport, other: FlowResult | CycleReport) -> float:
    """Paper eq. (2): baseline cycles / other cycles."""
    base = baseline.total_cycles
    new = other.total_cycles
    if new <= 0:
        raise FlowError("cannot compute speedup over zero cycles")
    return base / new
