"""The shared artifact store flow pipelines operate on.

A :class:`FlowState` is a name → artifact dictionary seeded with the
flow inputs (``program``, ``analysis_program``, ``target``, the
target's ``word_lengths`` and — for constraint-driven flows —
``constraint_db``) that passes read from and write to.  The analysis
prefix reads neither target nor constraint, so
:meth:`~repro.pipeline.flows.AnalysisContext.build` seeds a state
without them.  Every artifact
carries a *fingerprint*: a content hash for the seeds and for the
``spec`` and ``groups`` a pass writes, and a hash of the producing
pass's cache key for every other derived artifact.  Fingerprints
are what make per-pass caching sound — a pass's cache key is built
from the fingerprints of everything it reads, so two pipelines sharing
an analysis prefix (same program, any constraint) resolve the prefix
to identical keys and reuse one computation.  The search passes read
``word_lengths`` instead of ``target`` for the same reason: targets
with one datapath share every search.  And since spec and groups are
hashed by content, searches at two constraints that reach equal ones
share SLP extraction, lowering and scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import FlowError
from repro.ir.program import Program
from repro.pipeline.cache import content_fingerprint
from repro.targets.model import TargetModel

__all__ = ["FlowState", "PassTiming"]


def _check_twin(program: Program, twin: Program) -> None:
    """Reject an analysis twin that does not match ``program``
    op-for-op (same op ids and kinds, same symbol tables)."""
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
class PassTiming:
    """Wall-time record of one pass execution (or cache hit)."""

    name: str
    seconds: float
    cached: bool = False

    @property
    def source(self) -> str:
        return "cached" if self.cached else "computed"


@dataclass
class FlowState:
    """Artifact store shared by the passes of one pipeline run."""

    artifacts: dict[str, Any] = field(default_factory=dict)
    fingerprints: dict[str, str] = field(default_factory=dict)
    timings: list[PassTiming] = field(default_factory=list)

    @staticmethod
    def seed(
        program: Program,
        target: TargetModel | None = None,
        constraint_db: float | None = None,
        analysis_program: Program | None = None,
    ) -> "FlowState":
        """A fresh state holding the flow inputs.

        The analysis twin defaults to the program itself; when given,
        it must match the program op-for-op.  Without a ``target`` the
        state holds no ``target`` or ``word_lengths`` artifact.
        """
        twin = analysis_program or program
        _check_twin(program, twin)
        state = FlowState()
        state.put("program", program)
        state.put("analysis_program", twin)
        if target is not None:
            state.put("target", target)
            state.put("word_lengths", target.word_lengths)
        if constraint_db is not None:
            state.put("constraint_db", float(constraint_db))
        return state

    # ------------------------------------------------------------------
    def put(self, name: str, value: Any, fingerprint: str | None = None) -> None:
        """Store an artifact; content-fingerprinted unless one is given."""
        self.artifacts[name] = value
        self.fingerprints[name] = fingerprint or content_fingerprint(value)

    def get(self, name: str) -> Any:
        try:
            return self.artifacts[name]
        except KeyError:
            raise FlowError(
                f"pipeline state has no artifact {name!r}; "
                f"available: {sorted(self.artifacts)}"
            ) from None

    def has(self, name: str) -> bool:
        return name in self.artifacts

    def fingerprint(self, name: str) -> str:
        try:
            return self.fingerprints[name]
        except KeyError:
            raise FlowError(
                f"pipeline state has no artifact {name!r}; "
                f"available: {sorted(self.artifacts)}"
            ) from None

    # ------------------------------------------------------------------
    def timing_report(self) -> str:
        """Human-readable per-pass wall-time table (``--timings``)."""
        if not self.timings:
            return "(no passes ran)"
        width = max(len(t.name) for t in self.timings)
        lines = [f"{'pass':<{width}}  {'ms':>9}  source"]
        for timing in self.timings:
            lines.append(
                f"{timing.name:<{width}}  {timing.seconds * 1e3:>9.2f}  "
                f"{timing.source}"
            )
        total = sum(t.seconds for t in self.timings)
        cached = sum(1 for t in self.timings if t.cached)
        lines.append(
            f"{'total':<{width}}  {total * 1e3:>9.2f}  "
            f"({cached}/{len(self.timings)} passes cached)"
        )
        return "\n".join(lines)
