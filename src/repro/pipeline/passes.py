"""The pass library: every stage of the paper's flows as a `Pass`.

A pass is a named, parameterized transformation over a
:class:`~repro.pipeline.state.FlowState`: it declares which artifacts
it ``reads`` and ``writes``, and :meth:`Pass.run` returns the written
artifacts as a dict.  Passes whose outputs are immutable downstream
set ``cacheable`` and are memoized across pipeline runs by content
hash (see :mod:`repro.pipeline.cache`) — in a constraint sweep the
whole analysis prefix (range analysis, adjoint gains, accuracy model)
resolves from cache on every constraint after the first.

Each pass body makes the same calls, with the same defaults and in the
same order, as the corresponding step of the hand-wired reference flows
in ``tests/flow_reference.py``; ``tests/test_pipeline.py`` holds every
flow bit-identical to that reference.
"""

from __future__ import annotations

import inspect
from typing import Any

from repro.accuracy.adjoint import extract_gains
from repro.accuracy.analytical import AccuracyModel
from repro.codegen.floatgen import lower_float_program
from repro.codegen.scalar import lower_scalar_program
from repro.codegen.simd import lower_simd_program
from repro.errors import FlowError, unknown_name_error
from repro.fixedpoint.iwl import assign_iwls
from repro.fixedpoint.range_analysis import RangeResult, analyze_ranges
from repro.fixedpoint.spec import FixedPointSpec, SlotMap
from repro.ir.backend import DEFAULT_BACKEND
from repro.pipeline.state import FlowState
from repro.scheduler.cycles import program_cycles
from repro.slp.extraction import SelectionStats, extract_groups_decoupled
from repro.wlo.continuation import (
    CONTINUATION_MODES,
    lookup_continuation,
    lookup_frontier,
    record_continuation,
    record_frontier,
)
from repro.wlo.pareto import ParetoResult, pareto_frontier
from repro.wlo.registry import get_wlo_engine
from repro.wlo.slp_aware import JointWarmStart, wlo_slp_optimize

__all__ = [
    "ANALYSIS_PASS_NAMES",
    "AccuracyModelPass",
    "AdjointGainsPass",
    "DecoupledSlpPass",
    "IwlAssignmentPass",
    "JointWloSlpPass",
    "LowerFloatPass",
    "LowerScalarPass",
    "LowerSimdPass",
    "NoiseReportPass",
    "Pass",
    "RangeAnalysisPass",
    "SchedulePass",
    "WloPass",
    "check_pass_list",
]


class Pass:
    """One step of a flow pipeline.

    Subclasses set ``name``, declare ``reads``/``writes`` (artifact
    names on the :class:`FlowState`), and implement :meth:`run`
    returning a dict with exactly the ``writes`` keys.  ``cacheable``
    marks passes whose outputs are never mutated downstream and may
    therefore be shared between pipeline runs.  Constructor parameters
    that change the pass's behaviour must be reported by
    :meth:`params` — they are part of the cache key and of the flow's
    resolved structure (which the sweep cache keys cells on).
    """

    name: str = "pass"
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    cacheable: bool = False

    def params(self) -> dict[str, Any]:
        """Cache-relevant constructor parameters."""
        return {}

    def signature(self) -> str:
        """Stable identity: name plus sorted parameters."""
        params = self.params()
        if not params:
            return self.name
        rendered = ",".join(f"{k}={params[k]!r}" for k in sorted(params))
        return f"{self.name}[{rendered}]"

    def run(self, state: FlowState) -> dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.signature()}>"


# ----------------------------------------------------------------------
# Analysis prefix (constraint- and target-independent, cacheable).

class RangeAnalysisPass(Pass):
    """Dynamic-range analysis on the analysis twin, re-keyed onto the
    benchmark program's slot map (identical numbering).

    ``sim_backend`` names the evaluation backend of the simulation
    path.  ``scalar`` and ``batch`` yield identical ranges; ``bigfloat``
    can differ in the last bits (see
    :func:`~repro.fixedpoint.range_analysis.simulation_ranges`).  So
    it is part of the pass signature: the per-pass cache and the
    sweep's per-cell cache key cells per backend and can never alias
    results across backends.
    """

    name = "range-analysis"
    reads = ("program", "analysis_program")
    writes = ("slotmap", "ranges")
    cacheable = True

    def __init__(
        self, method: str = "auto", sim_backend: str = DEFAULT_BACKEND
    ) -> None:
        self.method = method
        self.sim_backend = sim_backend

    def params(self) -> dict[str, Any]:
        return {"method": self.method, "sim_backend": self.sim_backend}

    def run(self, state: FlowState) -> dict[str, Any]:
        program = state.get("program")
        twin = state.get("analysis_program")
        slotmap = SlotMap(program)
        twin_slotmap = slotmap if twin is program else SlotMap(twin)
        ranges = analyze_ranges(
            twin, twin_slotmap, method=self.method, backend=self.sim_backend
        )
        ranges = RangeResult(slotmap, ranges.ranges, ranges.method)
        return {"slotmap": slotmap, "ranges": ranges}


class AdjointGainsPass(Pass):
    """Noise-gain extraction (instance graph + adjoints) on the analysis
    twin."""

    name = "adjoint-gains"
    reads = ("program", "analysis_program")
    writes = ("gains",)
    cacheable = True

    def __init__(self, n_ref_outputs: int = 4, seed: int = 90210) -> None:
        self.n_ref_outputs = n_ref_outputs
        self.seed = seed

    def params(self) -> dict[str, Any]:
        return {"n_ref_outputs": self.n_ref_outputs, "seed": self.seed}

    def run(self, state: FlowState) -> dict[str, Any]:
        program = state.get("program")
        twin = state.get("analysis_program")
        twin_slotmap = SlotMap(program) if twin is program else SlotMap(twin)
        gains = extract_gains(
            twin, twin_slotmap,
            n_ref_outputs=self.n_ref_outputs, seed=self.seed,
        )
        return {"gains": gains}


class AccuracyModelPass(Pass):
    """Analytical accuracy model over the extracted gains."""

    name = "accuracy-model"
    reads = ("program", "slotmap", "gains")
    writes = ("model",)
    cacheable = True

    def __init__(self, **model_kwargs: Any) -> None:
        self.model_kwargs = model_kwargs

    def params(self) -> dict[str, Any]:
        return dict(self.model_kwargs)

    def run(self, state: FlowState) -> dict[str, Any]:
        model = AccuracyModel(
            state.get("program"), state.get("slotmap"), state.get("gains"),
            **self.model_kwargs,
        )
        return {"model": model}


#: The shared, constraint-independent prefix every fixed-point flow
#: starts with — the passes a warm sweep must never re-execute.
ANALYSIS_PASS_NAMES: tuple[str, ...] = (
    RangeAnalysisPass.name, AdjointGainsPass.name, AccuracyModelPass.name
)


# ----------------------------------------------------------------------
# Spec construction and word-length optimization.  The searches see the
# target only through its word lengths, so targets sharing a datapath
# share their results.

class IwlAssignmentPass(Pass):
    """Initial spec: range-derived IWLs at the maximum word length.

    Cacheable like the analysis prefix: no pass mutates a spec it reads
    (the WLO passes optimize a clone), so every target with the same
    word lengths starts from one shared instance.
    """

    name = "iwl-assignment"
    reads = ("slotmap", "ranges", "word_lengths")
    writes = ("spec",)
    cacheable = True

    def run(self, state: FlowState) -> dict[str, Any]:
        spec = FixedPointSpec(
            state.get("slotmap"), max_wl=state.get("word_lengths").max_wl
        )
        assign_iwls(spec, state.get("ranges"))
        return {"spec": spec}


def _search_reads(continuation: str) -> tuple[tuple[str, ...], bool]:
    """``(reads, cacheable)`` of a search pass in ``continuation`` mode.

    A cold search is a function of its program, initial spec, model,
    word lengths and constraint, so it is cached and a target sharing
    the datapath reuses it.  Warm and pareto searches also read the
    continuation store, whose families are filed per target: they read
    ``target`` too and always run.
    """
    reads = ("program", "spec", "model", "word_lengths", "constraint_db")
    if continuation:
        return reads + ("target",), False
    return reads, True


def _check_continuation_mode(mode: str) -> str:
    if mode not in CONTINUATION_MODES:
        raise unknown_name_error(
            FlowError, "continuation mode", mode,
            [m for m in CONTINUATION_MODES if m],
        )
    return mode


def _engine_accepts_warm_start(engine: Any) -> bool:
    """Whether a registered engine can take the ``warm_start`` keyword.

    Custom engines registered before warm starts existed keep working:
    they simply always run cold.
    """
    try:
        parameters = inspect.signature(engine).parameters
    except (TypeError, ValueError):  # builtins, odd callables
        return False
    if "warm_start" in parameters:
        return True
    return any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def _continuation_key(pass_: Pass, state: FlowState) -> str:
    """The constraint-independent identity of a continuation family.

    Built from the pass signature (engine + mode are part of it) and
    the artifact fingerprints of everything the engine reads *except*
    ``constraint_db`` — two cells share a family exactly when they
    solve the same problem at different constraints.  The fingerprints
    also embed :func:`~repro.pipeline.cache.flow_code_version`, so stale
    solutions can never leak across code changes within a process.
    """
    parts = [pass_.signature()]
    for name in ("program", "spec", "model", "target"):
        parts.append(state.fingerprint(name))
    return "|".join(parts)


class WloPass(Pass):
    """Standalone word-length optimization via a registered engine.

    ``continuation`` selects the cross-constraint reuse mode (see
    :data:`repro.wlo.continuation.CONTINUATION_MODES`): ``"warm"``
    seeds the engine with the nearest stricter constraint's recorded
    solution and files this cell's solution for the next; ``"pareto"``
    replaces the engine search entirely with one memoized
    :func:`~repro.wlo.pareto.pareto_frontier` walk per continuation
    family, projected onto this cell's constraint.  Both modes are
    part of :meth:`params` (hence of every cache key); the default
    ``""`` keeps the signature — and therefore all cold cache keys —
    byte-identical to previous releases.

    The engine receives the target's
    :class:`~repro.targets.model.WordLengths` and optimizes a clone of
    the input spec, which stays untouched.
    """

    name = "wlo"
    writes = ("spec", "wlo_stats")

    def __init__(self, engine: str = "tabu", continuation: str = "") -> None:
        self.engine = engine
        self.continuation = _check_continuation_mode(continuation)
        self.reads, self.cacheable = _search_reads(self.continuation)

    def params(self) -> dict[str, Any]:
        params: dict[str, Any] = {"engine": self.engine}
        if self.continuation:
            params["continuation"] = self.continuation
        return params

    def run(self, state: FlowState) -> dict[str, Any]:
        spec = state.get("spec").clone()
        constraint_db = state.get("constraint_db")
        if self.continuation == "pareto":
            return self._run_pareto(state, spec, constraint_db)
        engine = get_wlo_engine(self.engine)
        key = ""
        seed = None
        if self.continuation == "warm" and _engine_accepts_warm_start(engine):
            key = _continuation_key(self, state)
            seed = lookup_continuation(key, constraint_db)
        if seed is not None:
            stats = engine(
                state.get("program"), spec, state.get("model"),
                state.get("word_lengths"), constraint_db, warm_start=seed,
            )
        else:
            stats = engine(
                state.get("program"), spec, state.get("model"),
                state.get("word_lengths"), constraint_db,
            )
        if key:
            record_continuation(
                key, constraint_db,
                {root: spec.wl(root) for root in spec.slotmap.roots},
            )
        return {"spec": spec, "wlo_stats": stats}

    def _run_pareto(
        self, state: FlowState, spec: FixedPointSpec, constraint_db: float
    ) -> dict[str, Any]:
        key = _continuation_key(self, state)
        frontier = lookup_frontier(key)
        memoized = frontier is not None
        if frontier is None:
            frontier = pareto_frontier(
                state.get("program"), spec, state.get("model"),
                state.get("word_lengths"),
            )
            record_frontier(key, frontier)
        point = frontier.project(constraint_db)
        for root, wl in point.wls.items():
            spec.set_wl(root, wl)
        stats = ParetoResult(
            cost=point.cost, noise_db=point.noise_db,
            points=len(frontier.points), moves=frontier.moves,
            evaluations=frontier.evaluations, warm_start=memoized,
            wls=dict(point.wls),
        )
        return {"spec": spec, "wlo_stats": stats}


class JointWloSlpPass(Pass):
    """The paper's joint SLP-aware WLO (Fig. 1), groups + spec at once.

    ``continuation`` follows :class:`WloPass`: ``"warm"`` seeds the
    joint search with the nearest stricter constraint's word lengths
    *and* grouping partition (see
    :class:`~repro.wlo.slp_aware.JointWarmStart`).  The joint engine
    has no scalar frontier to walk, so ``"pareto"`` degrades to the
    warm-continuation behaviour here — only the standalone
    :class:`WloPass` performs true frontier projection.  Reads, caching
    and the spec clone follow :class:`WloPass` too.
    """

    name = "wlo-slp"
    writes = ("spec", "groups", "selection_stats", "scaling_stats", "wlo_stats")

    def __init__(
        self,
        harmonize: bool = True,
        scaloptim: bool = True,
        accuracy_conflicts: bool = True,
        continuation: str = "",
    ) -> None:
        self.harmonize = harmonize
        self.scaloptim = scaloptim
        self.accuracy_conflicts = accuracy_conflicts
        self.continuation = _check_continuation_mode(continuation)
        self.reads, self.cacheable = _search_reads(self.continuation)

    def params(self) -> dict[str, Any]:
        params: dict[str, Any] = {
            "harmonize": self.harmonize,
            "scaloptim": self.scaloptim,
            "accuracy_conflicts": self.accuracy_conflicts,
        }
        if self.continuation:
            params["continuation"] = self.continuation
        return params

    def run(self, state: FlowState) -> dict[str, Any]:
        spec = state.get("spec").clone()
        constraint_db = state.get("constraint_db")
        key = ""
        seed = None
        if self.continuation:
            key = _continuation_key(self, state)
            seed = lookup_continuation(key, constraint_db)
        outcome = wlo_slp_optimize(
            state.get("program"), spec, state.get("model"),
            state.get("word_lengths"), constraint_db,
            harmonize=self.harmonize, scaloptim=self.scaloptim,
            accuracy_conflicts=self.accuracy_conflicts,
            warm_start=seed,
        )
        if key:
            selection = outcome.selection
            record_continuation(key, constraint_db, JointWarmStart(
                {root: spec.wl(root) for root in spec.slotmap.roots},
                dict(outcome.groups),
                partition_safe=(
                    selection.accuracy_rejections == 0
                    and selection.accuracy_conflicts == 0
                ),
            ))
        return {
            "spec": spec,
            "groups": outcome.groups,
            "selection_stats": outcome.selection,
            "scaling_stats": outcome.scaling,
            "wlo_stats": outcome,
        }


class NoiseReportPass(Pass):
    """Analytical output noise of the final spec, in dB."""

    name = "noise-report"
    reads = ("model", "spec")
    writes = ("noise_db",)

    def run(self, state: FlowState) -> dict[str, Any]:
        return {"noise_db": state.get("model").noise_db(state.get("spec"))}


class DecoupledSlpPass(Pass):
    """Accuracy-blind SLP extraction after the fact (WLO-First's SLP)."""

    name = "slp-extract"
    reads = ("program", "spec", "word_lengths")
    writes = ("groups", "selection_stats")
    cacheable = True

    def run(self, state: FlowState) -> dict[str, Any]:
        program = state.get("program")
        spec = state.get("spec")
        word_lengths = state.get("word_lengths")
        stats = SelectionStats()
        groups = {
            name: extract_groups_decoupled(
                program, block, spec, word_lengths, stats
            )
            for name, block in program.blocks.items()
        }
        return {"groups": groups, "selection_stats": stats}


# ----------------------------------------------------------------------
# Lowering and scheduling (deterministic from spec/groups, cacheable).
# The pipeline fingerprints ``spec`` and ``groups`` by content, so these
# passes, like ``slp-extract`` above, run once per distinct spec and
# groups: a panel's constraints often reach equal ones.

class LowerFloatPass(Pass):
    """Single-precision float lowering (FPU or serialized soft-float).

    ``format`` names the :mod:`repro.formats` execution format of a
    format-sweep cell (``float32``, ``bfloat16``, ``binary(E,M)``, …).
    The cycle model is format-independent — the target issues one
    float machine op per scalar op regardless of precision — so the
    lowering itself does not change; the parameter exists to key both
    cache layers per format (following :class:`WloPass`, it enters
    :meth:`params` only when set, keeping the default signature — and
    every pre-format cache key — byte-identical).
    """

    name = "lower-float"
    reads = ("program", "target")
    writes = ("float_lowered",)
    cacheable = True

    def __init__(self, format: str = "") -> None:
        self.format = format

    def params(self) -> dict[str, Any]:
        if self.format:
            return {"format": self.format}
        return {}

    def run(self, state: FlowState) -> dict[str, Any]:
        lowered = lower_float_program(state.get("program"), state.get("target"))
        return {"float_lowered": lowered}


class LowerScalarPass(Pass):
    """Scalar fixed-point lowering of the optimized spec."""

    name = "lower-scalar"
    reads = ("program", "spec", "target")
    writes = ("scalar_lowered",)
    cacheable = True

    def run(self, state: FlowState) -> dict[str, Any]:
        lowered = lower_scalar_program(
            state.get("program"), state.get("spec"), state.get("target")
        )
        return {"scalar_lowered": lowered}


class LowerSimdPass(Pass):
    """SIMD fixed-point lowering of spec + groups."""

    name = "lower-simd"
    reads = ("program", "spec", "target", "groups")
    writes = ("simd_lowered",)
    cacheable = True

    def run(self, state: FlowState) -> dict[str, Any]:
        lowered = lower_simd_program(
            state.get("program"), state.get("spec"), state.get("target"),
            state.get("groups"),
        )
        return {"simd_lowered": lowered}


class SchedulePass(Pass):
    """List-schedule a lowered program into a cycle report.

    Parameterized by source/destination artifact names so one flow can
    schedule several lowerings (WLO-First schedules both its scalar
    baseline and its SIMD best effort).
    """

    name = "schedule"
    cacheable = True

    def __init__(self, src: str, dst: str = "cycles") -> None:
        self.src = src
        self.dst = dst
        self.reads = ("program", src, "target")
        self.writes = (dst,)

    def params(self) -> dict[str, Any]:
        return {"src": self.src, "dst": self.dst}

    def run(self, state: FlowState) -> dict[str, Any]:
        cycles = program_cycles(
            state.get("program"), state.get(self.src), state.get("target")
        )
        return {self.dst: cycles}


def check_pass_list(
    passes: tuple[Pass, ...], has_constraint: bool = True
) -> None:
    """Static shape check: every read is seeded or written upstream.

    ``has_constraint`` mirrors the owning flow's ``needs_constraint``:
    a constraint-free flow (like ``float``) must not contain a pass
    reading ``constraint_db``, and that mistake should fail here, at
    declaration shape-check time, not midway through a run.
    """
    available = {"program", "analysis_program", "target", "word_lengths"}
    if has_constraint:
        available.add("constraint_db")
    for pass_ in passes:
        missing = set(pass_.reads) - available
        if missing:
            raise FlowError(
                f"pass {pass_.signature()!r} reads {sorted(missing)} which "
                f"no earlier pass writes"
            )
        available.update(pass_.writes)
