"""The unified typed request API — one description of a job everywhere.

Before this module, "a sweep" was described three different ways: an
``argparse.Namespace`` inside :mod:`repro.cli`, positional keyword
arguments into :mod:`repro.experiments.engine`, and ad-hoc dicts in
the figure drivers.  That made a wire API impossible to add cleanly —
there was nothing to put on the wire.

This module is the single source of truth instead:

* :class:`SweepRequest` — every knob of a (kernel × target ×
  constraint) sweep: the grid slice, the cell axes (WLO engine, flow,
  simulation backend, continuation/pareto, format), and the execution
  options (jobs, execution backend, cache directory).  Frozen,
  hashable, JSON round-trippable.
* :class:`RunRequest` — one flow on one kernel (``repro run``).
* :class:`SweepReport` — the result side: per-cell outcome payloads
  plus resolution statistics, equally JSON round-trippable.

The CLI subcommands (:mod:`repro.cli`), the engine entry points
(:meth:`~repro.experiments.runner.ExperimentRunner.submit`), the
figure/table drivers and the ``repro serve`` HTTP handlers
(:mod:`repro.serve`) all construct and consume these objects, so the
same validated request travels identically from argparse, from Python
callers, and off the wire::

    >>> from repro.api import SweepRequest
    >>> req = SweepRequest(kernels=("fir",), targets=("vex-1",), grid=(-15.0,))
    >>> SweepRequest.from_json(req.to_json()) == req
    True

:func:`registry_listing` is the shared machine-readable catalog of
all seven registries (flows, WLO engines, simulation backends,
execution backends, numeric formats, kernels and targets) — the
payload of both ``repro flows --json`` / ``repro kernels --json`` and
the service's ``GET /registries`` endpoint.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import FlowError
from repro.experiments.engine import (
    CELL_AXES,
    PAPER_CONSTRAINT_GRID,
    PAPER_TARGETS,
    CellOutcome,
    CellRequest,
    KernelConfig,
    SweepPlan,
    SweepStats,
    _flow_overrides,
    _incomplete_error,
    _parse_only,
)
from repro.registry import canonical_name

__all__ = [
    "RunRequest",
    "SweepReport",
    "SweepRequest",
    "outcome_payload",
    "registry_listing",
]


def _names(values: Any) -> tuple[str, ...]:
    return tuple(canonical_name(v) for v in values)


def _grid(values: Any) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class SweepRequest:
    """One fully-specified sweep job, identical across every surface.

    Name fields hold registry names in their registry's spelling
    (validated by :meth:`validate`); ``""`` in the optional string
    fields means "use the default" (``sim_backend``: each flow's
    declared backend, ``backend``: auto-select serial/workqueue,
    ``cache_dir``: the standard cache location) — a string rather than
    ``None`` so the object stays total under JSON round-trips and
    hashing.  :meth:`cell_axes` maps the fields onto a cell's axes.
    """

    kernels: tuple[str, ...] = ("fir", "iir", "conv")
    targets: tuple[str, ...] = PAPER_TARGETS
    grid: tuple[float, ...] = PAPER_CONSTRAINT_GRID
    #: ``KERNEL:TARGET`` pair filter (the CLI ``--only``), or ``None``.
    only: tuple[str, ...] | None = None
    wlo: str = "tabu"
    flow: str = "wlo-slp"
    sim_backend: str = ""
    jobs: int = 1
    #: Execution backend (``serial``/``workqueue``); ``""``
    #: auto-selects (``workqueue`` when ``jobs > 1``).
    backend: str = ""
    cache_dir: str = ""
    no_cache: bool = False
    #: Warm-start each cell's WLO from its nearest stricter neighbor
    #: (the ``repro sweep --continuation`` flag; see
    #: :mod:`repro.wlo.continuation`).
    continuation: bool = False
    #: Single-search Pareto-front mode (``repro sweep --pareto``): one
    #: frontier walk per kernel × target, projected onto every grid
    #: constraint.  Mutually exclusive with ``continuation``.
    pareto: bool = False
    #: Numeric format of every cell (``repro sweep --format``; see
    #: :mod:`repro.formats`).  ``""`` is the fixed-point default; a
    #: float format name (``float32``, ``bfloat16``, ``binary(E,M)``…)
    #: makes this a format sweep.
    format: str = ""

    def __post_init__(self) -> None:
        from repro.formats import canonical_format

        # One spelling, so equality, hashing, JSON round-trips and the
        # cells' cache keys never depend on case or binary(E,M) spacing.
        for name in ("wlo", "flow", "sim_backend", "backend"):
            object.__setattr__(self, name, canonical_name(getattr(self, name)))
        object.__setattr__(self, "format", canonical_format(self.format))
        # Normalize the sequence fields so value equality (and thus
        # the from_json(to_json()) round-trip) never depends on the
        # caller's choice of list vs tuple.
        object.__setattr__(self, "kernels", _names(self.kernels))
        object.__setattr__(self, "targets", _names(self.targets))
        # Repeated constraints are one cell; drop them up front
        # (order-preserving) so reports and plans agree on the count.
        object.__setattr__(self, "grid", tuple(dict.fromkeys(_grid(self.grid))))
        if not self.grid:
            raise FlowError(
                "sweep request grid is empty: at least one constraint "
                "(dB) is required"
            )
        if self.only is not None:
            object.__setattr__(self, "only", _names(self.only))
        object.__setattr__(self, "jobs", int(self.jobs))
        object.__setattr__(self, "continuation", bool(self.continuation))
        object.__setattr__(self, "pareto", bool(self.pareto))

    @property
    def continuation_mode(self) -> str:
        """The request's WLO continuation mode (``""``/``"warm"``/
        ``"pareto"``) as the engine and pass layers spell it."""
        if self.pareto:
            return "pareto"
        return "warm" if self.continuation else ""

    def cell_axes(self) -> dict[str, str]:
        """The request's value of every cell axis
        (:data:`~repro.experiments.engine.CELL_AXES`), the mapping the
        runner and the figure/table functions forward as ``**axes``.  The
        ``continuation`` and ``pareto`` flags fold into one mode."""
        axes = {axis: getattr(self, axis) for axis in CELL_AXES}
        axes["continuation"] = self.continuation_mode
        return axes

    # ------------------------------------------------------------------
    def validate(self) -> "SweepRequest":
        """Resolve every name through its registry; returns ``self``.

        Raises the registry's own error (listing the available
        alternatives in the standard format) on any unknown name, a
        :class:`FlowError` on a malformed ``--only`` filter or a
        non-positive job count.  Called by the CLI before dispatch and
        by the HTTP service before accepting a job, so a bad request
        fails fast with the same message on every surface.
        """
        from repro.experiments.backends import get_execution_backend
        from repro.formats import ensure_quantization_format
        from repro.ir.backend import get_backend
        from repro.pipeline import get_flow
        from repro.targets.registry import TARGETS
        from repro.wlo.registry import get_wlo_engine

        config = KernelConfig()
        for kernel in self.kernels:
            config.kernel_builders(kernel)
        for target in self.targets:
            TARGETS.get(target)
        get_flow(self.flow)
        get_wlo_engine(self.wlo)
        if self.sim_backend:
            get_backend(self.sim_backend)
        if self.backend:
            get_execution_backend(self.backend)
        if self.format:
            # Resolve through the formats registry (standard
            # unknown-name dialect) and reject the non-sweepable
            # oracle up front.
            ensure_quantization_format(self.format)
        _parse_only(self.only)
        if self.jobs < 1:
            raise FlowError(f"jobs must be >= 1, got {self.jobs}")
        if self.continuation and self.pareto:
            raise FlowError(
                "continuation and pareto are mutually exclusive: pareto "
                "already supersedes per-cell warm starts with one "
                "frontier search per kernel/target"
            )
        return self

    def plan(self, config: KernelConfig | None = None) -> SweepPlan:
        """The request's deduplicated job graph (engine entry point)."""
        return SweepPlan.build(
            config if config is not None else KernelConfig(),
            self.kernels, self.targets, self.grid, self.only,
            **self.cell_axes(),
        )

    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        """JSON-ready dict (tuples become lists)."""
        payload = dataclasses.asdict(self)
        for key in ("kernels", "targets", "grid"):
            payload[key] = list(payload[key])
        if payload["only"] is not None:
            payload["only"] = list(payload["only"])
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(
        cls,
        payload: Mapping[str, Any],
        defaults: Mapping[str, Any] | None = None,
    ) -> "SweepRequest":
        """Build from a decoded JSON object.

        Unknown keys are rejected (a typoed field name on the wire
        must not silently fall back to a default); missing keys take
        ``defaults`` (e.g. the ``repro serve`` process-wide flags)
        and then the dataclass defaults.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise FlowError(
                f"unknown sweep request field(s) {sorted(unknown)}; "
                f"accepts {sorted(fields)}"
            )
        merged: dict[str, Any] = {}
        if defaults:
            merged.update({k: v for k, v in defaults.items() if k in fields})
        merged.update(payload)
        return cls(**merged)

    @classmethod
    def from_json(cls, text: str) -> "SweepRequest":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise FlowError("sweep request body must be a JSON object")
        return cls.from_payload(payload)

    @classmethod
    def from_args(cls, args: Any) -> "SweepRequest":
        """Materialize from a parsed CLI namespace.

        Reads every field that shares its name with a parsed flag (the
        shared engine flags come from one parent parser in
        :mod:`repro.cli`), falling back to the request defaults for
        the rest — so every sweep-backed subcommand materializes into
        the same object the wire and Python surfaces use.  The
        singular ``--kernel``/``--target`` of ``repro ablations`` fill
        ``kernels``/``targets``.
        """
        values: dict[str, Any] = {}
        for name in (f.name for f in dataclasses.fields(cls)):
            value = getattr(args, name, None)
            if value is None and name in ("kernels", "targets"):
                single = getattr(args, name[:-1], None)
                value = None if single is None else [single]
            if value is not None:
                values[name] = str(value) if name == "cache_dir" else value
        return cls(**values)


@dataclass(frozen=True)
class RunRequest:
    """One flow on one kernel (the ``repro run`` surface).

    ``wlo=""`` keeps the flow's declared engine; ``sim_backend=""``
    keeps each simulation-backed pass's declared backend (and is a
    no-op for flows without one, e.g. ``float``).
    """

    kernel: str = "fir"
    target: str = "xentium"
    constraint_db: float = -25.0
    flow: str = "wlo-slp"
    wlo: str = ""
    sim_backend: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraint_db", float(self.constraint_db))

    # ------------------------------------------------------------------
    def execute(self) -> tuple[Any, Any]:
        """Run the flow; returns ``(result, final FlowState)``.

        The single Python entry point behind ``repro run``: kernel,
        target, flow, engine and simulation backend resolve through their
        registries, raising the standard unknown-name errors.
        """
        from repro.ir.backend import get_backend
        from repro.kernels import kernel_by_name
        from repro.pipeline import execute_flow, get_flow
        from repro.targets.registry import get_target
        from repro.wlo.registry import get_wlo_engine

        program = kernel_by_name(self.kernel)
        target = get_target(self.target)
        spec = get_flow(self.flow)
        if self.sim_backend:
            get_backend(self.sim_backend)
        overrides: dict[str, Any] = _flow_overrides(spec, self)
        if self.wlo:
            get_wlo_engine(self.wlo)  # validate, listing alternatives
            overrides["wlo"] = self.wlo
        return execute_flow(
            self.flow, program, target,
            self.constraint_db if spec.needs_constraint else None,
            **overrides,
        )

    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunRequest":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - fields
        if unknown:
            raise FlowError(
                f"unknown run request field(s) {sorted(unknown)}; "
                f"accepts {sorted(fields)}"
            )
        return cls(**dict(payload))

    @classmethod
    def from_json(cls, text: str) -> "RunRequest":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise FlowError("run request body must be a JSON object")
        return cls.from_payload(payload)

    @classmethod
    def from_args(cls, args: Any) -> "RunRequest":
        return cls(
            kernel=args.kernel,
            target=args.target,
            constraint_db=args.constraint,
            flow=args.flow,
            wlo=getattr(args, "wlo", None) or "",
            sim_backend=getattr(args, "sim_backend", None) or "",
        )


# ----------------------------------------------------------------------
# Results.


def outcome_payload(outcome: CellOutcome) -> dict[str, Any]:
    """One resolved cell as a JSON-ready dict.

    The shape shared by :class:`SweepReport` and the service's
    ``GET /jobs/<id>/outcomes`` endpoint: the full request key, the
    resolution ``source`` (``computed``/``cache``/``memo``/
    ``failed``), and either the cell's numbers or the error text.
    """
    return {
        "request": dataclasses.asdict(outcome.request),
        "source": outcome.source,
        "cell": (
            None if outcome.cell is None else dataclasses.asdict(outcome.cell)
        ),
        "error": outcome.error,
    }


@dataclass(frozen=True)
class SweepReport:
    """The result side of a :class:`SweepRequest` — wire-friendly.

    ``outcomes`` holds one :func:`outcome_payload` dict per resolved
    cell in plan order; ``counts`` the resolution statistics
    (``computed``/``cache``/``memo``/``failed``).
    """

    request: SweepRequest
    outcomes: tuple[dict[str, Any], ...]
    counts: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple(self.outcomes))

    @classmethod
    def build(
        cls,
        request: SweepRequest,
        outcomes: list[CellOutcome],
        stats: SweepStats,
        elapsed_s: float = 0.0,
    ) -> "SweepReport":
        return cls(
            request=request,
            outcomes=tuple(outcome_payload(o) for o in outcomes),
            counts=stats.counts(),
            elapsed_s=round(float(elapsed_s), 3),
        )

    # ------------------------------------------------------------------
    @property
    def failures(self) -> list[dict[str, Any]]:
        """The failed outcome payloads, plan order."""
        return [o for o in self.outcomes if o["cell"] is None]

    def ensure_complete(self) -> "SweepReport":
        """Raise one :class:`FlowError` naming every failed cell.

        The report-level twin of
        :meth:`~repro.experiments.engine.SweepStats.ensure_complete` —
        called by consumers needing the whole grid (figure/table
        builders), after everything completable resolved and
        persisted.  Returns ``self`` for chaining.
        """
        failures = [(self.cell_request(o), o["error"]) for o in self.failures]
        if failures:
            raise _incomplete_error(failures, len(self.outcomes))
        return self

    def cell_request(self, payload: Mapping[str, Any]) -> CellRequest:
        """The typed :class:`CellRequest` of one outcome payload."""
        return CellRequest(**payload["request"])

    def cell(self, payload: Mapping[str, Any]):
        """The typed :class:`~repro.experiments.engine.Cell` of one
        outcome payload (rehydrates the speedup properties), or
        ``None`` for a failed cell."""
        from repro.experiments.engine import Cell

        if payload["cell"] is None:
            return None
        return Cell(**payload["cell"])

    # ------------------------------------------------------------------
    def to_payload(self) -> dict[str, Any]:
        return {
            "request": self.request.to_payload(),
            "outcomes": list(self.outcomes),
            "counts": dict(self.counts),
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SweepReport":
        return cls(
            request=SweepRequest.from_payload(payload["request"]),
            outcomes=tuple(payload.get("outcomes", ())),
            counts=dict(payload.get("counts", {})),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "SweepReport":
        return cls.from_payload(json.loads(text))


# ----------------------------------------------------------------------
# Registry catalog.


def registry_listing() -> dict[str, Any]:
    """Machine-readable catalog of every registry, one shape everywhere.

    The exact payload of ``repro flows --json`` and of the service's
    ``GET /registries`` endpoint: each registry's
    :meth:`~repro.registry.Registry.listing` (flows with resolved pass
    lists and default parameters, WLO engines, simulation backends,
    execution backends, numeric formats, kernels and targets).
    """
    from repro.experiments.backends import EXECUTION_BACKENDS
    from repro.formats import FORMATS
    from repro.ir.backend import SIM_BACKENDS
    from repro.kernels import KERNELS
    from repro.pipeline.registry import FLOWS
    from repro.targets.registry import TARGETS
    from repro.wlo.continuation import CONTINUATION_MODES
    from repro.wlo.registry import WLO_ENGINES

    return {
        "flows": FLOWS.listing(),
        "wlo_engines": WLO_ENGINES.listing(),
        # The opt-in cross-constraint reuse modes of the WLO passes
        # ("" — cold — is the implicit default, not listed).
        "wlo_continuation_modes": [m for m in CONTINUATION_MODES if m],
        "sim_backends": SIM_BACKENDS.listing(),
        "execution_backends": EXECUTION_BACKENDS.listing(),
        # The named numeric formats; the parameterized binary(E,M)
        # family resolves dynamically on top of these.
        "formats": FORMATS.listing(),
        "kernels": KERNELS.listing(),
        "targets": TARGETS.listing(),
    }
