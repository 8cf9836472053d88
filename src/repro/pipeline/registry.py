"""Flow lookup by name: declared pass lists instead of bespoke code.

A :class:`FlowSpec` is the declarative description of one compilation
flow: a name, default parameters, a ``build`` hook turning resolved
parameters into a pass tuple, and a ``result`` hook packaging the
final :class:`~repro.pipeline.state.FlowState` into the flow's public
result object (:class:`~repro.pipeline.results.FlowResult` or
:class:`~repro.pipeline.results.WloFirstResult`).

:data:`FLOWS` is a :class:`repro.registry.Registry`: library code and
the CLI resolve flows exclusively through :func:`get_flow` /
:func:`run_flow`, so registering a variant makes it immediately
runnable (``repro run --flow NAME``) and sweepable (``repro sweep
--flow NAME``) with its own, never-aliasing cache identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import FlowError
from repro.ir.program import Program
from repro.pipeline.cache import PassCache
from repro.pipeline.passes import Pass
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.state import FlowState
from repro.registry import Registry
from repro.targets.model import TargetModel

__all__ = [
    "FLOWS",
    "FlowSpec",
    "available_flows",
    "ensure_flow",
    "execute_flow",
    "get_flow",
    "register_flow",
    "run_flow",
]


@dataclass(frozen=True)
class FlowSpec:
    """Declaration of one flow: parameterized pass list + result hook."""

    name: str
    description: str
    #: ``build(**params) -> tuple[Pass, ...]``
    build: Callable[..., tuple[Pass, ...]]
    #: ``result(state, flow_name, params) -> result object``
    result: Callable[[FlowState, str, dict[str, Any]], Any]
    #: Default parameter values; overrides must stay within these keys.
    params: dict[str, Any] = field(default_factory=dict)
    #: Whether the flow needs an accuracy constraint (float does not).
    needs_constraint: bool = True

    # ------------------------------------------------------------------
    def resolve_params(self, **overrides: Any) -> dict[str, Any]:
        """Defaults merged with overrides; ``None`` means "default"."""
        given = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(given) - set(self.params)
        if unknown:
            raise FlowError(
                f"flow {self.name!r} has no parameter(s) {sorted(unknown)}; "
                f"accepts {sorted(self.params)}"
            )
        resolved = dict(self.params)
        resolved.update(given)
        return resolved

    def pipeline(self, **overrides: Any) -> Pipeline:
        """The flow's pipeline under resolved parameters."""
        return Pipeline(
            self.build(**self.resolve_params(**overrides)),
            has_constraint=self.needs_constraint,
        )

    def pass_names(self, **overrides: Any) -> list[str]:
        """Resolved structure (pass signatures) — the cell-key input."""
        return self.pipeline(**overrides).pass_names()

    def listing(self) -> dict[str, Any]:
        """The flow's entry in :func:`repro.api.registry_listing`."""
        return {
            "name": self.name,
            "description": self.description,
            "passes": self.pass_names(),
            # Parameter defaults as JSON-safe values (repr fallback).
            "params": {
                k: v if isinstance(v, (str, int, float, bool, type(None))) else repr(v)
                for k, v in self.params.items()
            },
            "needs_constraint": self.needs_constraint,
        }


#: Every declared flow.  Its ``generation`` lets callers memoize
#: derived data (e.g. the sweep engine's resolved pipeline signatures)
#: without going stale when a flow is re-declared.
FLOWS: Registry[FlowSpec] = Registry("flow", FlowError)
get_flow = FLOWS.get
available_flows = FLOWS.names


def register_flow(spec: FlowSpec, *, overwrite: bool = False) -> FlowSpec:
    """Register a flow declaration; returns it (decorator-friendly)."""
    return FLOWS.register(spec.name, spec, overwrite=overwrite)


def ensure_flow(spec: FlowSpec) -> None:
    """Adopt a shipped declaration, replacing any same-named one.

    The sweep engine ships the (picklable) specs of a plan's flows to
    its pool workers and replays them through this hook, so flows
    declared — or built-ins *re-declared* — at runtime stay sweepable
    even on spawn/forkserver start methods, where workers re-import
    the package and would otherwise see only the stock declarations.
    The shipped spec is authoritative: the parent process computed the
    cell's cache key from it, so evaluating any other same-named
    pipeline would store wrong results under that key.  (Unchanged
    specs compare equal and leave the registry untouched.)
    """
    if FLOWS.find(spec.name) != spec:
        FLOWS.register(spec.name, spec, overwrite=True)


# ----------------------------------------------------------------------
def execute_flow(
    name: str,
    program: Program,
    target: TargetModel,
    constraint_db: float | None = None,
    *,
    analysis_program: Program | None = None,
    cache: PassCache | None = None,
    **overrides: Any,
) -> tuple[Any, FlowState]:
    """Run a registered flow; returns ``(result, final state)``.

    The state gives access to every intermediate artifact and to the
    per-pass timing log (``state.timing_report()``); plain callers use
    :func:`run_flow` and get just the result.
    """
    spec = get_flow(name)
    if spec.needs_constraint and constraint_db is None:
        raise FlowError(
            f"flow {spec.name!r} requires an accuracy constraint (dB)"
        )
    params = spec.resolve_params(**overrides)
    pipeline = Pipeline(
        spec.build(**params), has_constraint=spec.needs_constraint
    )
    state = FlowState.seed(
        program, target,
        constraint_db=constraint_db if spec.needs_constraint else None,
        analysis_program=analysis_program,
    )
    pipeline.run(state, cache=cache)
    return spec.result(state, spec.name, params), state


def run_flow(
    name: str,
    program: Program,
    target: TargetModel,
    constraint_db: float | None = None,
    *,
    analysis_program: Program | None = None,
    cache: PassCache | None = None,
    **overrides: Any,
) -> Any:
    """Run a registered flow and return its result object."""
    result, _ = execute_flow(
        name, program, target, constraint_db,
        analysis_program=analysis_program, cache=cache, **overrides,
    )
    return result
