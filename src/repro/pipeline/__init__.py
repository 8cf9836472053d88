"""Composable pass-pipeline flow architecture.

Flows are declared pass lists over a shared :class:`FlowState`
artifact store, resolved by name through a registry, with per-pass
content-hash caching and wall-time instrumentation:

>>> from repro.pipeline import run_flow
>>> result = run_flow("wlo-slp", program, target, -30.0)

Layers (one module each):

* :mod:`~repro.pipeline.state` — :class:`FlowState`, the artifact
  store with content fingerprints and the per-pass timing log.
* :mod:`~repro.pipeline.passes` — the typed pass library: range
  analysis, adjoint gains, accuracy model, IWL assignment, WLO (via
  the engine registry), joint/decoupled SLP, scalar/SIMD/float
  lowering, scheduling.
* :mod:`~repro.pipeline.cache` — :class:`PassCache`: pass outputs
  keyed by (signature, input fingerprints, code version); the default
  instance is process-global, so constraint sweeps reuse the shared
  analysis prefix instead of recomputing it per cell.
* :mod:`~repro.pipeline.pipeline` — :class:`Pipeline` execution.
* :mod:`~repro.pipeline.registry` — :class:`FlowSpec` + the flow
  registry (:func:`register_flow` / :func:`get_flow` /
  :func:`run_flow`).
* :mod:`~repro.pipeline.flows` — the built-in declarations: `float`,
  `wlo-first`, `wlo-slp`, plus the `wlo-first-greedy` and
  `wlo-slp-lite` variants; :func:`declare_decoupled_flow` /
  :func:`declare_joint_flow` are the one-line factories custom
  variants use (see ``examples/custom_flow.py``).
  :class:`AnalysisContext` is the flows' shared analysis prefix on
  its own, resolved through the same pass cache.
* :mod:`~repro.pipeline.results` — the result containers
  (:class:`FlowResult`, :class:`WloFirstResult`) and :func:`speedup`.

WLO engines have their own registry, :mod:`repro.wlo.registry`.
"""

from repro.pipeline.cache import (
    PassCache,
    content_fingerprint,
    global_pass_cache,
    pass_key,
)
from repro.pipeline.flows import (
    AnalysisContext,
    declare_decoupled_flow,
    declare_joint_flow,
)
from repro.pipeline.passes import (
    ANALYSIS_PASS_NAMES,
    AccuracyModelPass,
    AdjointGainsPass,
    DecoupledSlpPass,
    IwlAssignmentPass,
    JointWloSlpPass,
    LowerFloatPass,
    LowerScalarPass,
    LowerSimdPass,
    NoiseReportPass,
    Pass,
    RangeAnalysisPass,
    SchedulePass,
    WloPass,
)
from repro.pipeline.pipeline import Pipeline
from repro.pipeline.registry import (
    FlowSpec,
    available_flows,
    ensure_flow,
    execute_flow,
    get_flow,
    register_flow,
    run_flow,
)
from repro.pipeline.results import FlowResult, WloFirstResult, speedup
from repro.pipeline.state import FlowState, PassTiming

__all__ = [
    "ANALYSIS_PASS_NAMES",
    "AccuracyModelPass",
    "AdjointGainsPass",
    "AnalysisContext",
    "DecoupledSlpPass",
    "FlowResult",
    "FlowSpec",
    "FlowState",
    "IwlAssignmentPass",
    "JointWloSlpPass",
    "LowerFloatPass",
    "LowerScalarPass",
    "LowerSimdPass",
    "NoiseReportPass",
    "Pass",
    "PassCache",
    "PassTiming",
    "Pipeline",
    "RangeAnalysisPass",
    "SchedulePass",
    "WloFirstResult",
    "WloPass",
    "available_flows",
    "content_fingerprint",
    "declare_decoupled_flow",
    "declare_joint_flow",
    "ensure_flow",
    "execute_flow",
    "get_flow",
    "global_pass_cache",
    "pass_key",
    "register_flow",
    "run_flow",
    "speedup",
]
