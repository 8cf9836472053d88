"""Pluggable evaluation backends for simulation-based analyses.

Everything that *executes* programs over stimuli — the simulation
accuracy evaluator, simulation-based range analysis, the validation
experiment — goes through an :class:`EvaluationBackend` resolved by
name from :data:`SIM_BACKENDS`, a :class:`repro.registry.Registry`
like the flow, WLO engine and target tables.  The evaluation
*semantics* are fixed; only the executor is swappable:

* ``scalar`` — the reference executors
  (:class:`~repro.ir.interp.Interpreter`,
  :class:`~repro.fixedpoint.fxpinterp.FixedPointInterpreter`), one
  stimulus at a time, one Python step per operation instance.
* ``batch`` — the vectorized executors (:mod:`repro.ir.batch`,
  :mod:`repro.fixedpoint.fxpbatch`): all stimuli at once, independent
  loops as array lanes.  Bit-identical to ``scalar`` by construction
  and pinned by golden tests; the default everywhere.  Its fixed-point
  path is itself two-tiered (``batch[int64]``/``batch[object]``, see
  :mod:`repro.fixedpoint.widthproof`); :meth:`~EvaluationBackend.fixed_tier`
  reports which tier a given spec runs on.  Its float path runs a
  program without lane loops on the instance graph instead (see
  :func:`flat_simulation`).
* ``bigfloat`` — the arbitrary-precision oracle over
  :class:`~repro.formats.BigFloat` values: float evaluation at ~200
  mantissa bits, on :class:`~repro.ir.batch.OracleBatchInterpreter`'s
  lanes or, without lane loops, on the instance graph (see
  :func:`flat_simulation`); fixed-point evaluation pinned to the exact
  object tier.  The reference for ``repro validate --oracle`` and for
  reduced-precision format noise.

Both entry points take a *sequence* of stimuli and return one output
dict per stimulus, so callers are backend-agnostic.  ``range_probe``
receives ``(static op id, values)`` where ``values`` is a scalar under
``scalar`` and an array under ``batch`` — min/max observation handles
either.

Simulation range analysis asks a backend for
:meth:`~EvaluationBackend.op_extremes`: every executed op's smallest
and largest value over the stimuli.  The base class folds
``run_float``'s ``range_probe`` into running extremes, which ``scalar``
and ``bigfloat`` keep.  ``batch`` reads them from the program's
:class:`~repro.ir.instances.InstanceGraph` instead, one flat loop per
stimulus, and never runs its executor for them.

:func:`flat_simulation` is the one rule for the float simulations of
``batch`` and ``bigfloat`` and for a format's measured outputs
(:class:`~repro.accuracy.simulation.FormatAccuracyEvaluator`): a
program whose vector plan has no lane loop runs on its instance graph,
one flat loop per stimulus, since the lanes would pay one numpy call
per op execution for one value per stimulus.  A program with lane
loops, or a run with a ``range_probe`` (the lanes' hook), keeps the
lane executors, which are the graph's bit-identity reference.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import BackendError
from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fixedpoint.fxpinterp import FxpConfig
    from repro.fixedpoint.spec import FixedPointSpec
    from repro.ir.instances import FlatSimulation
    from repro.ir.program import Program

__all__ = [
    "DEFAULT_BACKEND",
    "SIM_BACKENDS",
    "BatchBackend",
    "BigFloatBackend",
    "EvaluationBackend",
    "ScalarBackend",
    "available_backends",
    "flat_simulation",
    "get_backend",
    "register_backend",
]

#: The backend simulation-based analyses use unless told otherwise.
DEFAULT_BACKEND = "batch"

Stimuli = Sequence[Mapping[str, np.ndarray]]
RangeProbe = Callable[[int, object], None]


def flat_simulation(
    program: "Program", range_probe: RangeProbe | None = None
) -> "FlatSimulation | None":
    """The program's float simulations as flat loops over its instance
    graph, or ``None`` where the lane executors run them.

    The rule: a program whose vector plan has no lane loop runs flat,
    unless a ``range_probe`` is passed.  Built per call, so nothing
    keeps it alive in a long-running process.
    """
    from repro.ir.vectorize import vector_plan

    if range_probe is not None or vector_plan(program).loops:
        return None
    # Imported here, not at the top, so a CLI start never loads it.
    from repro.ir.instances import FlatSimulation, instance_graph

    return FlatSimulation(instance_graph(program))


class EvaluationBackend:
    """One way of executing programs over a set of stimuli."""

    name: str = "backend"
    description: str = ""
    #: Execution tiers ``run_fixed`` may pick between, documented for
    #: the registry listing (``repro flows --json`` / ``GET
    #: /registries``).  Empty for single-tier backends.  Tiers are
    #: bit-identical by contract — the choice affects wall time only,
    #: never results, so per-pass and per-cell cache keys do not (and
    #: must not) depend on it.
    tiers: tuple[dict[str, str], ...] = ()

    def run_float(
        self,
        program: "Program",
        stimuli: Stimuli,
        range_probe: RangeProbe | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """Float64 reference execution; one output dict per stimulus."""
        raise NotImplementedError

    def op_extremes(
        self, program: "Program", stimuli: Stimuli
    ) -> dict[int, tuple[float, float]]:
        """Smallest and largest float64 value of every executed op over
        ``stimuli``, keyed by static op id in first-execution order."""
        # Running elementwise extremes per op, reduced to floats after
        # the run (min and max are exact, so this equals joining at
        # every observation).
        lows: dict[int, np.ndarray] = {}
        highs: dict[int, np.ndarray] = {}

        def observe(opid: int, values) -> None:
            # One scalar (scalar backend) or the op's whole value array.
            # Its shape repeats from one execution to the next, except
            # that a variable read may first see the variable's scalar
            # init.
            low = lows.get(opid)
            if low is None:
                lows[opid] = np.array(values, dtype=np.float64)
                highs[opid] = np.array(values, dtype=np.float64)
                return
            high = highs[opid]
            try:
                np.minimum(low, values, out=low)
                np.maximum(high, values, out=high)
            except ValueError:  # a wider observation than the first
                lows[opid] = np.minimum(low, values)
                highs[opid] = np.maximum(high, values)

        self.run_float(program, stimuli, range_probe=observe)
        return {
            opid: (float(low.min()), float(highs[opid].max()))
            for opid, low in lows.items()
        }

    def run_fixed(
        self,
        program: "Program",
        spec: "FixedPointSpec",
        stimuli: Stimuli,
        config: "FxpConfig | None" = None,
        force_object: bool = False,
    ) -> list[dict[str, np.ndarray]]:
        """Bit-accurate fixed-point execution (dequantized outputs).

        ``force_object`` pins multi-tier backends to their exact
        arbitrary-precision tier; single-tier backends ignore it.
        """
        raise NotImplementedError

    def fixed_tier(
        self,
        program: "Program",
        spec: "FixedPointSpec",
        config: "FxpConfig | None" = None,
    ) -> str:
        """Label of the execution tier ``run_fixed`` would use for this
        (program, spec, config) — e.g. ``batch[int64]``."""
        return self.name

    def listing(self) -> dict[str, object]:
        """The backend's entry in :func:`repro.api.registry_listing`."""
        return {
            "name": self.name,
            "description": self.description,
            "tiers": [dict(tier) for tier in self.tiers],
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ScalarBackend(EvaluationBackend):
    """The reference executors, one stimulus and one value at a time."""

    name = "scalar"
    description = "per-op scalar reference interpreters (ground truth)"

    def run_float(self, program, stimuli, range_probe=None):
        from repro.ir.interp import Interpreter

        interpreter = Interpreter(program)
        return [
            interpreter.run(stimulus, range_observer=range_probe)
            for stimulus in stimuli
        ]

    def run_fixed(self, program, spec, stimuli, config=None,
                  force_object=False):
        # ``force_object`` is vacuous here: the scalar reference *is*
        # the exact Python-int semantics every tier must reproduce.
        from repro.fixedpoint.fxpinterp import FixedPointInterpreter

        interpreter = FixedPointInterpreter(program, spec, config)
        return [interpreter.run(stimulus) for stimulus in stimuli]


class BatchBackend(EvaluationBackend):
    """Vectorized executors: all stimuli (and independent loops) at once."""

    name = "batch"
    description = "vectorized array evaluation, bit-identical to scalar"
    tiers = (
        {
            "name": "int64",
            "description": (
                "native int64 numpy lanes; engaged when the static "
                "width proof bounds every mantissa transient within "
                "signed 64-bit"
            ),
        },
        {
            "name": "object",
            "description": (
                "exact arbitrary-precision Python-int lanes; the "
                "universal fallback (and the REPRO_FXP_FORCE_OBJECT=1 "
                "pin)"
            ),
        },
    )

    def run_float(self, program, stimuli, range_probe=None):
        flat = flat_simulation(program, range_probe)
        if flat is not None:
            return flat.outputs(stimuli)
        from repro.ir.batch import BatchInterpreter

        return BatchInterpreter(program).run(stimuli, range_probe=range_probe)

    def op_extremes(self, program, stimuli):
        # The instance graph is imported here, not at the top, so a CLI
        # start never loads it; it is built per call, so nothing keeps
        # it alive in a long-running process.
        from repro.ir.instances import instance_graph

        return instance_graph(program).extremes(stimuli)

    def run_fixed(self, program, spec, stimuli, config=None,
                  force_object=False):
        from repro.fixedpoint.fxpbatch import BatchFixedPointInterpreter

        return BatchFixedPointInterpreter(
            program, spec, config, force_object=force_object
        ).run(stimuli)

    def fixed_tier(self, program, spec, config=None):
        from repro.fixedpoint.fxpbatch import fixed_point_tier

        return f"batch[{fixed_point_tier(program, spec, config)}]"


class BigFloatBackend(EvaluationBackend):
    """The arbitrary-precision oracle (see :mod:`repro.formats`).

    ``run_float`` evaluates with exact Python-int mantissas rounded to
    ~200 bits per operation — the reference that *bounds* the float64
    reference's own rounding noise (``repro validate --oracle``) and
    the baseline every reduced-precision format's noise is measured
    against.  ``run_fixed`` is bit-exact by construction (fixed-point
    arithmetic is integer arithmetic): it pins the batch executor's
    exact object tier, so oracle-backed runs agree with ``scalar`` /
    ``batch`` to the bit — pinned by the formats golden tests.
    """

    name = "bigfloat"
    description = (
        "arbitrary-precision binary-float oracle (exact Python-int "
        "mantissas, 200-bit rounding); float references far below "
        "float64 rounding noise"
    )

    def run_float(self, program, stimuli, range_probe=None):
        flat = flat_simulation(program, range_probe)
        if flat is not None:
            return flat.oracle_outputs(stimuli)
        from repro.ir.batch import OracleBatchInterpreter

        return OracleBatchInterpreter(program).run(
            stimuli, range_probe=range_probe
        )

    def run_fixed(self, program, spec, stimuli, config=None,
                  force_object=False):
        # Fixed-point evaluation is already exact integer arithmetic;
        # the oracle simply pins the arbitrary-precision tier.
        from repro.fixedpoint.fxpbatch import BatchFixedPointInterpreter

        return BatchFixedPointInterpreter(
            program, spec, config, force_object=True
        ).run(stimuli)

    def fixed_tier(self, program, spec, config=None):
        return "bigfloat[object]"


SIM_BACKENDS: Registry[EvaluationBackend] = Registry("evaluation backend", BackendError)
get_backend = SIM_BACKENDS.get
available_backends = SIM_BACKENDS.names


def register_backend(
    backend: EvaluationBackend, *, overwrite: bool = False
) -> EvaluationBackend:
    """Register a backend instance; returns it (decorator-friendly)."""
    return SIM_BACKENDS.register(backend.name, backend, overwrite=overwrite)


register_backend(ScalarBackend())
register_backend(BatchBackend())
register_backend(BigFloatBackend())
