"""Simulation-based accuracy evaluation.

The ground-truth counterpart of :class:`~repro.accuracy.analytical.AccuracyModel`:
run the bit-accurate fixed-point interpreter against the float
reference over representative stimuli and measure the output error
power.  Slower than the analytical model, it is used to *validate*
specs (every flow result is checked against it in the tests) rather
than inside optimization loops.

Execution is delegated to an :class:`~repro.ir.backend.EvaluationBackend`
resolved by name: the default ``batch`` backend evaluates every
stimulus (and every independent loop) as array lanes in one pass —
bit-identical to the ``scalar`` reference, an order of magnitude
faster (see ``benchmarks/test_bench_micro.py``).  A format's measured
outputs follow the backends' rule (:func:`~repro.ir.backend.flat_simulation`):
a program without lane loops runs as flat loops over its instance
graph, a program with lane loops on
:class:`~repro.ir.batch.FormatBatchInterpreter`'s lanes.
"""

from __future__ import annotations

import numpy as np

from repro.accuracy.metrics import measured_noise_power
from repro.errors import AccuracyError
from repro.fixedpoint.fxpinterp import FxpConfig
from repro.fixedpoint.spec import FixedPointSpec
from repro.formats import get_format
from repro.ir.backend import DEFAULT_BACKEND, flat_simulation, get_backend
from repro.ir.batch import FormatBatchInterpreter
from repro.ir.program import Program
from repro.utils import power_to_db

__all__ = ["FormatAccuracyEvaluator", "SimulationAccuracyEvaluator"]


class SimulationAccuracyEvaluator:
    """Measure a spec's output noise power by bit-accurate execution.

    ``n_stimuli`` and ``seed`` control the stimulus set (the CLI
    exposes them as ``--stimuli`` / ``--sim-seed``); ``backend`` names
    the evaluation backend executing both the float references and
    every fixed-point measurement.  ``force_object`` pins a multi-tier
    backend to its exact arbitrary-precision tier (tiers are
    bit-identical, so this only ever changes wall time).
    """

    def __init__(
        self,
        program: Program,
        n_stimuli: int = 3,
        seed: int = 424242,
        config: FxpConfig | None = None,
        discard: int = 0,
        backend: str = DEFAULT_BACKEND,
        force_object: bool = False,
    ) -> None:
        if n_stimuli < 1:
            raise AccuracyError(
                f"simulation needs at least one stimulus, got {n_stimuli}"
            )
        self.program = program
        self.config = config or FxpConfig()
        self.discard = discard
        self.backend = get_backend(backend)
        self.force_object = force_object
        rng = np.random.default_rng(seed)
        self.stimuli: list[dict[str, np.ndarray]] = []
        for _ in range(n_stimuli):
            stimulus = {}
            for decl in program.input_arrays():
                lo, hi = decl.value_range  # type: ignore[misc]
                stimulus[decl.name] = rng.uniform(lo, hi, size=decl.shape)
            self.stimuli.append(stimulus)
        self.references = self.backend.run_float(program, self.stimuli)

    # ------------------------------------------------------------------
    def noise_power(self, spec: FixedPointSpec) -> float:
        """Average measured output noise power over the stimuli."""
        measured = self.backend.run_fixed(
            self.program, spec, self.stimuli, self.config,
            force_object=self.force_object,
        )
        total = 0.0
        for reference, outputs in zip(self.references, measured):
            total += measured_noise_power(reference, outputs, self.discard)
        return total / len(self.stimuli)

    def tier(self, spec: FixedPointSpec) -> str:
        """Execution-tier label the backend picks for ``spec``
        (e.g. ``batch[int64]``), honouring ``force_object``."""
        if self.force_object and self.backend.tiers:
            return f"{self.backend.name}[object]"
        return self.backend.fixed_tier(self.program, spec, self.config)

    def noise_db(self, spec: FixedPointSpec) -> float:
        """Measured output noise power in dB."""
        return power_to_db(self.noise_power(spec))

    def violates(self, spec: FixedPointSpec, constraint_db: float) -> bool:
        """True when the measured noise exceeds the constraint."""
        return self.noise_db(spec) > constraint_db


class FormatAccuracyEvaluator:
    """Measure a binary float *format's* output noise on a kernel.

    The format-sweep counterpart of
    :class:`SimulationAccuracyEvaluator`: instead of a per-slot
    fixed-point spec, the quantization target is a whole-program
    numeric format from :mod:`repro.formats` (``float32``,
    ``bfloat16``, ``binary(E,M)``, …), executed with correctly-rounded
    RNE semantics: by :class:`~repro.ir.batch.FormatBatchInterpreter`
    on a program with lane loops, else by
    :meth:`~repro.ir.instances.FlatSimulation.format_outputs`, to the
    same bits.  References come from the ``bigfloat`` oracle by default,
    so the reported noise is the format's true rounding error rather
    than its distance from an itself-rounded float64 run.
    """

    def __init__(
        self,
        program: Program,
        format_name: str,
        n_stimuli: int = 3,
        seed: int = 424242,
        discard: int = 0,
        reference_backend: str = "bigfloat",
    ) -> None:
        if n_stimuli < 1:
            raise AccuracyError(
                f"simulation needs at least one stimulus, got {n_stimuli}"
            )
        spec = get_format(format_name)
        if spec.kind != "float":
            raise AccuracyError(
                f"format {spec.name!r} (kind {spec.kind!r}) is not a "
                f"measurable quantization format"
            )
        self.program = program
        self.format = spec
        self.discard = discard
        self.reference_backend = get_backend(reference_backend)
        rng = np.random.default_rng(seed)
        self.stimuli: list[dict[str, np.ndarray]] = []
        for _ in range(n_stimuli):
            stimulus = {}
            for decl in program.input_arrays():
                lo, hi = decl.value_range  # type: ignore[misc]
                stimulus[decl.name] = rng.uniform(lo, hi, size=decl.shape)
            self.stimuli.append(stimulus)
        self.references = self.reference_backend.run_float(
            program, self.stimuli
        )

    # ------------------------------------------------------------------
    def measured_outputs(self) -> list[dict[str, np.ndarray]]:
        """Format-rounded execution outputs, one dict per stimulus."""
        flat = flat_simulation(self.program)
        if flat is not None:
            return flat.format_outputs(self.stimuli, self.format)
        return FormatBatchInterpreter(self.program, self.format).run(
            self.stimuli
        )

    def noise_power(self) -> float:
        """Average output noise power of the format over the stimuli."""
        total = 0.0
        for reference, outputs in zip(self.references,
                                      self.measured_outputs()):
            total += measured_noise_power(reference, outputs, self.discard)
        return total / len(self.stimuli)

    def noise_db(self) -> float:
        """Measured format noise power in dB."""
        return power_to_db(self.noise_power())
