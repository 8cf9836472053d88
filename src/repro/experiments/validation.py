"""Accuracy-model validation experiment.

Not a paper figure, but the experiment that makes every paper figure
credible: sweep uniform word lengths per kernel and tabulate the
analytical evaluator (what the flows optimize against) next to
bit-accurate measurement (ground truth).  The flows are only as honest
as this table.

``oracle=True`` (the CLI's ``repro validate --oracle``) adds a second
measurement against the arbitrary-precision ``bigfloat`` reference
backend, plus the float64 reference's *own* rounding noise relative to
that oracle — the measurement floor of the standard column.  A row
whose measured noise approaches that floor is flagged as
rounding-limited: its ``measured_db`` says more about float64 than
about the spec under test.
"""

from __future__ import annotations

from repro.accuracy import SimulationAccuracyEvaluator
from repro.accuracy.metrics import measured_noise_power
from repro.experiments.runner import ExperimentRunner
from repro.ir.backend import DEFAULT_BACKEND
from repro.report.tables import TextTable
from repro.utils import power_to_db

__all__ = ["validation_table"]

#: Word lengths swept per kernel; IIR stops earlier because below
#: ~14 bits its quantization noise reaches signal level and the linear
#: model leaves its validity region (see EXPERIMENTS.md).
_SWEEPS = {
    "fir": (32, 24, 20, 16, 12, 10),
    "iir": (32, 24, 20, 16),
    "conv": (32, 24, 20, 16, 12, 10),
}

#: A measured noise within this many dB of the float64 reference's own
#: rounding noise is dominated by the reference, not the spec.
_ROUNDING_LIMITED_MARGIN_DB = 20.0


def validation_table(
    runner: ExperimentRunner,
    kernels: tuple[str, ...] = ("fir", "iir", "conv"),
    n_stimuli: int = 2,
    seed: int = 424242,
    backend: str = DEFAULT_BACKEND,
    oracle: bool = False,
) -> TextTable:
    """Analytical vs measured output noise across uniform specs.

    Reads each kernel's analysis context from the process-global pass
    cache (via ``runner.context``), where the sweep cells left their
    prefix, so a validation pass after a figure sweep costs only the
    bit-accurate simulations.  ``n_stimuli``, ``seed`` and ``backend``
    parameterize those simulations (the CLI flags ``--stimuli`` /
    ``--sim-seed`` / ``--sim-backend``); ``oracle`` adds the
    measured-vs-oracle columns (``--oracle``).
    """
    headers = ["kernel", "word_length", "analytical_db", "measured_db",
               "difference_db", "sim_tier"]
    if oracle:
        headers[4:4] = ["oracle_db", "ref_rounding_db", "note"]
    table = TextTable(
        headers=tuple(headers),
        title="Model validation — analytical EVALACC vs bit-accurate simulation",
    )
    for kernel in kernels:
        context = runner.context(kernel)
        discard = 64 if kernel == "iir" else 0
        evaluator = SimulationAccuracyEvaluator(
            context.analysis_program, n_stimuli=n_stimuli, seed=seed,
            discard=discard, backend=backend,
        )
        oracle_evaluator = None
        ref_rounding_db = 0.0
        if oracle:
            # Same n_stimuli/seed => bit-identical stimulus set, so the
            # two measurements differ only in their reference.
            oracle_evaluator = SimulationAccuracyEvaluator(
                context.analysis_program, n_stimuli=n_stimuli, seed=seed,
                discard=discard, backend="bigfloat",
            )
            ref_power = sum(
                measured_noise_power(exact, rounded, discard)
                for exact, rounded in zip(
                    oracle_evaluator.references, evaluator.references
                )
            ) / n_stimuli
            ref_rounding_db = power_to_db(ref_power)
        for wl in _SWEEPS.get(kernel, (32, 16)):
            spec = context.fresh_spec()
            for root in context.slotmap.roots:
                spec.set_wl(root, wl)
            analytical = context.model.noise_db(spec)
            measured = evaluator.noise_db(spec)
            row = [
                kernel, wl, round(analytical, 2), round(measured, 2),
                round(analytical - measured, 2), evaluator.tier(spec),
            ]
            if oracle_evaluator is not None:
                note = ""
                if measured <= ref_rounding_db + _ROUNDING_LIMITED_MARGIN_DB:
                    note = "rounding-limited"
                row[4:4] = [
                    round(oracle_evaluator.noise_db(spec), 2),
                    round(ref_rounding_db, 2), note,
                ]
            table.add_row(*row)
    return table
