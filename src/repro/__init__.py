"""repro — SLP-aware word-length optimization for embedded SIMD processors.

A from-scratch Python reproduction of El Moussawi & Derrien,
"Superword Level Parallelism aware Word Length Optimization",
DATE 2017 (hal-01425550): joint float-to-fixed-point conversion and
superword-level-parallelism extraction, with all supporting substrates
(IR, fixed-point arithmetic, analytical accuracy models, VLIW target
models, cycle-level scheduling, code generation) included.

Quick start::

    from repro import kernels, targets
    from repro.pipeline import run_flow

    program = kernels.fir(n_samples=256)
    target = targets.get_target("xentium")
    result = run_flow("wlo-slp", program, target, -25.0)
    print(result.summary())
"""

from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = ["ReproError", "__version__"]
