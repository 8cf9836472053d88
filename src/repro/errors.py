"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single except clause
while still discriminating on the specific subclass when needed.

:func:`unknown_name_error` builds the one uniform "unknown name"
message of every :class:`repro.registry.Registry` lookup and of the
few name checks outside a registry, so a typo anywhere — CLI flag,
Python call or wire request — always answers with the available
alternatives in the same shape.
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "ReproError",
    "unknown_name_error",
    "IRError",
    "ValidationError",
    "InterpreterError",
    "BackendError",
    "ExecutionBackendError",
    "FixedPointError",
    "FormatError",
    "OverflowPolicyError",
    "RangeAnalysisError",
    "AccuracyError",
    "SLPError",
    "WLOError",
    "TargetError",
    "SchedulerError",
    "CodegenError",
    "FlowError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class IRError(ReproError):
    """Malformed IR construction (bad operands, unknown symbols, ...)."""


class ValidationError(IRError):
    """A program failed structural validation."""


class InterpreterError(ReproError):
    """Runtime failure while interpreting a program."""


class BackendError(ReproError):
    """Unknown or misused evaluation backend."""


class ExecutionBackendError(BackendError):
    """Unknown or misused sweep execution backend."""


class FixedPointError(ReproError):
    """Invalid fixed-point format or operation."""


class OverflowPolicyError(FixedPointError):
    """A value overflowed its format under the 'error' overflow policy."""


class FormatError(ReproError):
    """Unknown or misused numeric format (see :mod:`repro.formats`)."""


class RangeAnalysisError(ReproError):
    """Dynamic-range analysis could not bound a value."""


class AccuracyError(ReproError):
    """Accuracy evaluation failed (no output, degenerate gains, ...)."""


class SLPError(ReproError):
    """SLP extraction failure (inconsistent groups, bad lane order, ...)."""


class WLOError(ReproError):
    """Word-length optimization failure (infeasible constraint, ...)."""


class TargetError(ReproError):
    """Unknown target or inconsistent target model."""


class SchedulerError(ReproError):
    """List scheduling failed (cyclic machine-op graph, ...)."""


class CodegenError(ReproError):
    """Lowering or C emission failure."""


class FlowError(ReproError):
    """End-to-end compilation flow failure."""


def unknown_name_error(
    error_cls: type[ReproError],
    kind: str,
    name: object,
    available: Iterable[str],
) -> ReproError:
    """The standard unknown-name error of every registry lookup.

    Always lists the available alternatives, sorted and comma-joined::

        unknown flow 'warp'; available: float, wlo-first, wlo-slp, ...

    Registries raise their own :class:`ReproError` subclass
    (``error_cls``) so callers can still discriminate, but the message
    shape is identical everywhere — asserted by the format tests in
    ``tests/test_api.py``.
    """
    choices = ", ".join(sorted(available))
    return error_cls(f"unknown {kind} {name!r}; available: {choices}")
