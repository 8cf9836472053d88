"""Target lookup by name: a :class:`repro.registry.Registry` of factories."""

from __future__ import annotations

from typing import Callable

from repro.errors import TargetError
from repro.registry import Registry
from repro.targets.model import TargetModel
from repro.targets.st240 import st240
from repro.targets.vex import vex
from repro.targets.xentium import xentium

__all__ = ["TARGETS", "get_target", "available_targets", "register_target"]

TARGETS: Registry[Callable[[], TargetModel]] = Registry("target", TargetError)
TARGETS.register("xentium", xentium)
TARGETS.register("st240", st240)
TARGETS.register("vex-1", lambda: vex(1))
TARGETS.register("vex-4", lambda: vex(4))
available_targets = TARGETS.names


def get_target(name: str) -> TargetModel:
    """Build a target model by name (case-insensitive)."""
    return TARGETS.get(name)()


def register_target(name: str, factory: Callable[[], TargetModel]) -> None:
    """Register a custom target (used by examples and tests), replacing
    any same-named one."""
    TARGETS.register(name, factory, overwrite=True)
