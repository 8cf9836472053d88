"""Embedded VLIW SIMD processor models."""

from repro.targets.model import TargetModel, WordLengths
from repro.targets.registry import available_targets, get_target, register_target
from repro.targets.st240 import st240
from repro.targets.vex import vex
from repro.targets.xentium import xentium

__all__ = [
    "TargetModel",
    "WordLengths",
    "available_targets",
    "get_target",
    "register_target",
    "st240",
    "vex",
    "xentium",
]
