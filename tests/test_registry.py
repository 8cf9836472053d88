"""The one registry type: every name table keeps the same contract.

Flows, WLO engines, simulation and execution backends, formats,
targets and kernels are each a :class:`repro.registry.Registry`, so a
name is registered, resolved, listed and rejected one way everywhere,
and requests store it in one spelling.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import SweepRequest
from repro.errors import (
    BackendError,
    ExecutionBackendError,
    FlowError,
    FormatError,
    IRError,
    TargetError,
    WLOError,
    unknown_name_error,
)
from repro.experiments.backends import EXECUTION_BACKENDS
from repro.experiments.engine import CellRequest, KernelConfig, SweepPlan
from repro.formats import FORMATS
from repro.ir.backend import SIM_BACKENDS
from repro.kernels import KERNELS
from repro.pipeline.registry import FLOWS
from repro.registry import Registry
from repro.targets.registry import TARGETS
from repro.wlo.registry import WLO_ENGINES

ROOT = Path(__file__).resolve().parent.parent

#: registry name -> (registry, its error class, its kind, a built-in name)
CASES = {
    "flows": (FLOWS, FlowError, "flow", "wlo-slp"),
    "wlo_engines": (WLO_ENGINES, WLOError, "WLO engine", "min+1"),
    "sim_backends": (
        SIM_BACKENDS, BackendError, "evaluation backend", "scalar"
    ),
    "execution_backends": (
        EXECUTION_BACKENDS, ExecutionBackendError, "execution backend",
        "serial",
    ),
    "formats": (FORMATS, FormatError, "format", "float32"),
    "targets": (TARGETS, TargetError, "target", "xentium"),
    "kernels": (KERNELS, IRError, "kernel", "fir"),
}


@pytest.fixture(params=list(CASES))
def case(request):
    return CASES[request.param]


class TestRegistryContract:
    def test_is_a_registry_of_its_kind(self, case):
        registry, error, kind, _ = case
        assert isinstance(registry, Registry)
        assert (registry.kind, registry.error) == (kind, error)

    def test_duplicate_registration_rejected(self, case):
        registry, error, kind, name = case
        item = registry.get(name)
        before = registry.generation
        message = f"{kind} {name.upper()!r} is already registered"
        with pytest.raises(error, match=re.escape(message)):
            registry.register(name.upper(), item)
        assert registry.generation == before
        assert registry.get(name) is item

    def test_unknown_name_uses_the_standard_message(self, case):
        registry, error, kind, _ = case
        with pytest.raises(error) as info:
            registry.get("no-such-name")
        assert type(info.value) is error
        expected = unknown_name_error(
            error, kind, "no-such-name", registry.names()
        )
        assert str(info.value) == str(expected)
        assert registry.find("no-such-name") is None

    def test_mixed_case_lookup_returns_the_same_object(self, case):
        registry, _, _, name = case
        item = registry.get(name)
        assert registry.get(name.upper()) is item
        assert registry.find(name.title()) is item

    def test_names_are_sorted(self, case):
        registry, _, _, name = case
        names = registry.names()
        assert names == sorted(names)
        assert name in names

    def test_generation_rises_on_register(self, case):
        registry, _, _, name = case
        item = registry.get(name)
        before = registry.generation
        assert registry.register(name, item, overwrite=True) is item
        assert registry.generation == before + 1
        assert registry.get(name) is item


class TestListing:
    def test_items_list_themselves_or_their_name(self):
        class Entry:
            def listing(self):
                return {"name": "b-entry"}

        registry = Registry("thing", FlowError)
        registry.register("C-Plain", object())
        registry.register("b-entry", Entry())
        registry.register("a-plain", len)
        assert registry.names() == ["a-plain", "b-entry", "c-plain"]
        assert registry.listing() == ["a-plain", {"name": "b-entry"}, "c-plain"]

    def test_fresh_process_listing_matches_the_recorded_one(self):
        """``repro flows --json`` of a fresh process (the in-process
        registries carry what other tests registered) against the
        listing recorded before the tables became registries."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "flows", "--json"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        recorded = ROOT / "tests" / "data" / "registry_listing.json"
        assert result.stdout == recorded.read_text()


class TestOneSpelling:
    """Requests store every registry name in the registries' spelling,
    so two spellings are one cell and one cache key."""

    def test_cell_request(self):
        mixed = CellRequest(
            "FIR", "XENTIUM", -15.0, wlo="Max-1", flow="WLO-SLP",
            sim_backend="Scalar", format="Float32",
        )
        lower = CellRequest(
            "fir", "xentium", -15.0, wlo="max-1", flow="wlo-slp",
            sim_backend="scalar", format="float32",
        )
        assert mixed == lower and hash(mixed) == hash(lower)

    def test_sweep_request(self):
        mixed = SweepRequest(
            kernels=("FIR",), targets=("XENTIUM", "Vex-1"), only=("Fir:VEX-1",),
            wlo="TABU", flow="Wlo-Slp", sim_backend="BATCH",
            backend="Serial", grid=(-15.0,),
        )
        lower = SweepRequest(
            kernels=("fir",), targets=("xentium", "vex-1"), only=("fir:vex-1",),
            wlo="tabu", flow="wlo-slp", sim_backend="batch",
            backend="serial", grid=(-15.0,),
        )
        assert mixed == lower
        requests = mixed.validate().plan().requests
        assert requests == lower.plan().requests
        assert [(r.kernel, r.target) for r in requests] == [("fir", "vex-1")]

    def test_unset_optional_name_is_the_default(self):
        payload = {"sim_backend": None, "backend": None}
        assert SweepRequest.from_payload(payload) == SweepRequest()
        assert CellRequest("fir", "vex-1", -15.0, sim_backend=None).sim_backend == ""

    def test_plan_only_filter(self):
        plan = SweepPlan.build(
            KernelConfig(), ("FIR",), ("Vex-1",), (-15.0,), ("fir:VEX-1",)
        )
        assert [(r.kernel, r.target) for r in plan.requests] == [("fir", "vex-1")]

    def test_unknown_sweep_kernel_keeps_the_standard_error(self):
        with pytest.raises(FlowError, match="unknown kernel 'fft'"):
            SweepRequest(kernels=("FFT",)).validate()
