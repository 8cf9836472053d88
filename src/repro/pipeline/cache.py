"""Per-pass result cache and the content fingerprints that key it.

Two-level scheme:

* **Fingerprints** identify artifact *content*.  Seed artifacts get a
  true content hash — a :class:`~repro.ir.program.Program` hashes its
  printed IR plus every compile-time array payload, a target model
  (and a target's word lengths) its dataclass repr, a constraint its
  float repr.  Artifacts produced by a pass inherit a fingerprint
  derived from that pass's cache key, so provenance chains compose
  without re-hashing big objects — except ``spec`` and ``groups``
  (:func:`derived_fingerprint`).  Those two are what the back end
  (SLP extraction, lowering, scheduling) reads, and searches at
  different constraints often end in equal ones; hashed by content,
  they let those passes run once per distinct input.
* **Pass keys** combine the pass signature (name + parameters), the
  fingerprints of everything the pass reads, and
  :func:`flow_code_version` (so editing semantic source rolls every
  key).  The :class:`PassCache` maps keys to output artifact dicts;
  per-pass hit/miss counters make reuse observable to tests,
  benchmarks and the ``--timings`` report.

The default cache is process-global: every pipeline run in a process
(or pool worker) shares one analysis prefix per kernel, which is what
lets a constraint sweep skip range/adjoint work on all but the first
constraint.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.ir.program import Program
from repro.targets.model import TargetModel, WordLengths

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.pipeline.passes import Pass
    from repro.pipeline.state import FlowState

__all__ = [
    "PassCache",
    "content_fingerprint",
    "derived_fingerprint",
    "flow_code_version",
    "global_pass_cache",
    "pass_key",
]


def _is_semantic(relative: str) -> bool:
    """Whether a package-relative source path can change cell numbers.

    Pure presentation (``report/``), the CLI front end and the
    experiment orchestration layer are excluded — with one exception:
    ``experiments/engine.py`` holds the kernel builders and flow
    wiring of :func:`evaluate_cell`, so it is semantic.  Everything
    else — IR, kernels, pipeline, WLO, SLP, fixed-point, accuracy,
    scheduler, codegen, targets — participates.
    """
    top = relative.split("/", 1)[0]
    if top in ("report", "cli.py"):
        return False
    if top == "experiments":
        return relative == "experiments/engine.py"
    return True


@lru_cache(maxsize=1)
def flow_code_version() -> str:
    """Content hash of every source file that can change flow numbers.

    Every pass key, and the on-disk sweep cache
    (:mod:`repro.experiments.cache`) for each cell, includes this hash,
    so editing any semantic module (pipeline, WLO, SLP, accuracy,
    scheduler, codegen, kernels, targets, IR, fixed-point) invalidates
    stale results, while edits to tests, docs, the report renderers,
    the CLI, or the experiment harness leave the cache warm.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if not _is_semantic(relative):
            continue
        digest.update(relative.encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def _digest(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:32]


def _program_fingerprint(program: Program) -> str:
    """Content hash of a program: printed IR + compile-time payloads.

    The printer covers symbols (with value ranges), the loop tree and
    every op; coefficient/state payloads are hashed separately because
    the printer does not dump array contents.  Memoized on the program
    object — kernel programs live for the whole process.
    """
    cached = getattr(program, "_content_fingerprint", None)
    if cached is not None:
        return cached
    payloads = hashlib.sha256()
    for decl in program.arrays.values():
        if decl.values is not None:
            payloads.update(decl.name.encode())
            payloads.update(str(decl.values.dtype).encode())
            payloads.update(decl.values.tobytes())
    fingerprint = _digest("program", program.name, str(program),
                          payloads.hexdigest())
    try:
        program._content_fingerprint = fingerprint
    except AttributeError:  # pragma: no cover - slotted Program variant
        pass
    return fingerprint


def content_fingerprint(value: Any) -> str:
    """Content hash of a seed artifact (program / target / word lengths /
    scalar)."""
    if isinstance(value, Program):
        return _program_fingerprint(value)
    if isinstance(value, TargetModel):
        return _digest("target", repr(value))
    if isinstance(value, WordLengths):
        return _digest("word-lengths", repr(value))
    if value is None or isinstance(value, (bool, int, float, str)):
        return _digest("scalar", repr(value))
    raise TypeError(
        f"no content fingerprint for {type(value).__name__}; "
        f"derived artifacts must be written by a pass"
    )


def derived_fingerprint(name: str, value: Any, key: str) -> str:
    """Fingerprint of artifact ``name`` written by the pass keyed ``key``.

    A ``spec`` (a :class:`~repro.fixedpoint.spec.FixedPointSpec`) is
    hashed by its program, its ``max_wl`` and its format state; a
    ``groups`` artifact (block name -> :class:`~repro.slp.groups.GroupSet`)
    by every group's id, kind, lanes in order and lane word length.
    Every other artifact inherits the pass key, constraint and all.
    """
    if name == "spec":
        return _digest(
            "spec", _program_fingerprint(value.slotmap.program),
            str(value.max_wl), value.state_key().hex(),
        )
    if name == "groups":
        return _digest("groups", repr([
            (block, [(g.gid, g.kind.name, g.lanes, g.wl) for g in group_set])
            for block, group_set in value.items()
        ]))
    return f"{key}:{name}"


def pass_key(pass_: "Pass", state: "FlowState") -> str:
    """Cache key of one pass applied to one state."""
    return _digest(
        "pass", pass_.signature(), flow_code_version(),
        *(state.fingerprint(name) for name in pass_.reads),
    )


class PassCache:
    """LRU-bounded store of pass outputs with per-pass hit counters.

    ``misses[name]`` counts actual executions of cacheable passes, so
    "the analysis prefix ran exactly once across this sweep" is a
    directly assertable property.  :meth:`resolve` computes each key
    once at a time: a thread that misses on a key another thread is
    computing waits for that result and counts a hit.

    The cache is least-recently-used bounded (``max_entries``) because
    the global instance lives for the whole process: per-cell artifacts
    (lowered programs, cycle reports of individual constraints) would
    otherwise accumulate across a long sweep.  The hot, shared entries
    — the analysis prefix of each kernel — are re-touched by every
    cell and therefore never age out in practice.

    ``repro serve`` runs jobs on threads that share the global
    instance, so every read-modify-write of the entries and counters
    holds one lock: a store evicting the key :meth:`resolve` just found
    must not land between its read and its LRU touch.
    """

    def __init__(self, max_entries: int = 512) -> None:
        self.max_entries = max(1, int(max_entries))
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}
        self._lock = threading.Lock()
        #: keys being computed -> the event their owner sets when done.
        self._pending: dict[str, threading.Event] = {}

    def resolve(
        self, pass_name: str, key: str, compute: Callable[[], dict[str, Any]]
    ) -> tuple[dict[str, Any], bool]:
        """The outputs under ``key``, and whether they were a hit.

        On a miss the first thread runs ``compute`` and stores its
        outputs; others missing on the same key meanwhile wait and then
        count a hit.  If ``compute`` raises, the error is the owner's,
        and one waiter runs it again.
        """
        while True:
            with self._lock:
                found = self._entries.get(key)
                if found is not None:
                    self._entries.move_to_end(key)
                    self.hits[pass_name] = self.hits.get(pass_name, 0) + 1
                    return found, True
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Event()
                    self.misses[pass_name] = self.misses.get(pass_name, 0) + 1
                    break
            pending.wait()
        try:
            outputs = compute()
            self.store(key, outputs)
        finally:
            with self._lock:
                del self._pending[key]
            pending.set()
        return outputs, False

    def count_execution(self, pass_name: str) -> None:
        """Record one actual run (also used for uncacheable passes)."""
        with self._lock:
            self.misses[pass_name] = self.misses.get(pass_name, 0) + 1

    def store(self, key: str, outputs: dict[str, Any]) -> None:
        with self._lock:
            self._entries[key] = outputs
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def executions(self, pass_name: str) -> int:
        """How many times the named pass actually ran (cache misses)."""
        return self.misses.get(pass_name, 0)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits.clear()
            self.misses.clear()

    def __len__(self) -> int:
        return len(self._entries)


_GLOBAL_CACHE = PassCache()


def global_pass_cache() -> PassCache:
    """The process-wide cache every pipeline run shares by default."""
    return _GLOBAL_CACHE
