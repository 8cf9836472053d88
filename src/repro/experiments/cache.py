"""On-disk sweep result cache.

One JSON file per cell under a cache directory, named by a SHA-256
content hash of everything that determines the cell's numbers: the
kernel problem sizes (:class:`~repro.experiments.engine.KernelConfig`),
the full cell key (kernel, target, constraint and every cell axis:
WLO engine, joint flow, simulation backend, continuation mode, numeric
format), the cell's resolved pipeline structure, and
:func:`~repro.pipeline.cache.flow_code_version` — a hash of every
semantic source module.  Editing pipeline/WLO/SLP/accuracy/… code rolls
the version and orphans stale entries; editing tests, docs, report
renderers or the CLI leaves the cache warm, so re-rendering
``fig4``/``table1``/``fig6`` after an unrelated edit is near-instant.

The cache is forgiving by design: a corrupted, truncated or
foreign-format file is treated as a miss and overwritten on the next
store, never raised to the caller.  Writes go through a same-directory
temp file + ``os.replace`` so concurrent workers — including workers
on *other hosts* sharing the directory over a network mount (the
``workqueue`` execution backend's cooperation mode) — never tear each
other's reads.  A temp file orphaned by a worker that died mid-write
is unlinked on the failure path when possible, and stale leftovers
from hard kills are swept by the coordinating
:class:`~repro.experiments.engine.SweepExecutor` at the start of a
resolve (:meth:`SweepCache.sweep_stale_tmp` — never in the store hot
path), at most once per directory and stale window in a process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
import uuid
from pathlib import Path

from repro.experiments.engine import (
    Cell,
    CellRequest,
    KernelConfig,
    cell_pipeline_signature,
)
from repro.pipeline.cache import flow_code_version

__all__ = ["SweepCache", "default_cache_dir"]

# 3: CellRequest gained the ``format`` field (repro.formats) — the
# asdict'd request payload changed shape, so pre-format entries are
# orphaned rather than half-matched.
_FORMAT_VERSION = 3

#: Temp files older than this are presumed orphaned by a dead worker
#: (a healthy write lives milliseconds) and swept on the next store.
_TMP_STALE_SECONDS = 3600.0

#: Resolved cache directory -> ``time.time()`` of its last stale-temp
#: sweep in this process.  A temp file goes stale only
#: ``_TMP_STALE_SECONDS`` after its write, so a directory is listed at
#: most once per that window, however many caches (one per ``repro
#: serve`` job) open it.
_LAST_SWEEP: dict[Path, float] = {}
_LAST_SWEEP_LOCK = threading.Lock()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/sweep``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "sweep"


class SweepCache:
    """Persistent (config, request) → :class:`Cell` store."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()

    # ------------------------------------------------------------------
    def key(self, config: KernelConfig, request: CellRequest) -> str:
        """Stable content hash of one cell's full identity.

        Besides the config, the request and the code version, the key
        hashes the *resolved pipeline structure* of the cell's flows —
        every pass signature of the float/baseline/joint pipelines, in
        order — so a newly declared flow variant (or a re-parameterized
        pass list) can never alias cells of another pipeline shape.
        """
        payload = {
            "format": _FORMAT_VERSION,
            "code_version": flow_code_version(),
            "config": dataclasses.asdict(config),
            "request": dataclasses.asdict(request),
            "pipeline": cell_pipeline_signature(request),
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]

    def path(self, config: KernelConfig, request: CellRequest) -> Path:
        return self.directory / f"{self.key(config, request)}.json"

    # ------------------------------------------------------------------
    def load(self, config: KernelConfig, request: CellRequest) -> Cell | None:
        """The cached cell, or ``None`` on miss *or any* decode failure."""
        path = self.path(config, request)
        try:
            payload = json.loads(path.read_text())
            cell = Cell(**payload["cell"])
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            return None  # corrupted / truncated / foreign file: recompute
        if payload.get("request") != dataclasses.asdict(request):
            return None  # hash collision or hand-edited entry
        if (
            cell.kernel != request.kernel
            or cell.target != request.target
            or cell.constraint_db != request.constraint_db
        ):
            return None  # entry's cell belongs to a different key
        return cell

    def store(self, config: KernelConfig, request: CellRequest, cell: Cell) -> Path:
        """Atomically persist one cell; returns its path.

        The temp file is unlinked if the write or rename fails, so an
        interrupted store leaves no permanent ``*.json.tmp*`` litter;
        leftovers from workers killed too hard to clean up are swept
        by :meth:`sweep_stale_tmp` (called by the sweep *coordinator*,
        not here — a store is the hot path of every workqueue worker and
        must not pay an O(directory) glob over a network mount).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(config, request)
        payload = {
            "format": _FORMAT_VERSION,
            "code_version": flow_code_version(),
            "config": dataclasses.asdict(config),
            "request": dataclasses.asdict(request),
            "pipeline": cell_pipeline_signature(request),
            "cell": dataclasses.asdict(cell),
        }
        # PID alone is not unique across the hosts that may share this
        # directory over a network mount (the workqueue backend's
        # cooperation mode); the random component keeps two same-PID
        # writers on different machines from interleaving one file.
        tmp = path.with_name(
            path.name + f".tmp{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    def sweep_stale_tmp(self) -> None:
        """Unlink temp files orphaned by dead workers.

        Called by :class:`~repro.experiments.engine.SweepExecutor` at
        the start of each resolve, so the directory is groomed by its
        coordinator rather than per worker store, and listed again only
        once :data:`_TMP_STALE_SECONDS` have passed since this process
        last listed it.  Only files older than that go — a live
        concurrent writer's temp file is always younger.  Racing
        sweepers are fine: losing the unlink race is ignored.
        """
        now = time.time()
        directory = self.directory.resolve()
        with _LAST_SWEEP_LOCK:
            last = _LAST_SWEEP.get(directory)
            if last is not None and now - last < _TMP_STALE_SECONDS:
                return
            _LAST_SWEEP[directory] = now
        cutoff = now - _TMP_STALE_SECONDS
        for tmp in self.directory.glob("*.json.tmp*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
            except OSError:
                pass  # vanished or swept by a peer: nothing to do

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))
