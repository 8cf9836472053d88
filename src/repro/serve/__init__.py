"""``repro serve`` — the sweep engine as a long-lived HTTP job service.

A thin stdlib-only daemon (no new dependencies — the HTTP layer is
``http.server.ThreadingHTTPServer``) wrapping the typed request API of
:mod:`repro.api`:

* :mod:`~repro.serve.service` — :class:`SweepService`: in-process job
  store + one background thread per sweep, streaming
  :class:`~repro.experiments.engine.CellOutcome` payloads into each
  job as they resolve.  All jobs share one in-memory memo and (by
  default) one disk cache, so repeated submissions are warm.
* :mod:`~repro.serve.http` — the JSON wire: ``POST /jobs`` takes a
  :class:`~repro.api.SweepRequest` payload, ``GET /jobs/<id>/outcomes``
  polls incremental results, ``GET /registries`` lists the seven
  registries (the exact ``repro flows --json`` payload), ``GET
  /health`` liveness.

Quick start::

    repro serve --port 8642 --jobs 4 &
    curl -s localhost:8642/registries | python -m json.tool
    curl -s -X POST localhost:8642/jobs -d \\
        '{"kernels": ["fir"], "targets": ["xentium"], "grid": [-25.0]}'
    curl -s localhost:8642/jobs/1/outcomes?since=0
"""

from repro.serve.http import make_server
from repro.serve.service import SweepService

__all__ = ["SweepService", "make_server"]
