"""The JSON wire of ``repro serve`` — stdlib ``http.server`` only.

Endpoints (all JSON):

* ``GET  /health`` — liveness + job stats.
* ``GET  /registries`` — the seven registries; byte-identical payload
  to ``repro flows --json``.
* ``GET  /jobs`` — every job's summary.
* ``GET  /jobs/<id>`` — one job's summary (counts, progress, status).
* ``GET  /jobs/<id>/outcomes?since=N`` — incremental outcome poll;
  returns ``next`` to pass as the following ``since``.
* ``POST /jobs`` — submit a :class:`~repro.api.SweepRequest` payload;
  missing fields take the server's defaults (its CLI flags), unknown
  fields or names are a 400 carrying the registry's own
  "available: …" message.

Bad requests are ``{"error": "..."}`` with a 4xx status; the handler
never lets a :class:`~repro.errors.ReproError` escape into a 500.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.api import registry_listing
from repro.errors import ReproError
from repro.serve.service import SweepService

__all__ = ["ReproRequestHandler", "make_server"]


class ReproRequestHandler(BaseHTTPRequestHandler):
    """One request; the service lives on the server object."""

    server_version = "repro-serve/1"

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def _send(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message: str, status: int = 400) -> None:
        self._send({"error": message}, status)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["health"]:
                self._send({"status": "ok", **self.service.stats()})
            elif parts == ["registries"]:
                self._send(registry_listing())
            elif parts == ["jobs"]:
                self._send({"jobs": self.service.jobs()})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._send(self.service.job(_job_id(parts[1])).summary())
            elif (
                len(parts) == 3
                and parts[0] == "jobs"
                and parts[2] == "outcomes"
            ):
                query = parse_qs(url.query)
                since = int(query.get("since", ["0"])[0])
                self._send(
                    self.service.outcomes_since(_job_id(parts[1]), since)
                )
            else:
                self._error(f"no such endpoint: GET {url.path}", 404)
        except ReproError as error:
            self._error(str(error), 404 if "unknown job" in str(error) else 400)
        except ValueError as error:
            self._error(str(error), 400)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        if parts != ["jobs"]:
            self._error(f"no such endpoint: POST {url.path}", 404)
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            raw = self.rfile.read(length) if length else b"{}"
            payload = json.loads(raw.decode() or "{}")
            if not isinstance(payload, dict):
                raise ReproError("sweep request body must be a JSON object")
            job = self.service.submit_payload(payload)
        except json.JSONDecodeError as error:
            self._error(f"invalid JSON body: {error}")
            return
        except ReproError as error:
            self._error(str(error))
            return
        self._send(
            {
                "id": job.id,
                "status": job.status,
                "planned": job.planned,
                "request": job.request.to_payload(),
            },
            status=201,
        )


def _job_id(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ReproError(f"unknown job {text!r}; job ids are integers")


def make_server(
    host: str,
    port: int,
    service: SweepService,
    *,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` threading HTTP server.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.
    """
    server = ThreadingHTTPServer((host, port), ReproRequestHandler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server
