"""End-to-end tests for the ``repro serve`` HTTP service.

A real :class:`ThreadingHTTPServer` on an ephemeral port, driven with
stdlib ``urllib`` — submit a job over the wire, poll its outcomes to
completion, and assert the payload is bit-for-bit what a serial
in-process run of the same :class:`~repro.api.SweepRequest` produces.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.api import SweepRequest, registry_listing
from repro.experiments import KernelConfig
from repro.serve import SweepService, make_server

SMALL = KernelConfig(
    n_samples=96, analysis_samples=96, image_size=18, analysis_image_size=18
)

ONE_CELL = {
    "kernels": ["fir"],
    "targets": ["vex-1"],
    "grid": [-15.0],
    "no_cache": True,
}


@pytest.fixture(scope="module")
def server_url():
    import threading

    service = SweepService(config=SMALL)
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def _post(url: str, payload: dict):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def _error_of(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    return excinfo.value.code, json.loads(excinfo.value.read().decode())


def _poll_to_completion(server_url: str, job_id: int, deadline_s: float = 120.0):
    """Incremental-poll a job like a real client: chase ``next`` until
    the status goes terminal, accumulating the outcome chunks."""
    outcomes, since = [], 0
    deadline = time.monotonic() + deadline_s
    while True:
        _, page = _get(f"{server_url}/jobs/{job_id}/outcomes?since={since}")
        outcomes.extend(page["outcomes"])
        since = page["next"]
        if page["status"] in ("done", "error"):
            return page["status"], page["error"], outcomes
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)


class TestEndpoints:
    def test_health(self, server_url):
        status, payload = _get(f"{server_url}/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert set(payload) >= {"jobs", "running", "done", "memo_cells"}

    def test_registries_match_the_python_listing(self, server_url):
        status, payload = _get(f"{server_url}/registries")
        assert status == 200
        assert payload == json.loads(json.dumps(registry_listing()))

    def test_unknown_endpoint_is_404(self, server_url):
        code, payload = _error_of(lambda: _get(f"{server_url}/nope"))
        assert code == 404 and "no such endpoint" in payload["error"]

    def test_unknown_job_is_404(self, server_url):
        code, payload = _error_of(lambda: _get(f"{server_url}/jobs/999"))
        assert code == 404 and "unknown job" in payload["error"]

    def test_unknown_request_field_is_400(self, server_url):
        code, payload = _error_of(
            lambda: _post(f"{server_url}/jobs", {"kernelz": ["fir"]})
        )
        assert code == 400
        assert "unknown sweep request field" in payload["error"]

    def test_unknown_registry_name_is_400_with_alternatives(self, server_url):
        code, payload = _error_of(
            lambda: _post(f"{server_url}/jobs", {**ONE_CELL, "wlo": "quantum"})
        )
        assert code == 400
        assert payload["error"].startswith("unknown WLO engine ")
        assert "available: " in payload["error"]

    def test_invalid_json_body_is_400(self, server_url):
        def call():
            request = urllib.request.Request(
                f"{server_url}/jobs", data=b"not json", method="POST"
            )
            with urllib.request.urlopen(request, timeout=30):
                pass

        code, payload = _error_of(call)
        assert code == 400 and "invalid JSON body" in payload["error"]


class TestSubmitAndPoll:
    def test_http_job_matches_serial_in_process_run(self, server_url):
        """The acceptance criterion: one cell submitted over HTTP,
        polled to completion, bit-for-bit equal to the same request
        executed serially in-process."""
        from repro.experiments import ExperimentRunner

        status, created = _post(f"{server_url}/jobs", ONE_CELL)
        assert status == 201
        assert created["planned"] == 1
        assert created["request"]["kernels"] == ["fir"]
        job_id = created["id"]

        final, error, outcomes = _poll_to_completion(server_url, job_id)
        assert final == "done" and error is None
        assert len(outcomes) == 1

        request = SweepRequest.from_payload(ONE_CELL)
        runner = ExperimentRunner.from_request(request, SMALL)
        report = runner.submit(request)
        assert outcomes == json.loads(json.dumps(list(report.outcomes)))

        _, summary = _get(f"{server_url}/jobs/{job_id}")
        assert summary["status"] == "done"
        assert summary["resolved"] == summary["planned"] == 1
        assert summary["counts"]["computed"] == 1
        assert summary["counts"]["failed"] == 0

        _, jobs = _get(f"{server_url}/jobs")
        assert any(j["id"] == job_id for j in jobs["jobs"])

    def test_incremental_poll_is_exhausted_after_done(self, server_url):
        _, created = _post(f"{server_url}/jobs", ONE_CELL)
        _, _, outcomes = _poll_to_completion(server_url, created["id"])
        _, page = _get(
            f"{server_url}/jobs/{created['id']}/outcomes"
            f"?since={len(outcomes)}"
        )
        assert page["outcomes"] == [] and page["next"] == len(outcomes)

    def test_failed_cells_are_outcomes_not_job_errors(self, server_url):
        payload = {**ONE_CELL, "grid": [-400.0]}  # infeasible constraint
        _, created = _post(f"{server_url}/jobs", payload)
        final, error, outcomes = _poll_to_completion(server_url, created["id"])
        assert final == "done" and error is None  # the job itself is fine
        (outcome,) = outcomes
        assert outcome["cell"] is None
        assert "infeasible" in outcome["error"]
        _, summary = _get(f"{server_url}/jobs/{created['id']}")
        assert summary["counts"]["failed"] == 1

    def test_resubmission_is_served_from_the_shared_memo(self, server_url):
        _, first = _post(f"{server_url}/jobs", ONE_CELL)
        _poll_to_completion(server_url, first["id"])
        _, second = _post(f"{server_url}/jobs", ONE_CELL)
        final, _, _ = _poll_to_completion(server_url, second["id"])
        assert final == "done"
        _, summary = _get(f"{server_url}/jobs/{second['id']}")
        assert summary["counts"]["memo"] == 1
        assert summary["counts"]["computed"] == 0
        _, health = _get(f"{server_url}/health")
        assert health["memo_cells"] >= 1


class TestServiceDefaults:
    def test_server_defaults_fill_missing_request_fields(self):
        service = SweepService(
            defaults={"jobs": 3, "backend": "workqueue"}, config=SMALL
        )
        job = service.submit_payload(dict(ONE_CELL))
        assert job.request.jobs == 3
        assert job.request.backend == "workqueue"
        status, _, _ = _wait_job(service, job.id)
        assert status == "done"

    def test_payload_overrides_server_defaults(self):
        service = SweepService(defaults={"jobs": 3}, config=SMALL)
        job = service.submit_payload({**ONE_CELL, "jobs": 1})
        assert job.request.jobs == 1
        status, _, _ = _wait_job(service, job.id)
        assert status == "done"


def _wait_job(service: SweepService, job_id: int, deadline_s: float = 120.0):
    deadline = time.monotonic() + deadline_s
    while True:
        page = service.outcomes_since(job_id)
        if page["status"] in ("done", "error"):
            return page["status"], page["error"], page["outcomes"]
        assert time.monotonic() < deadline, "job did not finish in time"
        time.sleep(0.05)
