"""Minimal stdlib HTTP client for the service API.

Used by ``repro submit``, the tests and CI; speaks
exactly the JSON protocol of :mod:`repro.service.api` over
``urllib`` — no dependencies, no connection pooling, no magic.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from ..common.errors import ReproError


class ServiceClientError(ReproError):
    """The service answered with an error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """One service endpoint, addressed by base URL."""

    def __init__(self, base_url: str, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- raw request ---------------------------------------------------------
    def request(self, method: str, path: str,
                body: Optional[Dict[str, Any]] = None
                ) -> Tuple[int, Dict[str, Any]]:
        data = json.dumps(body).encode() if body is not None else None
        req = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as rsp:
                return rsp.status, json.loads(rsp.read() or b"{}")
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            try:
                payload = json.loads(raw) if raw else {}
            except ValueError:
                payload = {"error": raw.decode(errors="replace")}
            return exc.code, payload

    def request_text(self, path: str) -> Tuple[int, str]:
        req = urllib.request.Request(self.base_url + path)
        with urllib.request.urlopen(req, timeout=self.timeout) as rsp:
            return rsp.status, rsp.read().decode()

    # -- API surface ---------------------------------------------------------
    def healthz(self) -> bool:
        status, _ = self.request("GET", "/healthz")
        return status == 200

    def submit(self, kind: str, spec: Dict[str, Any],
               priority: str = "normal") -> Tuple[int, Dict[str, Any]]:
        """Submit one job; returns ``(http status, body)`` so callers
        can treat 429 as data rather than an exception."""
        return self.request("POST", "/api/v1/jobs",
                            {"kind": kind, "spec": spec,
                             "priority": priority})

    def job(self, job_id: str) -> Dict[str, Any]:
        status, body = self.request("GET", f"/api/v1/jobs/{job_id}")
        if status != 200:
            raise ServiceClientError(status,
                                     body.get("error", "job lookup"))
        return body

    def result(self, job_id: str) -> Dict[str, Any]:
        status, body = self.request("GET",
                                    f"/api/v1/jobs/{job_id}/result")
        if status != 200:
            raise ServiceClientError(status,
                                     body.get("error", "no result"))
        return body

    def stats(self) -> Dict[str, Any]:
        status, body = self.request("GET", "/api/v1/stats")
        if status != 200:
            raise ServiceClientError(status, body.get("error", "stats"))
        return body

    def metrics(self) -> str:
        status, text = self.request_text("/metrics")
        if status != 200:
            raise ServiceClientError(status, "metrics")
        return text

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.05) -> Dict[str, Any]:
        """Poll until the job is terminal; returns the final record."""
        deadline = time.time() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("done", "failed"):
                return record
            if time.time() >= deadline:
                raise ServiceClientError(
                    408, f"job {job_id} still {record['status']} "
                         f"after {timeout:.0f}s")
            time.sleep(poll)
