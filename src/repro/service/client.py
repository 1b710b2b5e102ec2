"""Python client for the flow-compilation daemon.

Stdlib-only (``http.client``), one connection per call — the service's
clients are CLIs, CI scripts and benchmark harnesses, not long-lived
connection pools.

Error mapping mirrors the daemon's backpressure semantics:

* HTTP 429 → :class:`ServiceBusyError` (the CLI exits 3 — "try later");
* any other non-2xx → :class:`ServiceError` carrying the status code;
* connection failures → :class:`ServiceError` with status 0.

Because daemon, workers and clients share one machine (and one
``$REPRO_CACHE_DIR``), :meth:`ServiceClient.load_result` reads the
:class:`~repro.service.store.ResultRecord` of any completed job straight
from the content-addressed store — the HTTP surface only ever carries
JSON.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.obs.context import TraceContext
from repro.service.store import ResultRecord, ResultStore

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8973


class ServiceError(ReproError):
    """A request to the daemon failed; ``status`` holds the HTTP code
    (0 when the daemon was unreachable)."""

    def __init__(
        self,
        message: str,
        status: int = 0,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceBusyError(ServiceError):
    """The daemon applied backpressure (HTTP 429): queue full, retry later."""


class ServiceClient:
    """Talks to one ``repro serve`` daemon.

    Connection-level failures (refused, reset — a daemon restarting) are
    retried ``retries`` extra times with exponential backoff plus jitter
    before surfacing as :class:`ServiceError` with ``status=0``.  Retrying
    ``POST /submit`` is safe because submissions are content-addressed: a
    duplicate delivery coalesces onto the in-flight job or hits the result
    store.  Set ``retries=0`` for fail-fast scripts that would rather see
    a down daemon in one round-trip than wait out the backoff.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: float = 600.0,
        retries: int = 2,
        retry_backoff_s: float = 0.1,
        retry_backoff_cap_s: float = 2.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s

    # -- transport -------------------------------------------------------
    def _transport(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
        retry: bool = True,
    ) -> Tuple[int, bytes]:
        """One HTTP exchange → ``(status, raw body)``, with bounded
        backoff-and-jitter retries on connection-level failures."""
        attempts = self.retries + 1 if retry else 1
        delay = self.retry_backoff_s
        last: Optional[Exception] = None
        for attempt in range(attempts):
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            try:
                conn.request(method, path, body=body, headers=headers or {})
                response = conn.getresponse()
                return response.status, response.read()
            # HTTPException covers the SIGKILL'd-server shapes that are
            # not OSErrors: an empty response (BadStatusLine) or a
            # connection that died mid-body (IncompleteRead).
            except (OSError, http.client.HTTPException) as exc:
                last = exc
            finally:
                conn.close()
            if attempt + 1 < attempts:
                # Full jitter keeps a thundering herd of clients from
                # re-probing a restarting node in lockstep.
                time.sleep(min(delay, self.retry_backoff_cap_s) * (0.5 + random.random()))
                delay *= 2
        raise ServiceError(
            f"cannot reach repro service at {self.host}:{self.port} "
            f"after {attempts} attempt(s): {last}",
            status=0,
        ) from last

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        retry: bool = True,
    ) -> Dict[str, Any]:
        body = json.dumps(payload).encode() if payload is not None else None
        status, raw = self._transport(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json"} if body else {},
            retry=retry,
        )
        try:
            document = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"malformed response from service ({status}): {exc}",
                status=status,
            ) from exc
        if status >= 400:
            error = document.get("error", f"HTTP {status}")
            if not isinstance(error, str):  # e.g. a failed job's structured record
                error = json.dumps(error)
            cls = ServiceBusyError if status == 429 else ServiceError
            raise cls(error, status=status, payload=document)
        return document

    # -- probes ----------------------------------------------------------
    def ping(self) -> bool:
        try:  # fail-fast: wait_ready does its own pacing
            return bool(self._request("GET", "/healthz", retry=False).get("ok"))
        except ServiceError:
            return False

    def wait_ready(self, timeout: float = 15.0, interval: float = 0.1) -> None:
        """Poll ``/healthz`` until the daemon answers (or raise)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.ping():
                return
            time.sleep(interval)
        raise ServiceError(
            f"repro service at {self.host}:{self.port} not ready after {timeout}s"
        )

    # -- API -------------------------------------------------------------
    def submit(
        self,
        design: str,
        config: Any = "orig",
        params: Optional[Dict[str, Any]] = None,
        priority: str = "normal",
        wait: bool = False,
        wait_timeout_s: Optional[float] = None,
        timeout_s: Optional[float] = None,
        clock_mhz: Optional[float] = None,
        seed: int = 2020,
        calibration_path: Optional[str] = None,
        trace: Optional[TraceContext] = None,
        plan: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Submit one compilation; returns the job record.

        The record's ``submitted_as`` field says how this submission was
        admitted (``queued`` / ``coalesced`` / ``store``); with
        ``wait=True`` the call blocks until the job finishes.  A failed
        job under ``wait`` raises :class:`ServiceError` (status 500) with
        the daemon's structured error message.

        Every submission carries a trace context — ``trace`` if given,
        else a freshly minted one — whose ``trace_id`` comes back in the
        job record and names the merged per-request trace
        (:meth:`get_trace`, ``repro trace --request``).
        """
        if trace is None:
            trace = TraceContext.mint()
        payload: Dict[str, Any] = {
            "design": design,
            "config": config,
            "params": params or {},
            "priority": priority,
            "seed": seed,
            "wait": wait,
            "trace": trace.to_dict(),
        }
        if wait_timeout_s is not None:
            payload["wait_timeout_s"] = wait_timeout_s
        if timeout_s is not None:
            payload["timeout_s"] = timeout_s
        if clock_mhz is not None:
            payload["clock_mhz"] = clock_mhz
        if calibration_path is not None:
            payload["calibration_path"] = calibration_path
        if plan:
            # Wire form: list of [name, {params}] (TransformPlan.to_spec,
            # or anything FlowRequest.make(plan=...) accepts).
            payload["plan"] = (
                plan.to_spec() if hasattr(plan, "to_spec") else plan
            )
        return self._request("POST", "/submit", payload)

    def status(self) -> Dict[str, Any]:
        return self._request("GET", "/status")

    def metrics(self) -> str:
        """The raw ``GET /metrics`` exposition text."""
        status, raw = self._transport("GET", "/metrics")
        if status >= 400:
            raise ServiceError(f"GET /metrics failed: HTTP {status}", status=status)
        return raw.decode("utf-8")

    def get_result_bytes(self, digest: str) -> Optional[bytes]:
        """Download the result record bytes for ``digest`` from this daemon
        (``None`` on a miss).  The caller checks them with
        :meth:`ResultRecord.parse` before trusting them."""
        status, raw = self._transport("GET", f"/result/{digest}", retry=False)
        if status == 404:
            return None
        if status >= 400:
            raise ServiceError(
                f"GET /result/{digest} failed: HTTP {status}", status=status
            )
        return raw

    def get_trace(self, digest: str) -> Dict[str, Any]:
        """The merged per-request trace document for ``digest``."""
        return self._request("GET", f"/trace/{digest}")

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def wait_job(
        self, job_id: str, timeout: float = 600.0, interval: float = 0.1
    ) -> Dict[str, Any]:
        """Poll ``/jobs/<id>`` until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record.get("state") in ("done", "failed", "aborted"):
                return record
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record.get('state')!r} after {timeout}s"
                )
            time.sleep(interval)

    def load_result(
        self, digest: str, store: Optional[ResultStore] = None
    ) -> Optional[ResultRecord]:
        """The job's result record, read from the shared local store."""
        return (store if store is not None else ResultStore()).load_result(digest)

    def shutdown(self) -> None:
        try:
            self._request("POST", "/shutdown")
        except ServiceError as exc:
            if exc.status != 0:  # unreachable == already down
                raise
