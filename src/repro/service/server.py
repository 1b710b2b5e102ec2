"""Zero-dependency HTTP/1.1 front end for the flow service.

A deliberately small server over ``asyncio`` streams — no web framework,
matching the repository's no-runtime-deps rule.  JSON in, JSON out,
``Connection: close`` per request (clients are the CLI and short-lived
scripts; connection reuse buys nothing here).

Routes:

* ``GET  /healthz``      — liveness probe;
* ``GET  /result/<digest>`` — the stored result record (canonical JSON
  bytes), the data-only answer a client checks and parses itself;
* ``GET  /status``       — the daemon snapshot (queue, metrics, store);
* ``GET  /metrics``      — Prometheus-style text exposition of this
  daemon's metrics registry (queue depth per lane, coalesce/hit
  counters, compile-latency summaries, worker restarts);
* ``GET  /trace/<digest>`` — the merged per-request trace document
  (daemon span + every worker attempt, partial spans included);
* ``GET  /jobs/<id>``    — one job record (404 for unknown ids);
* ``POST /submit``       — admit a request.  Body fields: ``design``
  (required), ``config`` (label or canonical dict), ``params``,
  ``priority``, ``seed``, ``clock_mhz``, ``calibration_path``,
  ``timeout_s``, ``wait`` (block until the job finishes),
  ``wait_timeout_s``, ``trace`` (a client-minted trace context, see
  :mod:`repro.obs.context`).  Statuses: 200 job finished / served from
  store, 202 accepted (non-wait), 400 bad request, 404 unknown design,
  429 queue full (backpressure), 500 job failed under ``wait``;
* ``POST /shutdown``     — graceful stop.

:func:`serve_in_thread` runs a whole service + server on a private event
loop in a daemon thread — the embedding used by tests, benchmarks and
``examples/service_demo.py``.
"""

from __future__ import annotations

import asyncio
import json
import threading
from contextlib import contextmanager
from typing import Any, Dict, Optional, Tuple, Union

from repro.designs import design_names
from repro.errors import ReproError
from repro.obs.context import TraceContext
from repro.obs.exposition import (
    CONTENT_TYPE as EXPOSITION_CONTENT_TYPE,
    Family,
    Sample,
    render_exposition,
)
from repro.service.daemon import FlowService, QueueFullError, UnknownJobError
from repro.service.request import FlowRequest

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class ServiceServer:
    """Binds a :class:`FlowService` to a TCP port."""

    def __init__(
        self,
        service: Optional[FlowService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or FlowService()
        self.host = host
        self.port = port  # 0 = ephemeral; real port is filled in by start()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.service._emit("http.listen", host=self.host, port=self.port)

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        """``start`` → run until ``/shutdown`` (or cancellation) → ``stop``."""
        await self.start()
        try:
            await self.wait_shutdown()
        finally:
            await self.stop()

    # -- HTTP plumbing ---------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, payload = await self._handle_one(reader)
        except Exception as exc:  # a handler bug must not kill the daemon
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, bytes):  # pre-encoded JSON (/result/<digest>)
            body = payload
            content_type = "application/json"
        elif isinstance(payload, str):  # text routes (/metrics)
            body = payload.encode()
            content_type = EXPOSITION_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode()
            content_type = "application/json"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client hung up; its problem
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Union[Dict[str, Any], str, bytes]]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        raw = await reader.readexactly(length) if length else b""
        if raw:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"bad JSON body: {exc}"}
        else:
            body = {}
        return await self._route(method, path, body)

    # -- routing ---------------------------------------------------------
    async def _route(
        self, method: str, path: str, body: Dict[str, Any]
    ) -> Tuple[int, Union[Dict[str, Any], str, bytes]]:
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "schema": "repro-service/1"}
        if method == "GET" and path.startswith("/result/"):
            digest = path[len("/result/"):]
            payload = self.service.store.get_bytes(digest)
            if payload is None:
                return 404, {"error": f"no stored result for digest {digest!r}"}
            return 200, payload
        if method == "GET" and path == "/status":
            return 200, self.service.snapshot()
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_text()
        if method == "GET" and path.startswith("/trace/"):
            document = self.service.traces.get(path[len("/trace/"):])
            if document is None:
                return 404, {"error": f"no trace for digest {path[len('/trace/'):]!r}"}
            return 200, document
        if method == "GET" and path.startswith("/jobs/"):
            try:
                return 200, self.service.job(path[len("/jobs/"):]).record()
            except UnknownJobError as exc:
                return 404, {"error": str(exc)}
        if method == "POST" and path == "/submit":
            return await self._submit(body)
        if method == "POST" and path == "/shutdown":
            self.request_shutdown()
            return 200, {"ok": True}
        return (405 if path in ("/submit", "/shutdown", "/status") else 404), {
            "error": f"no route {method} {path}"
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` exposition document: this daemon's registry,
        live labeled lane depths and the daemon uptime."""
        lane_family = Family(
            name="repro_service_lane_queue_depth",
            kind="gauge",
            help="Queued jobs per priority lane",
        )
        for lane, depth in self.service.lane_depths().items():
            lane_family.samples.append(
                Sample(
                    "repro_service_lane_queue_depth",
                    depth,
                    labels=(("lane", lane),),
                )
            )
        uptime = Family(
            name="repro_service_uptime_s",
            kind="gauge",
            samples=[Sample("repro_service_uptime_s", self.service.uptime_s())],
        )
        return render_exposition(
            self.service.registry,
            extra_families=[lane_family, uptime],
        )

    async def _submit(self, body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        design = body.get("design")
        if not design or design not in design_names(include_extra=True):
            return 404, {
                "error": f"unknown design {design!r}; valid designs: "
                f"{', '.join(design_names(include_extra=True))}"
            }
        try:
            request = FlowRequest.make(
                design,
                config=body.get("config", "orig"),
                clock_mhz=body.get("clock_mhz"),
                seed=body.get("seed", 2020),
                smooth_passes=body.get("smooth_passes", 1),
                calibration_path=body.get("calibration_path"),
                plan=body.get("plan"),
                **dict(body.get("params") or {}),
            )
        except (ReproError, TypeError, ValueError) as exc:
            return 400, {"error": str(exc)}
        try:
            job, how = self.service.submit(
                request,
                priority=body.get("priority", "normal"),
                timeout_s=body.get("timeout_s"),
                trace=TraceContext.from_dict(body.get("trace")),
            )
        except QueueFullError as exc:
            return 429, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": str(exc)}

        if body.get("wait"):
            try:
                await self.service.wait(job, timeout=body.get("wait_timeout_s"))
            except asyncio.TimeoutError:
                record = job.record()
                record["submitted_as"] = how
                return 202, record
        record = job.record()
        record["submitted_as"] = how
        if job.state == "failed":
            return 500, record
        if job.finished:
            return 200, record
        return 202, record


@contextmanager
def serve_in_thread(
    service: Optional[FlowService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    **service_kwargs: Any,
):
    """Run a live service on a private event loop in a daemon thread.

    Yields the started :class:`ServiceServer` (``server.port`` holds the
    bound port, ``server.service`` the daemon).  On exit the service is
    shut down and the thread joined — worker processes included.
    """
    svc = service or FlowService(**service_kwargs)
    server = ServiceServer(svc, host=host, port=port)
    started = threading.Event()
    failure: Dict[str, BaseException] = {}
    loop = asyncio.new_event_loop()

    async def _main() -> None:
        try:
            await server.start()
        except BaseException as exc:  # surface bind errors to the caller
            failure["exc"] = exc
            started.set()
            raise
        started.set()
        try:
            await server.wait_shutdown()
        finally:
            await server.stop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        except BaseException:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    if not started.wait(timeout=15):
        raise ReproError("flow service failed to start within 15s")
    if "exc" in failure:
        thread.join(timeout=5)
        raise ReproError(f"flow service failed to start: {failure['exc']}")
    try:
        yield server
    finally:
        try:
            loop.call_soon_threadsafe(server.request_shutdown)
        except RuntimeError:
            pass  # loop already closed (e.g. a client POSTed /shutdown)
        thread.join(timeout=15)
