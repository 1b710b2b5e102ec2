"""repro.service — the flow-compilation service.

Turns the one-shot :class:`~repro.flow.Flow` + :class:`~repro.engine.Engine`
pipeline into a long-lived daemon that serves repeated flow-compilation
requests the way production HLS evaluation farms do:

* :mod:`repro.service.request` — :class:`FlowRequest`, the canonical
  description of one compilation (design, params, config, clock, seed,
  calibration provenance) with a deterministic content digest;
* :mod:`repro.service.store` — :class:`ResultStore`, a content-addressed
  on-disk cache of finished compilations under
  ``$REPRO_CACHE_DIR/results/``, one validated canonical-JSON
  :class:`ResultRecord` each (atomic writes, LRU eviction), so repeat
  requests return without recompiling;
* :mod:`repro.service.daemon` — :class:`FlowService`, the asyncio job
  queue: request deduplication/coalescing, bounded queue with
  backpressure, priority lanes, per-job timeout, and fault-tolerant worker
  processes (crash/hang detection, exponential-backoff retries, poison-job
  quarantine);
* :mod:`repro.service.server` — a zero-dependency HTTP/1.1 front end over
  asyncio streams (``repro serve``), plus :func:`serve_in_thread` for
  embedding a live service in tests, benchmarks, and examples;
* :mod:`repro.service.client` — :class:`ServiceClient` (stdlib
  ``http.client``) and the errors the CLI maps to exit codes.

Quick tour::

    from repro.service import FlowRequest, FlowService, serve_in_thread
    from repro.service.client import ServiceClient

    with serve_in_thread(workers=2) as server:
        client = ServiceClient(port=server.port)
        record = client.submit("matmul", config="orig", wait=True)
        again = client.submit("matmul", config="orig", wait=True)
        assert again["served_from"] == "store"   # no recompilation
"""

from repro.service.client import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    ServiceBusyError,
    ServiceClient,
    ServiceError,
)
from repro.service.daemon import FlowService, Job, QueueFullError, UnknownJobError
from repro.service.request import FlowRequest, config_from_spec, config_to_dict
from repro.service.server import ServiceServer, serve_in_thread
from repro.service.store import ResultRecord, ResultStore, StoredResult
from repro.service.traces import TRACE_SCHEMA, TraceStore, rebuild_trace
from repro.service.worker import TELEMETRY_KEY, execute_request, worker_entry

__all__ = [
    "FlowRequest",
    "config_from_spec",
    "config_to_dict",
    "ResultRecord",
    "ResultStore",
    "StoredResult",
    "FlowService",
    "Job",
    "QueueFullError",
    "UnknownJobError",
    "ServiceServer",
    "serve_in_thread",
    "ServiceClient",
    "ServiceError",
    "ServiceBusyError",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "execute_request",
    "worker_entry",
    "TELEMETRY_KEY",
    "TRACE_SCHEMA",
    "TraceStore",
    "rebuild_trace",
]
