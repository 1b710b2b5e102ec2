"""Worker-process side of the flow service.

One job = one worker process.  The daemon spawns :func:`worker_entry` with
the request's wire encoding, the store root, and one end of a pipe; the
worker compiles, writes the result's record into the content-addressed
store *itself* (atomically), and sends back only a small completion
payload — the request digest, the result digest, a summary and the
pipeline journal.  Its spans travel by file, not by pipe: the trace spool
(:class:`~repro.service.traces.TraceSpool`) rewrites them while the flow
runs and once more when it ends, and the daemon reads the spool after
every attempt, however it ended.

Writing the store entry on the worker side makes retries idempotent: if
the daemon kills a hung worker after the store write but before the pipe
message, the retry simply overwrites the entry with an equal record.  The
record (:class:`~repro.service.store.ResultRecord`) is built here, from
the live :class:`~repro.flow.FlowResult`, which never leaves this
process: the daemon and its clients read the record from the store by
digest.

Process isolation is the whole point: a worker that segfaults, is
OOM-killed, or hangs takes down *its process*, not the daemon; the daemon
observes the corpse (exit code, missing payload, or deadline) and retries.

Checkpoint/resume rides on the staged pipeline (:mod:`repro.pipeline`):
the flow inside the worker writes each completed stage's artifact to the
shared ``$REPRO_CACHE_DIR/stages`` store as it goes, so a retry after a
mid-flow kill resumes from the last completed stage — its journal shows
the prefix as ``skipped`` — and reproduces the original result digest.

Telemetry rides in on the reserved ``_telemetry`` key of the wire dict
(reserved precisely because :meth:`FlowRequest.from_dict` ignores it, so
it can never perturb the request digest): the trace context minted by the
client, the attempt number, the spool path its spans travel home by, and
the daemon's event-journal path.  All of it is optional — a bare request
dict compiles exactly as before.
"""

from __future__ import annotations

import os
import traceback
from typing import Any, Dict, Optional

from repro import obs
from repro.designs import build_design
from repro.engine.pool import ensure_pickle_depth
from repro.flow import Flow, FlowResult
from repro.obs.journal import EventJournal, activate_journal
from repro.service.request import FlowRequest
from repro.service.store import ResultStore
from repro.service.traces import TraceSpool

#: Reserved key of the request wire dict carrying telemetry sidecar data.
#: :meth:`FlowRequest.from_dict` does not read it, so its presence (or any
#: change to its contents) cannot alter the request digest — coalescing
#: and store identity stay purely content-addressed.
TELEMETRY_KEY = "_telemetry"


def execute_request(request: FlowRequest) -> FlowResult:
    """Run one request through the exact same code path as the CLI: build
    the design from the registry, build a seeded flow, run the config."""
    flow = Flow(
        clock_mhz=request.clock_mhz,
        seed=request.seed,
        calibration_path=request.calibration_path,
    )
    flow.SMOOTH_PASSES = request.smooth_passes
    design = build_design(request.design, **request.param_dict)
    return flow.run(design, request.config, plan=request.transform_plan())


def worker_entry(request_dict: Dict[str, Any], store_root: str, conn) -> None:
    """Process target: compile ``request_dict``, store the result, report.

    Sends exactly one message on ``conn``:

    * success — ``{"ok": True, "digest", "result_digest", "summary",
      "evicted", "journal", "pid"}``;
    * clean failure (the flow raised) — ``{"ok": False, "error",
      "error_type", "traceback", "pid"}``.

    A crash or kill sends nothing; the daemon reads that silence (plus the
    exit code) as a crash and retries.  Whatever the outcome, the daemon
    rebuilds this attempt's spans from its trace spool: the final write
    after a success, else the last generation the spool thread wrote.
    """
    telemetry = dict(request_dict.pop(TELEMETRY_KEY, None) or {})
    spool: Optional[TraceSpool] = None
    if telemetry.get("journal"):
        activate_journal(
            EventJournal(telemetry["journal"], source="worker")
        )
    try:
        ensure_pickle_depth()
        request = FlowRequest.from_dict(request_dict)
        tracer = obs.Tracer()
        if telemetry.get("spool"):
            spool = TraceSpool(
                tracer,
                telemetry["spool"],
                meta={
                    "trace": telemetry.get("trace") or {},
                    "attempt": telemetry.get("attempt"),
                    "pid": os.getpid(),
                },
            ).start()
        with obs.activate(tracer):
            result = execute_request(request)
        entry = ResultStore(store_root).put(request, result)
        if spool is not None:
            spool.stop(final_write=True)
            spool = None
        conn.send(
            {
                "ok": True,
                "digest": entry.digest,
                "result_digest": entry.result_digest,
                "summary": entry.summary,
                "evicted": entry.evicted,
                "journal": result.journal,
                "pid": os.getpid(),
            }
        )
    except BaseException as exc:  # report *everything* — the pipe is the
        # daemon's only window into this process
        try:
            conn.send(
                {
                    "ok": False,
                    "error": str(exc),
                    "error_type": type(exc).__name__,
                    "traceback": traceback.format_exc(),
                    "pid": os.getpid(),
                }
            )
        except (BrokenPipeError, OSError):  # daemon died first; nothing to do
            pass
    finally:
        if spool is not None:
            spool.stop(final_write=False)
        conn.close()
