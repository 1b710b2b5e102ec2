"""The flow-compilation daemon: an asyncio job queue over worker processes.

:class:`FlowService` is the long-lived heart of ``repro serve``.  It takes
:class:`~repro.service.request.FlowRequest` submissions and guarantees:

* **Request coalescing** — N concurrent submissions of the same request
  digest share one compile; later arrivals attach to the in-flight job
  (counter ``service.coalesced``).
* **Result reuse** — a request whose digest is already in the
  content-addressed :class:`~repro.service.store.ResultStore` completes
  instantly without compiling (counter ``service.result_hits``).
* **Backpressure** — the queue is bounded; a submission beyond the bound
  raises :class:`QueueFullError`, which the HTTP front end maps to 429 and
  the CLI to exit code 3.  Nothing queues unboundedly.
* **Priority lanes** — ``high`` / ``normal`` / ``low`` deques; the
  dispatcher always drains the highest non-empty lane first.
* **Fault tolerance** — every job runs in its own worker process.  A
  worker that crashes (nonzero exit, SIGKILL, silence on the pipe) is
  retried with exponential backoff up to ``max_attempts``; a worker that
  hangs past the per-job timeout is killed and retried the same way.  A
  job whose flow raises *cleanly* is deterministic poison — it is not
  retried but quarantined immediately with a structured error record
  under ``$REPRO_CACHE_DIR/quarantine/``, as is a job that exhausts its
  retries.

Observability: one sink per kind of telemetry.  Each job carries its own
``service.job`` span (queue wait, attempts, outcome), served in the job
record and in the request's trace document next to the worker spans that
every attempt leaves in its trace spool.  Counters, gauges and histograms
go to the service's own :class:`~repro.obs.metrics.MetricsRegistry`
(``registry``), which ``/status``, :meth:`FlowService.counter` and
``/metrics`` all read.  Gauges/counters:
``service.queue_depth``, ``service.submitted``, ``service.compiles``,
``service.result_hits``, ``service.coalesced``, ``service.retries``,
``service.crashes``, ``service.timeouts``, ``service.quarantined``,
``service.rejected``, plus ``service.stages_skipped`` /
``service.stages_run`` aggregated from each compiled job's pipeline
journal — after a crash-retry, ``stages_skipped`` counts the checkpointed
prefix the retry resumed from (see :mod:`repro.pipeline`).

Memory: the daemon keeps at most :data:`JOB_RETENTION` finished jobs;
beyond it the oldest finished ones are forgotten (``/jobs/<id>`` then
answers 404 for them), and unfinished jobs are never dropped.

Threading contract: all public methods must be called on the event loop
that ran :meth:`FlowService.start` (the HTTP server does; tests drive it
inside ``asyncio.run``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro import obs
from repro.cachedir import atomic_write
from repro.delay.cache import default_cache_dir
from repro.designs import design_names
from repro.errors import ReproError
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.journal import EventJournal
from repro.service.request import FlowRequest
from repro.service.store import ResultStore
from repro.service.traces import (
    TRACE_SCHEMA,
    TraceStore,
    discard_spool,
    read_spool,
)
from repro.service.worker import TELEMETRY_KEY, worker_entry

#: Dispatch order of the priority lanes.
PRIORITIES = ("high", "normal", "low")

#: Version tag of quarantine records.
QUARANTINE_SCHEMA = "repro-quarantine/1"

#: Finished jobs the daemon keeps for ``/jobs/<id>`` and ``/status``; past
#: it, the oldest finished jobs are dropped (unfinished ones never are).
#: At least the 50 jobs ``/status`` lists.
JOB_RETENTION = 256

#: Poll interval of the worker-process supervisor (s).
SUPERVISE_TICK_S = 0.02


class QueueFullError(ReproError):
    """The bounded queue rejected a submission (HTTP 429, CLI exit 3)."""


class UnknownJobError(ReproError):
    """A status query named a job id the daemon has never seen."""


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:  # fast + inherits warm calibration memo
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class Job:
    """One queued/running/finished compilation inside the daemon."""

    id: str
    request: FlowRequest
    digest: str
    priority: str = "normal"
    state: str = "queued"  # queued|running|retrying|done|failed|aborted
    served_from: Optional[str] = None  # compile|store|None
    attempts: int = 0
    coalesced: int = 0
    worker_pid: Optional[int] = None
    timeout_s: Optional[float] = None
    result_digest: Optional[str] = None
    #: Trace identity: the request-wide trace id (client-minted or minted
    #: here) and the daemon span's own id — the parent of worker spans.
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    #: Span snapshots of every worker attempt, read from its trace spool
    #: (tagged ``partial`` when the attempt did not return ok).
    worker_spans: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-stage pipeline journal from the winning attempt; after a
    #: crash-retry it shows the resumed prefix as ``skipped`` entries.
    journal: Optional[List[Dict[str, Any]]] = None
    summary: Dict[str, Any] = field(default_factory=dict)
    error: Optional[Dict[str, Any]] = None
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: Monotonic twins of the wall-clock stamps above.  The wall clock is
    #: what humans and the job record see; durations (queue wait, compile
    #: latency) are computed from these, so an NTP step or DST jump while
    #: a job is in flight cannot produce negative or wildly wrong numbers.
    created_mono: float = field(default_factory=time.perf_counter)
    started_mono: Optional[float] = None
    finished_mono: Optional[float] = None
    done: asyncio.Event = field(default_factory=asyncio.Event)
    span: Optional[obs.Span] = None

    @property
    def finished(self) -> bool:
        return self.state in ("done", "failed", "aborted")

    def record(self) -> Dict[str, Any]:
        """JSON-safe view served by ``/jobs/<id>`` and ``repro status``."""
        return {
            "id": self.id,
            "design": self.request.design,
            "config": self.request.config.label,
            "params": {str(k): v for k, v in self.request.params},
            "seed": self.request.seed,
            "digest": self.digest,
            "priority": self.priority,
            "state": self.state,
            "served_from": self.served_from,
            "attempts": self.attempts,
            "coalesced": self.coalesced,
            "worker_pid": self.worker_pid,
            "result_digest": self.result_digest,
            "trace_id": self.trace_id,
            "journal": self.journal,
            "summary": dict(self.summary),
            "error": self.error,
            "created_s": self.created_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
        }


class FlowService:
    """The request-coalescing, fault-tolerant flow-compilation queue.

    Args:
        store: Result store (defaults to ``$REPRO_CACHE_DIR/results``).
        workers: Concurrent worker processes (dispatcher tasks).
        queue_limit: Max *queued* (not yet running) jobs before
            submissions are rejected with :class:`QueueFullError`.
        max_attempts: Attempt cap per job; crashes/timeouts retry until it.
        backoff_s / backoff_cap_s: Exponential retry backoff
            (``backoff_s * 2**(attempt-1)``, capped).
        job_timeout_s: Default per-job wall-clock budget; a worker alive
            past it is killed and the attempt counted as a timeout.
        quarantine_dir: Where poison-job records land.
        entry: Worker process target — overridable so tests can wrap
            :func:`~repro.service.worker.worker_entry` with fault hooks.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 2,
        queue_limit: int = 32,
        max_attempts: int = 3,
        backoff_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        job_timeout_s: float = 600.0,
        quarantine_dir: Optional[str] = None,
        entry: Optional[Callable] = None,
        journal: Optional[EventJournal] = None,
        trace_store: Optional[TraceStore] = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if queue_limit < 0:
            raise ReproError(f"queue_limit must be >= 0, got {queue_limit}")
        if max_attempts < 1:
            raise ReproError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store = store if store is not None else ResultStore()
        self.workers = workers
        self.queue_limit = queue_limit
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.job_timeout_s = job_timeout_s
        self.quarantine_dir = quarantine_dir or os.path.join(
            default_cache_dir(), "quarantine"
        )
        #: This daemon's counters, gauges and histograms — the one metrics
        #: sink that ``/status``, :meth:`counter` and ``GET /metrics`` read.
        self.registry = obs.MetricsRegistry()
        self.journal = journal or EventJournal(
            os.path.join(default_cache_dir(), "journal", "events.jsonl"),
            source="daemon",
        )
        self.traces = trace_store or TraceStore()
        self.created_s = time.time()
        self._created_mono = time.perf_counter()
        self._entry = entry or worker_entry
        self._lanes: Dict[str, Deque[Job]] = {p: deque() for p in PRIORITIES}
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._procs: Dict[str, Any] = {}
        self._ids = itertools.count(1)
        self._work_available = asyncio.Event()
        self._tasks: List[asyncio.Task] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    # -- telemetry sinks -------------------------------------------------
    def _emit(self, event: str, **fields: Any) -> None:
        """Journal one event; telemetry never fails the service."""
        try:
            self.journal.emit(event, **fields)
        except OSError:
            pass

    def _count(self, name: str, amount: float = 1) -> None:
        self.registry.add(name, amount)

    def _gauge(self, name: str, value: float) -> None:
        self.registry.set_gauge(name, value)

    def _observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    def _now(self) -> float:
        """Seconds since the daemon started: the clock of job spans."""
        return time.perf_counter() - self._created_mono

    async def start(self) -> None:
        """Spawn the dispatcher tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        self._emit(
            "service.start",
            workers=self.workers,
            queue_limit=self.queue_limit,
            max_attempts=self.max_attempts,
            job_timeout_s=self.job_timeout_s,
            store=self.store.root,
            quarantine_dir=self.quarantine_dir,
            journal=str(self.journal.path),
            traces=self.traces.root,
        )
        self._tasks = [
            asyncio.create_task(self._worker_loop(), name=f"repro-service-w{i}")
            for i in range(self.workers)
        ]

    async def stop(self) -> None:
        """Cancel dispatchers, kill live worker processes, release waiters."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        self._started = False
        for proc in list(self._procs.values()):
            try:
                proc.kill()
            except Exception:
                pass
        self._procs.clear()
        for job in self._jobs.values():
            if not job.finished:
                job.state = "aborted"
                self._finish_span(job)
                job.done.set()
        self._inflight.clear()
        for lane in self._lanes.values():
            lane.clear()
        self._set_queue_gauge()
        self._emit("service.stop", uptime_s=self.uptime_s())

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        request: FlowRequest,
        priority: str = "normal",
        timeout_s: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> Tuple[Job, str]:
        """Admit one request; returns ``(job, how)`` with ``how`` one of
        ``"store"`` (instant result-store hit), ``"coalesced"`` (attached
        to an identical in-flight job) or ``"queued"``.

        Raises :class:`QueueFullError` when the bounded queue is full and
        :class:`ReproError` for an unknown design or priority.
        """
        if priority not in PRIORITIES:
            raise ReproError(
                f"unknown priority {priority!r}; valid: {', '.join(PRIORITIES)}"
            )
        if request.design not in design_names(include_extra=True):
            raise ReproError(
                f"unknown design {request.design!r}; valid designs: "
                f"{', '.join(design_names(include_extra=True))}"
            )
        digest = request.digest()

        existing = self._inflight.get(digest)
        if existing is not None:
            existing.coalesced += 1
            if trace is not None and existing.span is not None:
                # Later arrivals keep their own trace ids; record them so
                # the merged trace names every client that shared this job.
                existing.span.attrs.setdefault("coalesced_trace_ids", []).append(
                    trace.trace_id
                )
            self._count("service.coalesced")
            self._emit(
                "job.coalesced",
                job_id=existing.id,
                digest=digest,
                design=request.design,
                trace_id=trace.trace_id if trace else None,
            )
            return existing, "coalesced"

        stored = self.store.get(digest)
        if stored is not None:
            job = self._new_job(request, digest, priority, trace)
            job.state = "done"
            job.served_from = "store"
            job.result_digest = stored.result_digest
            job.summary = dict(stored.summary)
            job.started_s = job.finished_s = time.time()
            job.started_mono = job.finished_mono = time.perf_counter()
            # No trace document: the hit's span is in its job record, and
            # the digest's document stays the compile that made the result.
            self._finish_span(job)
            job.done.set()
            self._count("service.result_hits")
            self._emit(
                "job.store_hit",
                job_id=job.id,
                digest=digest,
                design=request.design,
                trace_id=job.trace_id,
            )
            return job, "store"

        if self._queued_count() >= self.queue_limit:
            self._count("service.rejected")
            self._emit("job.rejected", digest=digest, design=request.design)
            raise QueueFullError(
                f"queue is full ({self._queued_count()}/{self.queue_limit} "
                f"queued); retry later"
            )

        job = self._new_job(request, digest, priority, trace)
        job.timeout_s = timeout_s
        self._inflight[digest] = job
        self._lanes[priority].append(job)
        self._count("service.submitted")
        self._emit(
            "job.accepted",
            job_id=job.id,
            digest=digest,
            design=request.design,
            config=request.config.label,
            priority=priority,
            trace_id=job.trace_id,
        )
        self._set_queue_gauge()
        self._work_available.set()
        return job, "queued"

    async def wait(self, job: Job, timeout: Optional[float] = None) -> Job:
        """Block until ``job`` finishes (or ``asyncio.TimeoutError``)."""
        if timeout is None:
            await job.done.wait()
        else:
            await asyncio.wait_for(job.done.wait(), timeout)
        return job

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id!r}") from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self, jobs_limit: int = 50) -> Dict[str, Any]:
        """The ``/status`` document: queue, metrics, store, recent jobs."""
        recent = list(self._jobs.values())[-jobs_limit:]
        return {
            "schema": "repro-service-status/1",
            "queue": {
                "depth": self._queued_count(),
                "limit": self.queue_limit,
                "by_priority": {p: len(self._lanes[p]) for p in PRIORITIES},
            },
            "workers": self.workers,
            "inflight": len(self._inflight),
            "uptime_s": self.uptime_s(),
            "jobs": [job.record() for job in recent],
            "metrics": self.registry.to_dict(),
            "store": {"root": self.store.root, "entries": len(self.store)},
            "quarantine_dir": self.quarantine_dir,
            "journal": str(self.journal.path),
            "traces": self.traces.root,
        }

    def counter(self, name: str) -> float:
        """Convenience for tests/CI: one of this daemon's counters."""
        return self.registry.counter(name)

    def lane_depths(self) -> Dict[str, int]:
        """Queued jobs per priority lane (the ``/metrics`` label source)."""
        return {p: len(self._lanes[p]) for p in PRIORITIES}

    def uptime_s(self) -> float:
        # Monotonic: a wall-clock adjustment must not shrink (or inflate)
        # the reported uptime.  ``created_s`` stays wall-clock for display.
        return round(time.perf_counter() - self._created_mono, 3)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _new_job(
        self,
        request: FlowRequest,
        digest: str,
        priority: str,
        trace: Optional[TraceContext] = None,
    ) -> Job:
        job = Job(
            id=f"job-{next(self._ids):04d}",
            request=request,
            digest=digest,
            priority=priority,
        )
        # Adopt the client-minted trace id or mint one — either way every
        # job belongs to exactly one trace, with the daemon span as the
        # parent of whatever the worker attempts produce.
        job.trace_id = trace.trace_id if trace is not None else new_trace_id()
        job.span_id = new_span_id()
        job.span = obs.Span(
            name="service.job",
            attrs={
                "job_id": job.id,
                "design": request.design,
                "config": request.config.label,
                "digest": digest,
                "priority": priority,
                "trace_id": job.trace_id,
                "span_id": job.span_id,
            },
            start_s=self._now(),
        )
        if trace is not None and trace.parent_span_id:
            job.span.attrs["parent_span_id"] = trace.parent_span_id
        self._jobs[job.id] = job
        self._drop_old_jobs()
        return job

    def _drop_old_jobs(self) -> None:
        """Forget the oldest finished jobs beyond :data:`JOB_RETENTION`."""
        excess = len(self._jobs) - JOB_RETENTION
        if excess <= 0:
            return
        old = []
        for job in self._jobs.values():  # oldest first
            if len(old) == excess:
                break
            if job.finished:
                old.append(job.id)
        for job_id in old:
            del self._jobs[job_id]

    def _queued_count(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def _set_queue_gauge(self) -> None:
        self._gauge("service.queue_depth", self._queued_count())
        self._gauge("service.inflight", len(self._inflight))
        for priority in PRIORITIES:
            self._gauge(
                f"service.lane_depth.{priority}", len(self._lanes[priority])
            )

    def _pop_job(self) -> Optional[Job]:
        for priority in PRIORITIES:
            lane = self._lanes[priority]
            if lane:
                job = lane.popleft()
                self._set_queue_gauge()
                return job
        return None

    async def _worker_loop(self) -> None:
        while True:
            job = self._pop_job()
            if job is None:
                self._work_available.clear()
                await self._work_available.wait()
                continue
            await self._run_job(job)

    async def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started_s = time.time()
        job.started_mono = time.perf_counter()
        queue_wait_s = round(job.started_mono - job.created_mono, 4)
        if job.span is not None:
            job.span.set("queue_wait_s", queue_wait_s)
        self._observe("service.queue_wait_s", queue_wait_s)
        self._emit(
            "job.started",
            job_id=job.id,
            digest=job.digest,
            design=job.request.design,
            trace_id=job.trace_id,
            queue_wait_s=queue_wait_s,
        )
        attempt = 0
        while True:
            attempt += 1
            job.attempts = attempt
            kind, payload, exitcode = await self._run_attempt(job)

            if kind == "ok":
                job.served_from = "compile"
                job.result_digest = payload.get("result_digest")
                job.summary = dict(payload.get("summary") or {})
                job.journal = payload.get("journal")
                for entry in job.journal or ():
                    if entry.get("action") == "skipped":
                        self._count("service.stages_skipped")
                    else:
                        self._count("service.stages_run")
                self._count("service.compiles")
                self._observe(
                    "service.compile_latency_s",
                    round(
                        time.perf_counter()
                        - (job.started_mono or job.created_mono),
                        4,
                    ),
                )
                if payload.get("evicted"):
                    self._count("service.store_evictions", payload["evicted"])
                self._finish(job, "done")
                return

            if kind == "error":
                # The flow raised cleanly: deterministic poison.  Retrying
                # would reproduce the same exception, so quarantine now.
                job.error = {
                    "error_type": payload.get("error_type", "Exception"),
                    "error": payload.get("error", ""),
                    "traceback": payload.get("traceback", ""),
                }
                self._quarantine(job, reason="error")
                self._finish(job, "failed")
                return

            # Crash (silent death / signal) or timeout (killed by us).
            self._count(
                "service.timeouts" if kind == "timeout" else "service.crashes"
            )
            job.error = {
                "error_type": "WorkerTimeout" if kind == "timeout" else "WorkerCrash",
                "error": (
                    f"worker attempt {attempt} "
                    + ("exceeded its deadline" if kind == "timeout" else "died")
                    + f" (exitcode={exitcode})"
                ),
            }
            if attempt >= self.max_attempts:
                self._quarantine(job, reason=kind)
                self._finish(job, "failed")
                return
            self._count("service.retries")
            delay = min(self.backoff_cap_s, self.backoff_s * (2 ** (attempt - 1)))
            self._emit(
                "job.retried",
                job_id=job.id,
                attempt=attempt,
                kind=kind,
                exitcode=exitcode,
                backoff_s=delay,
                trace_id=job.trace_id,
            )
            job.state = "retrying"
            await asyncio.sleep(delay)
            job.state = "running"

    async def _run_attempt(
        self, job: Job
    ) -> Tuple[str, Dict[str, Any], Optional[int]]:
        """One worker process: returns ``(kind, payload, exitcode)`` with
        ``kind`` in ``ok | error | crash | timeout``."""
        ctx = _mp_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        wire = job.request.to_dict()
        spool = os.path.join(
            self.traces.root, "spool", f"{job.id}-a{job.attempts}.json"
        )
        wire[TELEMETRY_KEY] = {
            "trace": {
                "trace_id": job.trace_id,
                "parent_span_id": job.span_id,
            },
            "attempt": job.attempts,
            "spool": spool,
            "journal": str(self.journal.path),
        }
        proc = ctx.Process(
            target=self._entry,
            args=(wire, self.store.root, child_conn),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        spawned_s = self._now()
        job.worker_pid = proc.pid
        self._procs[job.id] = proc
        self._emit(
            "worker.spawned",
            job_id=job.id,
            worker_pid=proc.pid,
            attempt=job.attempts,
            trace_id=job.trace_id,
        )
        loop = asyncio.get_running_loop()
        deadline = loop.time() + (job.timeout_s or self.job_timeout_s)
        payload: Optional[Dict[str, Any]] = None
        timed_out = False
        try:
            while True:
                if parent_conn.poll():
                    try:
                        payload = parent_conn.recv()
                    except Exception:
                        payload = None  # half-written message from a corpse
                    break
                if not proc.is_alive():
                    break
                if loop.time() >= deadline:
                    timed_out = True
                    proc.kill()
                    break
                await asyncio.sleep(SUPERVISE_TICK_S)
            await loop.run_in_executor(None, proc.join, 5)
            exitcode = proc.exitcode
        finally:
            self._procs.pop(job.id, None)
            parent_conn.close()
        if payload is not None and payload.get("ok"):
            kind = "ok"
        elif payload is not None:
            kind = "error"
        else:
            kind = "timeout" if timed_out else "crash"
        self._emit(
            "worker.exit",
            job_id=job.id,
            worker_pid=proc.pid,
            attempt=job.attempts,
            exitcode=exitcode,
            outcome=kind,
            trace_id=job.trace_id,
        )
        self._read_spool(job, spool, kind, proc.pid, spawned_s)
        return kind, payload if payload is not None else {}, exitcode

    def _read_spool(
        self, job: Job, spool: str, outcome: str, pid: int, spawned_s: float
    ) -> None:
        """Bring one attempt's spans home from its spool: the worker's final
        write after a success, or the last generation the spool thread
        managed before a crash, kill or clean failure (``partial``).

        An attempt that did not succeed and left no spans (killed before
        the spool's first write) gets one ``partial`` stub span carrying
        its attempt, pid and outcome, so every attempt shows in the merged
        trace."""
        partial = outcome != "ok"
        document = read_spool(spool) or {}
        discard_spool(spool)
        spans = [s for s in document.get("spans") or () if s]
        if partial and not spans:
            stub = obs.Span(
                name="service.attempt",
                attrs={"outcome": outcome, "pid": pid},
                start_s=spawned_s,
                end_s=self._now(),
            )
            spans = [obs.snapshot_span(stub)]
        meta = document.get("meta") or {}
        for snapshot in spans:
            span = obs.rebuild_span(snapshot)
            if span is None:
                continue
            if partial:
                span.set("partial", True)
            span.set("attempt", meta.get("attempt") or job.attempts)
            if job.trace_id:
                span.set("trace_id", job.trace_id)
            if job.span_id:
                span.set("parent_span_id", job.span_id)
            if meta.get("pid"):
                span.set("pid", meta["pid"])
            job.worker_spans.append(obs.snapshot_span(span))

    def _finish(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_s = time.time()
        job.finished_mono = time.perf_counter()
        if self._inflight.get(job.digest) is job:
            del self._inflight[job.digest]
        self._set_queue_gauge()
        self._finish_span(job)
        self._store_trace(job)
        self._emit(
            "job.completed",
            job_id=job.id,
            digest=job.digest,
            state=state,
            served_from=job.served_from,
            attempts=job.attempts,
            trace_id=job.trace_id,
            duration_s=round(
                job.finished_mono - (job.started_mono or job.created_mono), 4
            ),
        )
        job.done.set()

    def _store_trace(self, job: Job) -> None:
        """Write the merged per-request trace document of a job that ran in
        workers: the daemon's job span plus every attempt's spooled spans.
        Keyed by request digest — what ``repro trace --request`` and
        ``GET /trace/<digest>`` read."""
        self.traces.put(
            job.digest,
            {
                "schema": TRACE_SCHEMA,
                "trace_id": job.trace_id,
                "digest": job.digest,
                "job_id": job.id,
                "state": job.state,
                "served_from": job.served_from,
                "attempts": job.attempts,
                "daemon_span": obs.snapshot_span(job.span) if job.span else {},
                "worker_spans": list(job.worker_spans),
            },
        )

    def _finish_span(self, job: Job) -> None:
        if job.span is None or job.span.end_s is not None:
            return
        job.span.end_s = self._now()
        job.span.set("state", job.state)
        job.span.set("attempts", job.attempts)
        job.span.set("coalesced", job.coalesced)
        if job.served_from:
            job.span.set("served_from", job.served_from)
        if job.result_digest:
            job.span.set("result_digest", job.result_digest)

    def _quarantine(self, job: Job, reason: str) -> None:
        """Write the structured poison-job record (atomic, like the store)."""
        record = {
            "schema": QUARANTINE_SCHEMA,
            "job_id": job.id,
            "digest": job.digest,
            "request": job.request.to_dict(),
            "reason": reason,  # error | crash | timeout
            "attempts": job.attempts,
            "error": job.error,
            "quarantined_s": time.time(),
        }
        try:
            os.makedirs(self.quarantine_dir, exist_ok=True)
            atomic_write(
                os.path.join(self.quarantine_dir, f"{job.digest}.json"),
                (json.dumps(record, indent=2, sort_keys=True) + "\n").encode(),
            )
        except OSError:
            pass  # quarantine is best-effort forensics; the job record has it all
        self._count("service.quarantined")
        self._emit(
            "job.quarantined",
            job_id=job.id,
            digest=job.digest,
            reason=reason,
            attempts=job.attempts,
            trace_id=job.trace_id,
        )
