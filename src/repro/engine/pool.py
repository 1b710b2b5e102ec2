"""The parallel experiment engine.

One :class:`Engine` fans independent flow runs (or arbitrary picklable
tasks) out over a ``multiprocessing`` pool:

* **Determinism** — results come back in *submission* order no matter
  which worker finished first, and every job runs through the exact same
  :func:`~repro.engine.jobs.run_flow_job` code path as a sequential run,
  so ``--jobs N`` can never change a table, only the wall clock.
* **Observability** — each worker traces its jobs into a private
  :class:`~repro.obs.tracer.Tracer`; the engine grafts those forests into
  the caller's ambient tracer (see :mod:`repro.engine.merge`), so
  ``--json`` reports and Chrome traces keep working under parallelism,
  with one ``tid`` lane per worker.
* **Calibration economy** — workers resolve the §4.1 characterization
  through the persistent disk cache (:mod:`repro.delay.cache`); the file
  lock there guarantees N cold workers run exactly one characterization
  between them.
* **Stage-artifact economy** — workers inherit the flow's stage-cache
  policy (:mod:`repro.pipeline`), so all of them read and write the same
  content-addressed store under ``$REPRO_CACHE_DIR/stages``: a pipeline
  stage computed by any worker (or any earlier run) is skipped by every
  other worker whose inputs hash the same, and concurrent same-digest
  writes are idempotent by the store's atomic-replace discipline.

The pool prefers the ``fork`` start method where available: it is fast
and lets workers inherit an already-memoized calibration table from the
parent for free.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.engine.jobs import FlowFailure, FlowJob, run_flow_job
from repro.engine.merge import graft_trace
from repro.errors import ReproError
from repro.flow import Flow, FlowResult


def default_jobs() -> int:
    """Worker count for ``--jobs 0`` / "use the machine": the CPU count."""
    return os.cpu_count() or 1


#: A FlowResult embeds full schedules whose DFG object graph is as deep as
#: the longest def-use chain (thousands of ops for genome/lstm), and pickle
#: recurses once per level.  Both ends of the pipe need headroom beyond the
#: default limit of 1000; 50k levels are still far from the C stack limit.
PICKLE_RECURSION_LIMIT = 50_000


def ensure_pickle_depth() -> None:
    """Raise the recursion limit so deep FlowResult graphs (de)serialize.

    Called by the pool (its workers and the parent's result handler), by
    the stage store's payload codec (:mod:`repro.pipeline.store`) and by
    the service's compile workers (:mod:`repro.service.worker`) before
    they run a flow.  The service's result store writes JSON records, so
    it needs no headroom.
    """
    if sys.getrecursionlimit() < PICKLE_RECURSION_LIMIT:
        sys.setrecursionlimit(PICKLE_RECURSION_LIMIT)


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


# -- worker side ------------------------------------------------------------
#: Per-worker state installed by the pool initializer.
_WORKER_FLOW: Optional[Flow] = None


def _init_worker(flow: Flow, journal_path: Optional[str] = None) -> None:
    global _WORKER_FLOW
    _WORKER_FLOW = flow
    ensure_pickle_depth()  # results are pickled on the worker side
    if journal_path:
        # Re-activate the parent's event journal under this worker's pid,
        # so stage cache hit/miss and calibration-build events emitted
        # inside pool workers land in the same JSONL stream.  (A fork
        # start method would inherit the parent's handle, but spawn would
        # not — activating explicitly covers both.)
        from repro.obs.journal import EventJournal, activate_journal

        activate_journal(EventJournal(journal_path, source="engine-worker"))


def _run_task(payload: Tuple[int, Any]) -> Tuple[int, Any, "obs.Tracer", int]:
    """Execute one indexed task under a private tracer.

    The index travels with the result so the parent can restore submission
    order; the tracer travels back whole so the parent can graft it.  Both
    are pickled in one tuple, which preserves the identity link between a
    ``FlowResult.trace`` span and the tracer that owns it.
    """
    index, task = payload
    tracer = obs.Tracer()
    with obs.activate(tracer):
        if isinstance(task, FlowJob):
            assert _WORKER_FLOW is not None, "worker used before initialization"
            # A raising job must come home as data, not as an exception:
            # letting it propagate would abort the pool iteration in the
            # parent and throw away every sibling result of the batch.
            try:
                result: Any = run_flow_job(_WORKER_FLOW, task)
            except Exception as exc:
                result = FlowFailure.from_exception(task, exc)
        else:
            func, item = task
            result = func(item)
    return index, result, tracer, os.getpid()


# -- engine -----------------------------------------------------------------
class Engine:
    """Runs experiment workloads, sequentially or across worker processes.

    Args:
        jobs: Worker count.  ``1`` (the default) runs everything inline in
            the calling process — the exact legacy behavior.  ``0`` means
            "one per CPU".
        flow: The :class:`~repro.flow.Flow` executing flow jobs; workers
            receive a pickled copy, so seeds, clock overrides, injected
            calibration tables and cache paths all apply identically in
            every process.
    """

    def __init__(self, jobs: int = 1, flow: Optional[Flow] = None) -> None:
        jobs = int(jobs)
        if jobs < 0:
            raise ReproError(f"--jobs must be >= 0, got {jobs}")
        self.jobs = jobs if jobs > 0 else default_jobs()
        self.flow = flow or Flow()

    # -- public API ------------------------------------------------------
    def run_flows(
        self, jobs: Sequence[FlowJob], collect_errors: bool = False
    ) -> List[FlowResult]:
        """Run every job; results are positionally aligned with ``jobs``.

        With ``collect_errors=False`` (the default) the first failing job
        raises, exactly like a sequential loop would.  With
        ``collect_errors=True`` a failing job yields a
        :class:`~repro.engine.jobs.FlowFailure` in its result slot instead,
        and every other job still runs to completion — the CLI uses this so
        a partial batch failure reports every outcome and exits nonzero.
        """
        jobs = list(jobs)
        if self.jobs == 1 or len(jobs) <= 1:
            results: List[Any] = []
            for job in jobs:
                try:
                    results.append(run_flow_job(self.flow, job))
                except Exception as exc:
                    if not collect_errors:
                        raise
                    results.append(FlowFailure.from_exception(job, exc))
            return results
        return self._run_parallel(jobs, collect_errors=collect_errors)

    def map(
        self,
        func: Callable[[Any], Any],
        items: Iterable[Any],
    ) -> List[Any]:
        """Parallel ``[func(x) for x in items]`` for non-flow work.

        ``func`` must be a module-level (picklable) callable.  Like
        :meth:`run_flows`, results keep submission order and worker traces
        are grafted into the ambient tracer.
        """
        items = list(items)
        if self.jobs == 1 or len(items) <= 1:
            return [func(item) for item in items]
        return self._run_parallel([(func, item) for item in items])

    # -- execution -------------------------------------------------------
    def _run_parallel(
        self, tasks: List[Any], collect_errors: bool = False
    ) -> List[Any]:
        # Unpickling happens in the pool's result-handler thread, which
        # shares the process-wide recursion limit; raise it before any
        # result can arrive (the limit is never lowered back — lowering it
        # under a live thread would race).
        ensure_pickle_depth()
        parent = obs.current_tracer()
        workers = min(self.jobs, len(tasks))
        results: List[Any] = [None] * len(tasks)
        traces: List[Optional[Tuple["obs.Tracer", int]]] = [None] * len(tasks)
        ctx = _pool_context()
        journal = obs.current_journal()
        journal_path = str(journal.path) if journal is not None else None
        obs.emit_event("engine.pool_start", workers=workers, tasks=len(tasks))
        with ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(self.flow, journal_path),
        ) as pool:
            completed = pool.imap_unordered(
                _run_task, list(enumerate(tasks)), chunksize=1
            )
            for index, result, tracer, pid in completed:
                results[index] = result
                traces[index] = (tracer, pid)
        obs.emit_event("engine.pool_done", workers=workers, tasks=len(tasks))
        # Graft in submission order so the merged report lists runs exactly
        # as a sequential execution would, regardless of completion order.
        for entry in traces:
            if entry is not None:
                tracer, pid = entry
                graft_trace(parent, tracer, worker=pid)
        if not collect_errors:
            for result in results:  # earliest submitted failure wins
                if isinstance(result, FlowFailure):
                    raise ReproError(result.describe())
        return results
