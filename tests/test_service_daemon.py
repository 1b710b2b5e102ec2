"""FlowService: coalescing, backpressure, priority lanes, fault tolerance.

The fault-injection seam is ``FlowService(entry=...)``: the daemon spawns
whatever callable it is given as the worker-process target, so these tests
substitute module-level wrappers around the real
:func:`repro.service.worker.worker_entry` (module-level so they survive
both ``fork`` and ``spawn`` start methods).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

import pytest

from repro.service.daemon import (
    JOB_RETENTION,
    FlowService,
    QueueFullError,
    UnknownJobError,
)
from repro.service.request import FlowRequest
from repro.service.store import ResultStore
from repro.service.worker import execute_request, worker_entry

#: Env vars used to parameterize the module-level entry wrappers (fork and
#: spawn both inherit the environment; closures would not survive spawn).
GATE_ENV = "REPRO_TEST_GATE"
ORDER_ENV = "REPRO_TEST_ORDER"
CRASH_ONCE_ENV = "REPRO_TEST_CRASH_ONCE"


def _gated_entry(request_dict, store_root, conn):
    """Real worker, but it idles while the gate file exists — giving the
    test a window to SIGKILL it mid-'compile'."""
    gate = os.environ.get(GATE_ENV)
    deadline = time.time() + 60
    while gate and os.path.exists(gate) and time.time() < deadline:
        time.sleep(0.02)
    worker_entry(request_dict, store_root, conn)


def _crash_once_entry(request_dict, store_root, conn):
    """Die silently (exit 9) on the first attempt, succeed on the retry."""
    marker = os.environ[CRASH_ONCE_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("crashed\n")
        os._exit(9)
    worker_entry(request_dict, store_root, conn)


def _echo_entry(request_dict, store_root, conn):
    """No compile: append the request seed to the order log and succeed."""
    with open(os.environ[ORDER_ENV], "a") as handle:
        handle.write(f"{request_dict['seed']}\n")
    conn.send(
        {
            "ok": True,
            "digest": "stub",
            "result_digest": f"stub-{request_dict['seed']}",
            "summary": {"design": request_dict["design"]},
            "pid": os.getpid(),
        }
    )
    conn.close()


def _hang_entry(request_dict, store_root, conn):
    """Never answer — exercises the per-job deadline."""
    time.sleep(60)


def _service(tmp_path, **kwargs):
    kwargs.setdefault("store", ResultStore(str(tmp_path / "results")))
    kwargs.setdefault("quarantine_dir", str(tmp_path / "quarantine"))
    kwargs.setdefault("backoff_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return FlowService(**kwargs)


def _run(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_duplicate_submissions_share_one_compile(self, tmp_path):
        """The acceptance criterion: N concurrent identical submissions →
        exactly one compile, verified through the obs counters."""

        async def scenario():
            service = _service(tmp_path, workers=2)
            await service.start()
            try:
                request = FlowRequest.make("matmul", config="full")
                job1, how1 = service.submit(request)
                job2, how2 = service.submit(request)  # same digest, in flight
                assert (how1, how2) == ("queued", "coalesced")
                assert job2 is job1
                await service.wait(job1, timeout=180)
                assert job1.state == "done"
                assert job1.served_from == "compile"
                assert job1.coalesced == 1

                # A third submission after completion is a store hit.
                job3, how3 = service.submit(request)
                assert how3 == "store"
                assert job3.finished and job3.state == "done"
                assert job3.result_digest == job1.result_digest

                assert service.counter("service.compiles") == 1
                assert service.counter("service.coalesced") == 1
                assert service.counter("service.result_hits") == 1
                assert service.counter("service.submitted") == 1
            finally:
                await service.stop()

        _run(scenario())

    def test_store_hit_skips_queue_entirely(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            try:
                request = FlowRequest.make("matmul", config="orig")
                job, _ = service.submit(request)
                await service.wait(job, timeout=180)
            finally:
                await service.stop()
            # Fresh service over the same store: no dispatchers running,
            # yet the submission completes instantly from the store.
            service2 = _service(tmp_path, workers=1)
            job2, how = service2.submit(request)
            assert how == "store"
            assert job2.state == "done"
            assert job2.result_digest == job.result_digest

        _run(scenario())


class TestFaultTolerance:
    def test_sigkilled_worker_retries_to_same_digest(self, tmp_path, monkeypatch):
        """Kill the worker process mid-job: the daemon must detect the
        corpse, retry, and reproduce the exact result an uninterrupted
        run yields."""
        gate = tmp_path / "gate"
        gate.write_text("hold\n")
        monkeypatch.setenv(GATE_ENV, str(gate))
        request = FlowRequest.make("matmul", config="orig")
        reference_digest = execute_request(request).result_digest()

        async def scenario():
            service = _service(
                tmp_path, workers=1, max_attempts=3, entry=_gated_entry
            )
            await service.start()
            try:
                job, how = service.submit(request)
                assert how == "queued"
                deadline = time.time() + 30
                while job.worker_pid is None and time.time() < deadline:
                    await asyncio.sleep(0.01)
                assert job.worker_pid is not None, "worker never started"
                first_pid = job.worker_pid
                os.kill(first_pid, signal.SIGKILL)
                gate.unlink()  # let the retry run for real
                await service.wait(job, timeout=180)
                assert job.state == "done"
                assert job.attempts == 2
                assert job.worker_pid != first_pid
                assert job.result_digest == reference_digest
                assert service.counter("service.crashes") == 1
                assert service.counter("service.retries") == 1
                assert service.counter("service.compiles") == 1
            finally:
                await service.stop()

        _run(scenario())

    def test_crash_once_then_success(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CRASH_ONCE_ENV, str(tmp_path / "crash-marker"))
        request = FlowRequest.make("matmul", config="orig")

        async def scenario():
            service = _service(
                tmp_path, workers=1, max_attempts=2, entry=_crash_once_entry
            )
            await service.start()
            try:
                job, _ = service.submit(request)
                await service.wait(job, timeout=180)
                assert job.state == "done"
                assert job.attempts == 2
                assert service.counter("service.crashes") == 1
            finally:
                await service.stop()

        _run(scenario())

    def test_hung_worker_times_out_and_quarantines(self, tmp_path):
        request = FlowRequest.make("matmul", config="orig")

        async def scenario():
            service = _service(
                tmp_path, workers=1, max_attempts=2, job_timeout_s=0.3,
                entry=_hang_entry,
            )
            await service.start()
            try:
                job, _ = service.submit(request)
                await service.wait(job, timeout=60)
                assert job.state == "failed"
                assert job.attempts == 2
                assert job.error["error_type"] == "WorkerTimeout"
                assert service.counter("service.timeouts") == 2
                assert service.counter("service.retries") == 1
                assert service.counter("service.quarantined") == 1
                record_path = os.path.join(
                    service.quarantine_dir, f"{job.digest}.json"
                )
                with open(record_path) as handle:
                    record = json.load(handle)
                assert record["schema"] == "repro-quarantine/1"
                assert record["reason"] == "timeout"
                assert record["request"]["design"] == "matmul"
            finally:
                await service.stop()

        _run(scenario())

    def test_poison_job_quarantined_without_retry(self, tmp_path):
        """A flow that raises cleanly is deterministic poison: exactly one
        attempt, straight to quarantine with the structured error."""
        request = FlowRequest.make("matmul", no_such_param=1)

        async def scenario():
            service = _service(tmp_path, workers=1, max_attempts=3)
            await service.start()
            try:
                job, _ = service.submit(request)
                await service.wait(job, timeout=60)
                assert job.state == "failed"
                assert job.attempts == 1  # no retry for deterministic errors
                assert "no_such_param" in job.error["error"]
                assert service.counter("service.quarantined") == 1
                assert service.counter("service.retries") == 0
                record_path = os.path.join(
                    service.quarantine_dir, f"{job.digest}.json"
                )
                with open(record_path) as handle:
                    record = json.load(handle)
                assert record["reason"] == "error"
                assert record["error"]["traceback"]
            finally:
                await service.stop()

        _run(scenario())


class TestQueueSemantics:
    def test_backpressure_rejects_beyond_limit(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, workers=1, queue_limit=2)
            # Not started: nothing drains, so the bound is hit deterministically.
            service.submit(FlowRequest.make("matmul", seed=1))
            service.submit(FlowRequest.make("matmul", seed=2))
            with pytest.raises(QueueFullError, match="full"):
                service.submit(FlowRequest.make("matmul", seed=3))
            assert service.counter("service.rejected") == 1
            # Duplicates of queued work still coalesce — the queue is full,
            # not the digest.
            _, how = service.submit(FlowRequest.make("matmul", seed=1))
            assert how == "coalesced"
            await service.stop()

        _run(scenario())

    def test_priority_lanes_drain_high_first(self, tmp_path, monkeypatch):
        order_log = tmp_path / "order.log"
        monkeypatch.setenv(ORDER_ENV, str(order_log))

        async def scenario():
            service = _service(tmp_path, workers=1, entry=_echo_entry)
            await service.start()
            try:
                # Enqueued back-to-back (no await): the single dispatcher
                # sees all three and must pick lanes in priority order.
                jobs = [
                    service.submit(FlowRequest.make("matmul", seed=1), "low")[0],
                    service.submit(FlowRequest.make("matmul", seed=2), "normal")[0],
                    service.submit(FlowRequest.make("matmul", seed=3), "high")[0],
                ]
                for job in jobs:
                    await service.wait(job, timeout=60)
            finally:
                await service.stop()
            seeds = order_log.read_text().split()
            assert seeds == ["3", "2", "1"]  # high, normal, low

        _run(scenario())

    def test_unknown_design_and_priority_rejected(self, tmp_path):
        async def scenario():
            service = _service(tmp_path)
            with pytest.raises(Exception, match="unknown design"):
                service.submit(FlowRequest.make("not-a-design"))
            with pytest.raises(Exception, match="unknown priority"):
                service.submit(FlowRequest.make("matmul"), priority="urgent")
            with pytest.raises(UnknownJobError):
                service.job("job-9999")
            await service.stop()

        _run(scenario())

    def test_stop_aborts_queued_jobs(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, workers=1)
            job, _ = service.submit(FlowRequest.make("matmul", seed=42))
            await service.stop()
            assert job.state == "aborted"
            assert job.done.is_set()

        _run(scenario())

    def test_snapshot_shape(self, tmp_path):
        async def scenario():
            service = _service(tmp_path, queue_limit=5)
            service.submit(FlowRequest.make("matmul", seed=1), "high")
            snap = service.snapshot()
            assert snap["schema"] == "repro-service-status/1"
            assert snap["queue"]["depth"] == 1
            assert snap["queue"]["limit"] == 5
            assert snap["queue"]["by_priority"]["high"] == 1
            assert snap["inflight"] == 1
            assert len(snap["jobs"]) == 1
            assert snap["metrics"]["counters"]["service.submitted"] == 1
            assert snap["metrics"]["gauges"]["service.queue_depth"] == 1
            await service.stop()

        _run(scenario())


class TestJobRetention:
    def test_finished_jobs_are_bounded(self, tmp_path):
        """One compile then 3000 store hits: the daemon keeps at most
        ``JOB_RETENTION`` jobs, and recent ones still answer."""
        assert JOB_RETENTION >= 50  # the /status window

        async def scenario():
            service = _service(tmp_path, workers=1)
            await service.start()
            try:
                request = FlowRequest.make("vector_arith", config="orig")
                compiled, _ = service.submit(request)
                await service.wait(compiled, timeout=180)
                assert compiled.state == "done"
                hits = [service.submit(request) for _ in range(3000)]
                assert {how for _, how in hits} == {"store"}
                assert len(service._jobs) <= JOB_RETENTION
                assert service.counter("service.result_hits") == 3000
                last = hits[-1][0]
                assert service.job(last.id) is last
                status = service.snapshot()
                assert len(status["jobs"]) == 50
                assert status["jobs"][-1]["id"] == last.id
                with pytest.raises(UnknownJobError):
                    service.job(compiled.id)  # the oldest finished job
            finally:
                await service.stop()

        _run(scenario())

    def test_unfinished_jobs_are_never_dropped(self, tmp_path):
        async def scenario():
            # No dispatchers: every queued job stays unfinished.
            service = _service(tmp_path, workers=1, queue_limit=JOB_RETENTION + 10)
            queued = [
                service.submit(FlowRequest.make("matmul", config="orig", seed=seed))[0]
                for seed in range(JOB_RETENTION + 10)
            ]
            assert all(not job.finished for job in queued)
            assert len(service._jobs) == JOB_RETENTION + 10
            assert service.job(queued[0].id) is queued[0]
            await service.stop()

        _run(scenario())
