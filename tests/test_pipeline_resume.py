"""Checkpoint/resume: a killed worker's retry resumes from stage artifacts.

The worker-side flow writes each completed stage to the shared
``$REPRO_CACHE_DIR/stages`` store as it goes (see :mod:`repro.pipeline`).
These tests kill a worker *late* in the pipeline — after the prefix has
been checkpointed — and assert the retry (a brand-new process) skips the
checkpointed prefix, reproduces the reference result digest, and reports
the skips through its journal and the service counters.
"""

from __future__ import annotations

import asyncio
import os

from repro.service.daemon import FlowService
from repro.service.request import FlowRequest
from repro.service.store import ResultStore
from repro.service.worker import execute_request, worker_entry

#: Marker-file path (fork and spawn both inherit the environment; the
#: wrapper must be module-level to survive spawn).
DIE_ENV = "REPRO_TEST_DIE_AT_TIMING"


def _die_at_timing_entry(request_dict, store_root, conn):
    """Real worker, but the first attempt dies silently (SIGKILL-style,
    ``os._exit``) when it reaches the timing stage — after every earlier
    stage has checkpointed its artifact."""
    marker = os.environ[DIE_ENV]
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("dying at timing\n")

        from repro.physical.timing import TimingAnalyzer

        TimingAnalyzer.analyze = lambda self: os._exit(9)
    worker_entry(request_dict, store_root, conn)


def _service(tmp_path, **kwargs):
    kwargs.setdefault("store", ResultStore(str(tmp_path / "results")))
    kwargs.setdefault("backoff_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return FlowService(**kwargs)


def test_killed_worker_resumes_from_checkpointed_stages(tmp_path, monkeypatch):
    # Private cache dir: the stage store must start cold so the skipped
    # prefix provably comes from the dead first attempt's checkpoints.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv(DIE_ENV, str(tmp_path / "die-marker"))
    request = FlowRequest.make("matmul", config="orig")

    # Reference digest from an uncached in-process run.
    monkeypatch.setenv("REPRO_STAGE_CACHE", "off")
    reference_digest = execute_request(request).result_digest()
    monkeypatch.delenv("REPRO_STAGE_CACHE")

    async def scenario():
        service = _service(
            tmp_path, workers=1, max_attempts=3, entry=_die_at_timing_entry
        )
        await service.start()
        try:
            job, how = service.submit(request)
            assert how == "queued"
            await service.wait(job, timeout=180)

            assert job.state == "done"
            assert job.attempts == 2
            assert job.result_digest == reference_digest
            assert service.counter("service.crashes") == 1
            assert service.counter("service.retries") == 1
            assert service.counter("service.compiles") == 1

            # The winning attempt's journal shows the resumed prefix: every
            # cacheable stage before timing was served from the first
            # attempt's checkpoints; timing (where the corpse fell) ran.
            journal = job.record()["journal"]
            assert journal is not None
            by_stage = {entry["stage"]: entry for entry in journal}
            assert by_stage["timing"]["action"] == "run"
            resumed = [
                entry["stage"]
                for entry in journal
                if entry["action"] == "skipped" and entry["source"] == "disk"
            ]
            assert len(resumed) >= 8, journal
            assert "pragmas" in resumed and "retiming" in resumed
            assert service.counter("service.stages_skipped") == len(resumed)
        finally:
            await service.stop()

    asyncio.run(scenario())
