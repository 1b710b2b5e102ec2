"""End-to-end service telemetry: traces, /metrics, the event journal.

The acceptance scenario of the telemetry work: a ``ServiceClient`` request
yields ONE merged trace containing the daemon's job span plus spans from
every worker attempt — including an attempt that was SIGKILL'd mid-compile
(rebuilt from the worker's trace spool) — and ``GET /metrics`` stays
parseable while a compile is in flight.

Entry wrappers are module-level (like :mod:`test_service_daemon`) so they
survive both ``fork`` and ``spawn`` start methods; they wrap the *real*
``worker_entry`` so the spool/journal plumbing under test actually runs.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time

from repro import obs
from repro.obs.exposition import parse_exposition
from repro.obs.journal import EventJournal, read_events
from repro.service.daemon import FlowService
from repro.service.request import FlowRequest
from repro.service.server import serve_in_thread
from repro.service.client import ServiceClient
from repro.service.store import ResultStore
from repro.service.traces import TraceStore

#: Gate file env var: while the file exists, the gated compile idles under
#: an open span — giving tests a window to SIGKILL or scrape mid-flight.
GATE_ENV = "REPRO_TELEMETRY_TEST_GATE"


def _gated_compile_entry(request_dict, store_root, conn):
    """Real worker_entry, but the compile idles while the gate file exists.

    The idle happens *inside* ``execute_request`` — under the worker's live
    tracer, after the trace spool thread has started — so a SIGKILL during
    the gate leaves a spool with an in-flight span on disk, exactly like a
    kill mid-placement would.
    """
    from repro.service import worker

    real = worker.execute_request

    def gated(request):
        gate = os.environ.get(GATE_ENV)
        with obs.span("gated-hold"):
            deadline = time.time() + 60
            while gate and os.path.exists(gate) and time.time() < deadline:
                time.sleep(0.02)
        return real(request)

    worker.execute_request = gated
    worker.worker_entry(request_dict, store_root, conn)


def _service(tmp_path, **kwargs):
    kwargs.setdefault("store", ResultStore(str(tmp_path / "results")))
    kwargs.setdefault("quarantine_dir", str(tmp_path / "quarantine"))
    kwargs.setdefault(
        "journal", EventJournal(tmp_path / "journal" / "events.jsonl",
                               source="daemon")
    )
    kwargs.setdefault("trace_store", TraceStore(str(tmp_path / "traces")))
    kwargs.setdefault("backoff_s", 0.01)
    kwargs.setdefault("backoff_cap_s", 0.05)
    return FlowService(**kwargs)


class TestTracePropagation:
    def test_client_request_yields_one_merged_trace(self, tmp_path):
        """Client-minted trace_id → daemon span → worker span, one doc."""
        traces = TraceStore(str(tmp_path / "traces"))
        service = _service(tmp_path, workers=1, trace_store=traces)
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            record = client.submit("matmul", config="orig", wait=True)
            assert record["state"] == "done"
            trace_id = record["trace_id"]
            assert len(trace_id) == 16

            document = client.get_trace(record["digest"])
        assert document["schema"] == "repro-trace/1"
        assert document["trace_id"] == trace_id
        assert document["attempts"] == 1

        daemon_span = document["daemon_span"]
        assert daemon_span["name"] == "service.job"
        assert daemon_span["attrs"]["trace_id"] == trace_id

        (worker_span,) = document["worker_spans"]
        assert worker_span["attrs"]["trace_id"] == trace_id
        assert worker_span["attrs"]["parent_span_id"] == (
            daemon_span["attrs"]["span_id"]
        )
        assert worker_span["attrs"]["attempt"] == 1
        # The worker span is the real flow trace, stages included.
        child_names = [c["name"] for c in worker_span["children"]]
        assert "scheduling" in child_names

    def test_sigkilled_attempt_survives_in_merged_trace(
        self, tmp_path, monkeypatch
    ):
        """Kill attempt 1 mid-compile: the merged trace must still contain
        its spans (partial, from the spool) next to attempt 2's."""
        gate = tmp_path / "gate"
        gate.write_text("hold\n")
        monkeypatch.setenv(GATE_ENV, str(gate))
        traces = TraceStore(str(tmp_path / "traces"))
        request = FlowRequest.make("matmul", config="orig")

        async def scenario():
            service = _service(
                tmp_path, workers=1, max_attempts=3,
                entry=_gated_compile_entry, trace_store=traces,
            )
            await service.start()
            try:
                job, _how = service.submit(request)
                deadline = time.time() + 30
                while job.worker_pid is None and time.time() < deadline:
                    await asyncio.sleep(0.01)
                assert job.worker_pid is not None, "worker never started"
                first_pid = job.worker_pid
                # Give the spool thread time to write at least one snapshot
                # with the gated-hold span in flight.
                await asyncio.sleep(0.4)
                os.kill(first_pid, signal.SIGKILL)
                gate.unlink()  # attempt 2 compiles for real
                await service.wait(job, timeout=180)
                assert job.state == "done"
                assert job.attempts == 2
                return job
            finally:
                await service.stop()

        job = asyncio.run(scenario())
        document = traces.get(job.digest)
        assert document is not None
        assert document["attempts"] == 2
        assert document["trace_id"] == job.trace_id

        by_attempt = {}
        for span in document["worker_spans"]:
            by_attempt.setdefault(span["attrs"].get("attempt"), []).append(span)
        assert set(by_attempt) == {1, 2}
        # Attempt 1's spans came from the spool and are marked partial.
        killed = by_attempt[1][0]
        assert killed["attrs"]["partial"] is True
        assert killed["attrs"]["trace_id"] == job.trace_id
        # The kill landed inside the gated hold; the spool caught the span.
        held = [
            c for c in killed["children"] or [killed]
            if "gated-hold" in json.dumps(c)
        ] or ([killed] if "gated-hold" in json.dumps(killed) else [])
        assert held, "spooled spans lost the in-flight gated-hold span"
        # Attempt 2 is the complete compile.
        survivor = by_attempt[2][0]
        assert survivor["attrs"].get("partial") is not True

    def test_attempt_killed_before_its_first_spool_write_is_traced(
        self, tmp_path, monkeypatch
    ):
        """Kill attempt 1 as soon as its pid is known, with no sleep: the
        spool may not have written yet, and ``/trace/<digest>`` must still
        carry both attempts."""
        gate = tmp_path / "gate"
        gate.write_text("hold\n")
        monkeypatch.setenv(GATE_ENV, str(gate))
        service = _service(
            tmp_path, workers=1, max_attempts=3, entry=_gated_compile_entry
        )
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            record = client.submit("matmul", config="orig")
            deadline = time.time() + 30
            pid = None
            while pid is None and time.time() < deadline:
                pid = client.job(record["id"]).get("worker_pid")
            assert pid, "worker never started"
            os.kill(pid, signal.SIGKILL)
            gate.unlink()
            final = client.wait_job(record["id"], timeout=180)
            assert final["state"] == "done", final
            assert final["attempts"] == 2, final
            document = client.get_trace(final["digest"])
        attempts = {}
        for span in document["worker_spans"]:
            attempts.setdefault(span["attrs"]["attempt"], []).append(span)
        assert set(attempts) == {1, 2}
        assert all(s["attrs"]["partial"] is True for s in attempts[1])
        assert all(s["attrs"].get("partial") is not True for s in attempts[2])

    def test_attempt_with_no_spool_gets_a_partial_stub(self, tmp_path):
        """A failed attempt that left no spool document is recorded as one
        ``service.attempt`` stub span; a successful one adds nothing."""
        service = _service(tmp_path)
        job, _how = service.submit(FlowRequest.make("matmul", config="orig"))
        job.attempts = 1
        missing = str(tmp_path / "spool" / "never-written.json")
        service._read_spool(job, missing, "crash", 4242, 0.0)
        (stub,) = job.worker_spans
        assert stub["name"] == "service.attempt"
        assert stub["attrs"]["outcome"] == "crash"
        assert stub["attrs"]["pid"] == 4242
        assert stub["attrs"]["attempt"] == 1
        assert stub["attrs"]["partial"] is True
        assert stub["attrs"]["trace_id"] == job.trace_id

        service._read_spool(job, missing, "ok", 4243, 0.0)
        assert len(job.worker_spans) == 1

    def test_store_hit_keeps_the_compile_trace(self, tmp_path):
        """A store hit writes no trace document: /trace/<digest> stays the
        compile that made the result, worker spans and all."""
        service = _service(tmp_path, workers=1)
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            record = client.submit("vector_arith", config="orig", wait=True)
            again = client.submit("vector_arith", config="orig", wait=True)
            assert again["submitted_as"] == "store"
            document = client.get_trace(record["digest"])
        assert document["served_from"] == "compile"
        assert document["job_id"] == record["id"]
        assert len(document["worker_spans"]) >= 1

    def test_coalesced_submissions_record_their_trace_ids(self, tmp_path):
        gate = tmp_path / "gate"
        gate.write_text("hold\n")
        request = FlowRequest.make("matmul", config="orig")

        async def scenario(monkey_env):
            os.environ[GATE_ENV] = str(gate)
            try:
                service = _service(
                    tmp_path, workers=1, entry=_gated_compile_entry
                )
                await service.start()
                try:
                    from repro.obs.context import TraceContext

                    first = TraceContext.mint()
                    second = TraceContext.mint()
                    job, how1 = service.submit(request, trace=first)
                    job2, how2 = service.submit(request, trace=second)
                    assert job2 is job
                    assert (how1, how2) == ("queued", "coalesced")
                    assert job.trace_id == first.trace_id
                    gate.unlink()
                    await service.wait(job, timeout=180)
                    coalesced = job.span.attrs.get("coalesced_trace_ids")
                    assert coalesced == [second.trace_id]
                finally:
                    await service.stop()
            finally:
                os.environ.pop(GATE_ENV, None)

        asyncio.run(scenario(None))


class TestMetricsExposition:
    def test_metrics_parse_while_compile_in_flight(self, tmp_path, monkeypatch):
        """The acceptance criterion: scrape /metrics mid-compile and parse
        every line."""
        gate = tmp_path / "gate"
        gate.write_text("hold\n")
        monkeypatch.setenv(GATE_ENV, str(gate))
        service = _service(tmp_path, workers=1, entry=_gated_compile_entry)
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            record = client.submit("matmul", config="orig", wait=False)
            assert record["state"] in ("queued", "running")

            text = client.metrics()  # job is gated: this is mid-flight
            doc = parse_exposition(text)  # raises on any malformed line
            assert doc.value("repro_service_submitted_total") >= 1
            assert doc.value("repro_service_uptime_s") >= 0
            for lane in ("high", "normal", "low"):
                assert doc.value(
                    "repro_service_lane_queue_depth", (("lane", lane),)
                ) is not None

            gate.unlink()
            client.wait_job(record["id"], timeout=180)
            after = parse_exposition(client.metrics())
            assert after.value("repro_service_compiles_total") >= 1
            name = "repro_service_compile_latency_s"
            assert after.value(f"{name}_count") >= 1
            assert after.types[name] == "summary"

    def test_two_daemons_in_one_process_count_apart(self, tmp_path):
        """Each daemon's counter(), /status and /metrics read its own
        registry, even when two share a process (two ``serve_in_thread``
        embeddings, as a test harness or an embedding host runs them)."""
        first = _service(tmp_path / "a", workers=1)
        second = _service(tmp_path / "b", workers=1)
        with serve_in_thread(first) as server_a, serve_in_thread(second) as server_b:
            client_a = ServiceClient(port=server_a.port)
            client_b = ServiceClient(port=server_b.port)
            client_a.submit("vector_arith", config="orig", wait=True)
            for service, client, compiles in (
                (first, client_a, 1), (second, client_b, 0)
            ):
                assert service.counter("service.compiles") == compiles
                counters = client.status()["metrics"]["counters"]
                assert counters.get("service.compiles", 0) == compiles
                doc = parse_exposition(client.metrics())
                assert (doc.value("repro_service_compiles_total") or 0) == compiles

    def test_status_snapshot_mirrors_metrics(self, tmp_path):
        service = _service(tmp_path, workers=1)
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            before = parse_exposition(client.metrics())
            client.submit("matmul", config="orig", wait=True)
            snapshot = client.status()
            doc = parse_exposition(client.metrics())
        counters = snapshot["metrics"]["counters"]
        # /metrics renders this daemon's own registry, so the scrape delta
        # over one compile and the daemon's snapshot must both read 1.
        delta = doc.value("repro_service_compiles_total") - (
            before.value("repro_service_compiles_total") or 0
        )
        assert counters["service.compiles"] == delta == 1
        assert snapshot["uptime_s"] >= 0
        assert "journal" in snapshot and "traces" in snapshot


class TestEventJournal:
    def test_daemon_lifecycle_and_job_events(self, tmp_path):
        """The service's only log: every lifecycle transition is a record."""
        journal = EventJournal(tmp_path / "journal" / "events.jsonl",
                               source="daemon")
        service = _service(tmp_path, workers=1, journal=journal)
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            record = client.submit("matmul", config="orig", wait=True)
            again = client.submit("matmul", config="orig", wait=True)
            assert again["served_from"] == "store"

        events = [r["event"] for r in read_events(journal.path)]
        for expected in (
            "service.start", "http.listen", "job.accepted", "job.started",
            "worker.spawned", "worker.exit", "job.completed",
            "job.store_hit", "service.stop",
        ):
            assert expected in events, f"missing {expected} in {events}"
        # Order sanity: start first, stop last, accepted before completed.
        assert events[0] == "service.start"
        assert events[-1] == "service.stop"
        assert events.index("job.accepted") < events.index("job.completed")

        start = next(
            r for r in read_events(journal.path) if r["event"] == "service.start"
        )
        assert start["workers"] == 1 and start["source"] == "daemon"
        stop = next(
            r for r in read_events(journal.path) if r["event"] == "service.stop"
        )
        assert stop["uptime_s"] >= 0

        completed = next(
            r for r in read_events(journal.path)
            if r["event"] == "job.completed"
        )
        assert completed["trace_id"] == record["trace_id"]
        assert completed["served_from"] == "compile"

    def test_worker_stage_events_land_in_shared_journal(
        self, tmp_path, monkeypatch
    ):
        """Forked workers append to the daemon's journal: stage cache
        hit/miss records carry the worker pid and source."""
        # Private cache dir: the compile must be cold so misses are
        # guaranteed regardless of what earlier tests warmed.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal = EventJournal(tmp_path / "journal" / "events.jsonl",
                               source="daemon")
        service = _service(tmp_path, workers=1, journal=journal)
        with serve_in_thread(service) as server:
            client = ServiceClient(port=server.port)
            client.submit("matmul", config="orig", wait=True)

        stage_events = [
            r for r in read_events(journal.path)
            if r["event"] in ("stage.hit", "stage.miss")
        ]
        assert stage_events, "workers emitted no stage cache events"
        daemon_pid = next(
            r["pid"] for r in read_events(journal.path)
            if r["event"] == "service.start"
        )
        assert all(r["source"] == "worker" for r in stage_events)
        assert all(r["pid"] != daemon_pid for r in stage_events)
        assert any(r["event"] == "stage.miss" for r in stage_events)
        # A hit record names which cache tier served it, not the emitter.
        hits = [r for r in stage_events if r["event"] == "stage.hit"]
        assert all(r.get("cache") in ("memory", "disk") for r in hits)


class TestTraceSpoolFailureAccounting:
    """A spool that stops writing must say so (once), then report recovery.

    The old code swallowed every exception silently — a worker whose spool
    was broken from round one left zero forensics *and* zero evidence that
    forensics were missing.
    """

    def make_spool(self, tmp_path):
        from repro.service.traces import TraceSpool

        tracer = obs.Tracer()
        with obs.activate(tracer):
            with tracer.span("probe"):
                pass
        return TraceSpool(tracer, str(tmp_path / "spool.json"))

    def test_failure_streak_emits_one_event_then_recovery(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.journal import activate_journal
        from repro.service import traces as traces_mod

        spool = self.make_spool(tmp_path)
        journal = EventJournal(tmp_path / "journal" / "events.jsonl",
                               source="worker")
        activate_journal(journal)
        try:
            def broken(path, tracer, meta):
                raise OSError("disk full")

            monkeypatch.setattr(traces_mod, "write_spool", broken)
            for _ in range(5):
                spool._write_once()
            assert spool.failures == 5
            monkeypatch.undo()
            spool._write_once()  # heals
            assert spool.failures == 0
        finally:
            activate_journal(None)

        events = read_events(journal.path)
        failed = [r for r in events if r["event"] == "trace.spool_write_failed"]
        recovered = [r for r in events if r["event"] == "trace.spool_recovered"]
        assert len(failed) == 1, "failure streak must emit exactly one event"
        assert "disk full" in failed[0]["error"]
        assert len(recovered) == 1
        assert recovered[0]["failures"] == 5
        assert os.path.exists(spool.path)  # the healed round really wrote

    def test_programming_errors_propagate(self, tmp_path, monkeypatch):
        from repro.service import traces as traces_mod

        spool = self.make_spool(tmp_path)

        def broken(path, tracer, meta):
            raise TypeError("snapshot_span signature changed")

        monkeypatch.setattr(traces_mod, "write_spool", broken)
        try:
            spool._write_once()
        except TypeError:
            pass
        else:  # pragma: no cover - the assertion below reports the bug
            raise AssertionError("TypeError must not be swallowed")
        assert spool.failures == 0  # not a counted transient failure
