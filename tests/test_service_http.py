"""HTTP front end + client: routes, status codes, end-to-end compile."""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    ResultRecord,
    ResultStore,
    ServiceBusyError,
    ServiceClient,
    ServiceError,
    serve_in_thread,
)


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    """One real daemon behind HTTP, shared by the module's tests."""
    root = tmp_path_factory.mktemp("service-http")
    with serve_in_thread(
        store=ResultStore(str(root / "results")),
        workers=2,
        queue_limit=8,
    ) as server:
        client = ServiceClient(server.host, server.port)
        client.wait_ready()
        yield server, client


class TestEndToEnd:
    def test_submit_wait_then_store_hit(self, live):
        server, client = live
        record = client.submit("matmul", config="orig", wait=True)
        assert record["state"] == "done"
        assert record["served_from"] == "compile"
        assert record["submitted_as"] == "queued"
        assert record["summary"]["fmax_mhz"] > 0
        assert len(record["digest"]) == 64

        again = client.submit("matmul", config="orig", wait=True)
        assert again["submitted_as"] == "store"
        assert again["result_digest"] == record["result_digest"]

        # The full FlowResult rehydrates from the shared local store.
        result = client.load_result(record["digest"], store=server.service.store)
        assert result is not None
        assert result.result_digest() == record["result_digest"]

    def test_result_route_serves_the_checked_record(self, live):
        _, client = live
        record = client.submit("matmul", config="orig", wait=True)
        payload = client.get_result_bytes(record["digest"])
        parsed = ResultRecord.parse(payload, record["digest"])
        assert parsed.result_digest() == record["result_digest"]
        assert client.get_result_bytes("0" * 64) is None

    def test_job_lookup_and_status(self, live):
        server, client = live
        record = client.submit("matmul", config="orig", wait=True)
        fetched = client.job(record["id"])
        assert fetched["state"] == "done"
        assert fetched["digest"] == record["digest"]

        status = client.status()
        assert status["schema"] == "repro-service-status/1"
        assert status["workers"] == 2
        assert status["store"]["entries"] >= 1
        assert status["metrics"]["counters"]["service.compiles"] >= 1

    def test_wait_job_polls_to_terminal_state(self, live):
        _, client = live
        record = client.submit("matmul", config="orig")  # store hit by now
        final = client.wait_job(record["id"], timeout=30)
        assert final["state"] == "done"


class TestHttpErrors:
    def test_unknown_design_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit("not-a-design")
        assert excinfo.value.status == 404
        assert "matmul" in str(excinfo.value)  # lists the valid designs

    def test_bad_config_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit("matmul", config="not-a-config")
        assert excinfo.value.status == 400

    def test_bad_priority_400(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit("matmul", priority="urgent")
        assert excinfo.value.status == 400

    def test_unknown_job_404(self, live):
        _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.job("job-9999")
        assert excinfo.value.status == 404

    def test_unknown_route_404_and_bad_method_405(self, live):
        server, _ = live
        base = f"http://{server.host}:{server.port}"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope")
        excinfo.value.close()
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/submit")  # GET on a POST route
        excinfo.value.close()
        assert excinfo.value.code == 405

    @pytest.mark.parametrize("route", ["/trace/", "/result/"])
    def test_path_traversal_is_404(self, live, tmp_path, route):
        """A digest segment that climbs out of the store names no entry,
        even when the file it points at exists and parses."""
        server, client = live
        client.submit("matmul", config="orig", wait=True)  # the store exists
        target = tmp_path / "secret.json"
        target.write_text('{"not": "a trace"}')
        # Enough ``..`` to reach ``/`` from any store root, then the target.
        climb = "../" * 64 + str(target)[1 : -len(".json")]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            connection.request("GET", route + climb)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        assert target.exists()
        assert response.status == 404, body
        assert b'"not"' not in body

    def test_malformed_json_400(self, live):
        server, _ = live
        req = urllib.request.Request(
            f"http://{server.host}:{server.port}/submit",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req)
        assert excinfo.value.code == 400
        assert "bad JSON" in json.loads(excinfo.value.read())["error"]

    def test_unreachable_daemon_maps_to_status_zero(self):
        client = ServiceClient(port=1)  # nothing listens there
        with pytest.raises(ServiceError) as excinfo:
            client.status()
        assert excinfo.value.status == 0
        assert client.ping() is False


class TestBackpressureOverHttp:
    def test_queue_full_is_429_and_busy_error(self, tmp_path):
        with serve_in_thread(
            store=ResultStore(str(tmp_path / "results")),
            workers=1,
            queue_limit=0,  # every submission overflows immediately
        ) as server:
            client = ServiceClient(server.host, server.port)
            client.wait_ready()
            with pytest.raises(ServiceBusyError) as excinfo:
                client.submit("matmul", config="orig")
            assert excinfo.value.status == 429
            counters = client.status()["metrics"]["counters"]
            assert counters["service.rejected"] == 1


class TestShutdown:
    def test_shutdown_route_stops_daemon(self, tmp_path):
        with serve_in_thread(
            store=ResultStore(str(tmp_path / "results")),
            workers=1,
        ) as server:
            client = ServiceClient(server.host, server.port)
            client.wait_ready()
            client.shutdown()
            # Idempotent: a second shutdown against a dead daemon is a no-op.
            client.shutdown()


# ---------------------------------------------------------------------------
# client retry ladder: backoff + jitter on connection failures
# ---------------------------------------------------------------------------
class _Response:
    def __init__(self, status=200, body=b'{"ok": true}'):
        self.status = status
        self._body = body

    def read(self):
        return self._body


class _FlakyConnection:
    """Module-level HTTPConnection stand-in: fail N times, then answer."""

    failures = 0
    attempts = 0
    exception = ConnectionRefusedError("refused")

    @classmethod
    def reset(cls, failures, exception=None):
        cls.failures = failures
        cls.attempts = 0
        if exception is not None:
            cls.exception = exception

    def __init__(self, host, port, timeout=None):
        pass

    def request(self, method, path, body=None, headers=None):
        cls = type(self)
        cls.attempts += 1
        if cls.attempts <= cls.failures:
            raise cls.exception

    def getresponse(self):
        return _Response()

    def close(self):
        pass


@pytest.fixture()
def flaky(monkeypatch):
    sleeps = []
    monkeypatch.setattr(http.client, "HTTPConnection", _FlakyConnection)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    _FlakyConnection.reset(0, ConnectionRefusedError("refused"))
    return sleeps


class TestClientRetry:
    def test_transient_failures_are_retried(self, flaky):
        _FlakyConnection.reset(2)
        client = ServiceClient(port=1, retries=2, retry_backoff_s=0.1)
        assert client._request("GET", "/status") == {"ok": True}
        assert _FlakyConnection.attempts == 3
        assert len(flaky) == 2  # slept between attempts, not after success

    def test_backoff_grows_and_jitters_within_cap(self, flaky):
        _FlakyConnection.reset(99)
        client = ServiceClient(
            port=1, retries=3, retry_backoff_s=0.1, retry_backoff_cap_s=0.2
        )
        with pytest.raises(ServiceError):
            client._request("GET", "/status")
        assert len(flaky) == 3
        # Full jitter: each sleep is in [0.5, 1.5] × min(base·2^k, cap).
        for sleep, nominal in zip(flaky, (0.1, 0.2, 0.2)):
            assert nominal * 0.5 <= sleep <= nominal * 1.5

    def test_exhausted_retries_surface_status_zero(self, flaky):
        _FlakyConnection.reset(99)
        client = ServiceClient(host="127.0.0.1", port=1, retries=2)
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/status")
        assert excinfo.value.status == 0
        assert "cannot reach repro service at 127.0.0.1:1" in str(excinfo.value)
        assert "after 3 attempt(s)" in str(excinfo.value)

    def test_sigkilled_server_shapes_are_retried(self, flaky):
        """BadStatusLine (empty response from a dying server) is an
        ``http.client.HTTPException``, not an OSError — it must retry."""
        _FlakyConnection.reset(1, http.client.BadStatusLine(""))
        client = ServiceClient(port=1, retries=1)
        assert client._request("GET", "/status") == {"ok": True}
        assert _FlakyConnection.attempts == 2

    def test_probes_do_not_retry(self, flaky):
        _FlakyConnection.reset(99, ConnectionRefusedError("refused"))
        client = ServiceClient(port=1, retries=5)
        assert client.ping() is False
        assert _FlakyConnection.attempts == 1 and not flaky

    def test_retries_zero_is_fail_fast(self, flaky):
        _FlakyConnection.reset(99)
        client = ServiceClient(port=1, retries=0)
        with pytest.raises(ServiceError):
            client._request("GET", "/status")
        assert _FlakyConnection.attempts == 1 and not flaky
