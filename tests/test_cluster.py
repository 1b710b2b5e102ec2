"""Cluster layer: membership, peer-fetch store, router, HTTP front end.

Unit coverage runs against fake node clients (no sockets, no compiles),
so every routing decision — cache, busy spill, failover, semantic-error
propagation — is deterministic.  One thread-mode :class:`LocalCluster`
integration test exercises the real wiring end to end (real daemons,
real worker processes, one real compile).
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from repro.cluster.local import LocalCluster
from repro.cluster.membership import Membership
from repro.cluster.peer import PeerResultStore
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.cluster.server import RouterServer
from repro.errors import ReproError
from repro.obs.journal import EventJournal, read_events
from repro.service.client import ServiceBusyError, ServiceClient, ServiceError
from repro.service.request import FlowRequest
from repro.service.store import ResultStore
from repro.service.worker import execute_request


# ---------------------------------------------------------------------------
# fakes
# ---------------------------------------------------------------------------
class _FakeNodeClient:
    """Stands in for a node's ServiceClient: canned submit/health."""

    def __init__(self, node_id, submit=None, health=None):
        self.node_id = node_id
        self.submit_behavior = submit
        self.health_behavior = health
        self.submits = 0
        self.health_calls = 0

    def submit(self, design, **kwargs):
        self.submits += 1
        behavior = self.submit_behavior
        if callable(behavior):
            behavior = behavior(design, **kwargs)
        if isinstance(behavior, Exception):
            raise behavior
        if behavior is None:
            behavior = {"state": "done", "result_digest": f"rd-{self.node_id}"}
        return dict(behavior)

    def health(self):
        self.health_calls += 1
        behavior = self.health_behavior
        if isinstance(behavior, Exception):
            raise behavior
        if behavior is None:
            behavior = {"ok": True, "node_id": self.node_id, "queue_depth": 0}
        return dict(behavior)

    def metrics(self):
        return (
            "# TYPE repro_service_compiles counter\n"
            "repro_service_compiles_total 1\n"
        )


def _fleet(fakes, replicas=2, **kwargs):
    """A Membership whose clients are the given ``{port: fake}`` map."""
    membership = Membership(
        replicas=replicas,
        client_factory=lambda host, port: fakes[port],
        probe_client_factory=lambda host, port: fakes[port],
        **kwargs,
    )
    for port, fake in fakes.items():
        membership.add(fake.node_id, "127.0.0.1", port)
    return membership


def _three_fakes(**overrides):
    fakes = {
        9000 + index: _FakeNodeClient(f"n{index}") for index in range(3)
    }
    for port, fake in fakes.items():
        if fake.node_id in overrides:
            fake.submit_behavior = overrides[fake.node_id]
    return fakes


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------
class TestMembership:
    def test_add_is_idempotent_and_versions_bump(self):
        membership = _fleet(_three_fakes())
        version = membership.version
        membership.add("n0", "127.0.0.1", 9000)  # re-add: no ring change
        assert membership.version == version
        assert sorted(i.node_id for i in membership.alive()) == ["n0", "n1", "n2"]

    def test_mark_dead_keeps_record_for_revival(self):
        membership = _fleet(_three_fakes())
        version = membership.version
        membership.mark_dead("n1", reason="test")
        assert membership.version == version + 1
        info = membership.node("n1")
        assert info is not None and info.state == "dead"
        assert "n1" not in membership.ring
        membership.mark_alive("n1")
        assert membership.node("n1").alive and "n1" in membership.ring

    def test_owners_returns_alive_replicas(self):
        membership = _fleet(_three_fakes())
        digest = "a" * 64
        owners = membership.owners(digest)
        assert len(owners) == 2
        assert owners[0].node_id != owners[1].node_id
        membership.mark_dead(owners[0].node_id)
        reowned = membership.owners(digest)
        assert owners[0].node_id not in [i.node_id for i in reowned]

    def test_replicas_validated(self):
        with pytest.raises(ReproError):
            Membership(replicas=0)

    def test_snapshot_schema(self):
        membership = _fleet(_three_fakes())
        snapshot = membership.snapshot()
        assert snapshot["schema"] == "repro-cluster-membership/1"
        assert sorted(snapshot["alive"]) == ["n0", "n1", "n2"]
        assert len(snapshot["members"]) == 3

    def test_probe_sweep_kills_after_max_misses_and_revives(self, tmp_path):
        journal = EventJournal(str(tmp_path / "j.jsonl"), source="test")
        fakes = _three_fakes()
        membership = _fleet(fakes, max_misses=2, journal=journal)
        fakes[9001].health_behavior = ServiceError("down", status=0)
        membership.probe_all()
        assert membership.node("n1").alive  # one miss is not death
        membership.probe_all()
        assert not membership.node("n1").alive
        fakes[9001].health_behavior = None  # node answers again
        membership.probe_all()
        assert membership.node("n1").alive
        events = [e["event"] for e in read_events(str(tmp_path / "j.jsonl"))]
        assert "cluster.node_down" in events and "cluster.node_up" in events

    def test_probe_sweep_records_vitals(self):
        fakes = _three_fakes()
        membership = _fleet(fakes)
        membership.probe_all()
        assert membership.node("n0").vitals.get("node_id") == "n0"


# ---------------------------------------------------------------------------
# peer-fetch store
# ---------------------------------------------------------------------------
class _Peer:
    def __init__(self, node_id, host="127.0.0.1", port=9999):
        self.node_id, self.host, self.port = node_id, host, port


class _WiredPeerStore(PeerResultStore):
    """PeerResultStore whose network is a ``{(host, port): fake}`` map."""

    def __init__(self, *args, peers=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fake_peers = peers or {}

    def _peer_client(self, host, port):
        return self._fake_peers[(host, port)]


class _FakePeerTransport:
    def __init__(self, payload=None, error=None):
        self.payload, self.error = payload, error
        self.calls = 0

    def get_result_bytes(self, digest):
        self.calls += 1
        if self.error is not None:
            raise self.error
        return self.payload


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """One real compiled entry to move between stores (module-scoped:
    compiling is the expensive part of these tests)."""
    root = tmp_path_factory.mktemp("owner-store")
    request = FlowRequest.make("vector_arith", config="orig")
    result = execute_request(request)
    store = ResultStore(str(root))
    entry = store.put(request, result)
    return {
        "digest": entry.digest,
        "result_digest": entry.result_digest,
        "payload": store.get_bytes(entry.digest),
    }


class TestPeerResultStore:
    def test_fetch_installs_locally(self, tmp_path, compiled):
        owner = _Peer("n-owner")
        store = _WiredPeerStore(
            root=str(tmp_path / "local"),
            node_id="n-local",
            owners_for=lambda digest: [owner],
            peers={("127.0.0.1", 9999): _FakePeerTransport(compiled["payload"])},
        )
        entry = store.get(compiled["digest"])
        assert entry is not None
        assert entry.result_digest == compiled["result_digest"]
        assert store.peer_hits == 1
        # Second get is a plain local hit — no second fetch.
        assert store.get(compiled["digest"]) is not None
        assert store.peer_hits == 1

    def test_own_node_is_skipped(self, tmp_path, compiled):
        transport = _FakePeerTransport(compiled["payload"])
        store = _WiredPeerStore(
            root=str(tmp_path / "local"),
            node_id="n-local",
            owners_for=lambda digest: [_Peer("n-local")],  # only ourselves
            peers={("127.0.0.1", 9999): transport},
        )
        assert store.get(compiled["digest"]) is None
        assert transport.calls == 0 and store.peer_misses == 1

    def test_corrupt_payload_rejected(self, tmp_path, compiled):
        store = _WiredPeerStore(
            root=str(tmp_path / "local"),
            node_id="n-local",
            owners_for=lambda digest: [_Peer("n-owner")],
            peers={("127.0.0.1", 9999): _FakePeerTransport(b"not a record")},
        )
        assert store.get(compiled["digest"]) is None
        assert store.peer_fetch_errors == 1
        assert ResultStore.get(store, compiled["digest"]) is None  # nothing installed

    def test_record_of_another_digest_rejected(self, tmp_path, compiled):
        """A peer answering with a valid record of another request."""
        store = _WiredPeerStore(
            root=str(tmp_path / "local"),
            node_id="n-local",
            owners_for=lambda digest: [_Peer("n-owner")],
            peers={("127.0.0.1", 9999): _FakePeerTransport(compiled["payload"])},
        )
        other = "f" * 64
        assert store.get(other) is None
        assert store.peer_fetch_errors == 1
        assert ResultStore.get(store, other) is None  # nothing installed
        assert ResultStore.get(store, compiled["digest"]) is None

    def test_dead_peer_is_a_miss_not_an_error(self, tmp_path, compiled):
        store = _WiredPeerStore(
            root=str(tmp_path / "local"),
            node_id="n-local",
            owners_for=lambda digest: [_Peer("n-owner")],
            peers={
                ("127.0.0.1", 9999): _FakePeerTransport(
                    error=ServiceError("refused", status=0)
                )
            },
        )
        assert store.get(compiled["digest"]) is None
        assert store.peer_fetch_errors == 1 and store.peer_misses == 1

    def test_get_bytes_never_consults_peers(self, tmp_path, compiled):
        """The recursion guard: the /result route reads through
        ``get_bytes``, which must answer from local disk only."""
        transport = _FakePeerTransport(compiled["payload"])
        store = _WiredPeerStore(
            root=str(tmp_path / "local"),
            node_id="n-local",
            owners_for=lambda digest: [_Peer("n-owner")],
            peers={("127.0.0.1", 9999): transport},
        )
        assert store.get_bytes(compiled["digest"]) is None
        assert transport.calls == 0


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------
def _owners_of(router, design="matmul", **kwargs):
    digest = router.request_for(design, **kwargs).digest()
    return digest, [i.node_id for i in router.membership.owners(digest)]


class TestRouter:
    def test_done_records_are_cached(self):
        fakes = _three_fakes()
        router = ClusterRouter(_fleet(fakes))
        first = router.submit("matmul", wait=True)
        assert first["served_from"] == "compile"
        assert first["node"] in ("n0", "n1", "n2")
        second = router.submit("matmul", wait=True)
        assert second["served_from"] == "router-cache"
        assert second["result_digest"] == first["result_digest"]
        assert router.cache_hits == 1 and router.requests == 2
        assert sum(f.submits for f in fakes.values()) == 1

    def test_non_terminal_records_are_not_cached(self):
        fakes = _three_fakes()
        for fake in fakes.values():
            fake.submit_behavior = {"state": "queued", "job_id": "j1"}
        router = ClusterRouter(_fleet(fakes))
        router.submit("matmul", wait=False)
        router.submit("matmul", wait=False)
        assert router.cache_hits == 0
        # ...and both went to the same (primary) node: routing is stable.
        assert sorted(f.submits for f in fakes.values()) == [0, 0, 2]

    def test_busy_primary_spills_to_backup_without_death(self):
        fakes = _three_fakes()
        router = ClusterRouter(_fleet(fakes))
        digest, (primary, backup) = _owners_of(router)
        by_id = {f.node_id: f for f in fakes.values()}
        by_id[primary].submit_behavior = ServiceBusyError("queue full", status=429)
        record = router.submit("matmul", wait=True)
        assert record["node"] == backup
        assert router.busy_redirects == 1 and router.failovers == 0
        assert router.membership.node(primary).alive  # busy != dead

    def test_dead_primary_fails_over_and_journals(self, tmp_path):
        journal_path = str(tmp_path / "j.jsonl")
        fakes = _three_fakes()
        router = ClusterRouter(
            _fleet(fakes), journal=EventJournal(journal_path, source="router")
        )
        digest, (primary, backup) = _owners_of(router)
        by_id = {f.node_id: f for f in fakes.values()}
        by_id[primary].submit_behavior = ServiceError("refused", status=0)
        record = router.submit("matmul", wait=True)
        assert record["node"] == backup
        assert router.failovers == 1
        assert not router.membership.node(primary).alive
        (event,) = read_events(journal_path, grep="cluster.failover")
        assert event["dead_node"] == primary
        assert event["backup_node"] == backup
        assert event["digest"] == digest

    def test_semantic_errors_propagate_without_failover(self):
        fakes = _three_fakes()
        router = ClusterRouter(_fleet(fakes))
        _, (primary, _) = _owners_of(router)
        by_id = {f.node_id: f for f in fakes.values()}
        by_id[primary].submit_behavior = ServiceError("unknown design", status=400)
        with pytest.raises(ServiceError) as excinfo:
            router.submit("matmul", wait=True)
        assert excinfo.value.status == 400
        assert router.failovers == 0
        assert router.membership.node(primary).alive

    def test_every_replica_down_raises_status_zero(self):
        fakes = _three_fakes()
        for fake in fakes.values():
            fake.submit_behavior = ServiceError("refused", status=0)
        router = ClusterRouter(_fleet(fakes))
        with pytest.raises(ServiceError) as excinfo:
            router.submit("matmul", wait=True)
        assert excinfo.value.status == 0
        assert router.failovers == 1  # primary→backup; backup had no successor

    def test_empty_cluster_raises(self):
        membership = Membership()
        router = ClusterRouter(membership)
        with pytest.raises(ServiceError) as excinfo:
            router.submit("matmul")
        assert "no alive nodes" in str(excinfo.value)

    def test_status_document(self):
        fakes = _three_fakes()
        router = ClusterRouter(_fleet(fakes))
        router.submit("matmul", wait=True)
        document = router.status()
        assert document["schema"] == "repro-cluster-status/1"
        assert document["replicas"] == 2
        assert len(document["nodes"]) == 3
        assert all("vitals" in node for node in document["nodes"])
        assert document["router"]["requests"] == 1

    def test_metrics_are_node_labeled(self):
        fakes = _three_fakes()
        router = ClusterRouter(_fleet(fakes))
        text = router.metrics_text()
        for node_id in ("n0", "n1", "n2"):
            assert f'node="{node_id}"' in text
        assert "repro_cluster_requests_total 0" in text
        assert "repro_cluster_nodes_alive 3" in text


# ---------------------------------------------------------------------------
# HTTP front end
# ---------------------------------------------------------------------------
class TestRouterServer:
    @pytest.fixture()
    def served(self):
        fakes = _three_fakes()
        router = ClusterRouter(_fleet(fakes))
        with RouterServer(router) as server:
            yield fakes, router, server

    def _get(self, server, path):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def test_healthz_status_membership_metrics(self, served):
        _, _, server = served
        status, raw = self._get(server, "/healthz")
        assert status == 200 and json.loads(raw)["schema"] == "repro-cluster/1"
        status, raw = self._get(server, "/status")
        assert json.loads(raw)["schema"] == "repro-cluster-status/1"
        status, raw = self._get(server, "/membership")
        assert json.loads(raw)["schema"] == "repro-cluster-membership/1"
        status, raw = self._get(server, "/metrics")
        assert status == 200 and b"repro_cluster_nodes_alive" in raw
        assert self._get(server, "/nope")[0] == 404

    def test_submit_routes_and_annotates(self, served):
        fakes, router, server = served
        client = ServiceClient(host=server.host, port=server.port, retries=0)
        record = client.submit("matmul", wait=True)
        assert record["state"] == "done"
        assert record["node"] in ("n0", "n1", "n2")
        repeat = client.submit("matmul", wait=True)
        assert repeat["served_from"] == "router-cache"
        assert router.cache_hits == 1

    def test_submit_missing_design_is_400(self, served):
        _, _, server = served
        client = ServiceClient(host=server.host, port=server.port, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/submit", payload={})
        assert excinfo.value.status == 400

    def test_submit_with_dead_fleet_is_503(self, served):
        fakes, _, server = served
        for fake in fakes.values():
            fake.submit_behavior = ServiceError("refused", status=0)
        client = ServiceClient(host=server.host, port=server.port, retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.submit("matmul", wait=True)
        assert excinfo.value.status == 503


# ---------------------------------------------------------------------------
# client retry ladder (satellite: backoff + jitter on connection failures)
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


# ---------------------------------------------------------------------------
# thread-mode integration: the real wiring, one real compile
# ---------------------------------------------------------------------------
class TestLocalClusterIntegration:
    def test_route_cache_peer_fetch_and_failover(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cluster = LocalCluster(
            nodes=3, base_dir=str(tmp_path / "cluster"), workers=1
        )
        with cluster:
            # 1. cold submit routes to the digest's primary owner
            record = cluster.router.submit("vector_arith", wait=True)
            assert record["state"] == "done"
            digest = cluster.router.request_for("vector_arith").digest()
            owners = [i.node_id for i in cluster.membership.owners(digest)]
            assert record["node"] == owners[0]

            # 2. repeat is a router-cache hit (no node round-trip)
            repeat = cluster.router.submit("vector_arith", wait=True)
            assert repeat["served_from"] == "router-cache"
            assert repeat["result_digest"] == record["result_digest"]

            # 3. a non-owner node asked directly peer-fetches the payload
            outsider = next(
                handle for handle in cluster.nodes
                if handle.node_id not in owners
            )
            direct = outsider.client().submit("vector_arith", wait=True)
            assert direct["result_digest"] == record["result_digest"]
            assert cluster.journal_events(grep="cluster.peer_fetch")

            # 4. kill the primary of a fresh digest → exactly one failover
            cluster.membership.stop_heartbeat()  # keep the death ours to see
            target = owners[0]
            cluster.stop_node(target)
            clock = next(
                clock for clock in range(150, 400)
                if cluster.membership.owners(
                    cluster.router.request_for(
                        "vector_arith", clock_mhz=float(clock)
                    ).digest()
                )[0].node_id == target
            )
            failed_over = cluster.router.submit(
                "vector_arith", clock_mhz=float(clock), wait=True
            )
            assert failed_over["state"] == "done"
            assert failed_over["node"] != target
            assert cluster.router.failovers == 1
            assert not cluster.membership.node(target).alive
            (event,) = cluster.journal_events(grep="cluster.failover")
            assert event["dead_node"] == target
