"""Flow-compilation service — latency and coalesced throughput.

Three measurements, recorded under the ``service`` key of
``BENCH_flow.json``:

* ``cold_submit_s``: one ``--wait`` submission that actually compiles
  (queue admission + worker process + store write);
* ``warm_submit_s``: the identical submission again — a pure
  content-addressed store hit, no worker spawned;
* ``coalesced``: N concurrent clients submitting the identical request
  while it is in flight — wall clock of the whole burst plus the daemon's
  own counters proving exactly one compile happened.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

from repro.service import ResultStore, ServiceClient, serve_in_thread

#: Concurrent clients in the coalescing burst.
BURST_CLIENTS = 8


def test_service_cold_warm_and_coalesced_throughput(bench_extras, tmp_path):
    store = ResultStore(str(tmp_path / "results"))
    with serve_in_thread(
        store=store,
        workers=2,
        queue_limit=32,
    ) as server:
        client = ServiceClient(server.host, server.port)
        client.wait_ready()

        start = time.perf_counter()
        cold = client.submit("matmul", config="full", wait=True)
        cold_s = time.perf_counter() - start
        assert cold["state"] == "done"
        assert cold["served_from"] == "compile"

        start = time.perf_counter()
        warm = client.submit("matmul", config="full", wait=True)
        warm_s = time.perf_counter() - start
        assert warm["submitted_as"] == "store"
        assert warm["result_digest"] == cold["result_digest"]

        # A different design point, hit concurrently by N clients: the
        # first submission compiles, the rest coalesce onto it.
        def burst_submit(_i):
            burst_client = ServiceClient(server.host, server.port)
            return burst_client.submit(
                "face_detection", config="orig", wait=True, wait_timeout_s=600
            )

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=BURST_CLIENTS) as pool:
            records = list(pool.map(burst_submit, range(BURST_CLIENTS)))
        burst_s = time.perf_counter() - start

        digests = {record["result_digest"] for record in records}
        assert len(digests) == 1  # every client got the same result
        assert all(record["state"] == "done" for record in records)

        counters = client.status()["metrics"]["counters"]
        # matmul compiled once; face_detection compiled once; everything
        # else was a coalesce or a store hit.
        assert counters["service.compiles"] == 2

        bench_extras["service"] = {
            "cold_submit_s": round(cold_s, 3),
            "warm_submit_s": round(warm_s, 6),
            "warm_speedup": round(cold_s / max(warm_s, 1e-9), 1),
            "burst_clients": BURST_CLIENTS,
            "burst_wall_s": round(burst_s, 3),
            "compiles": counters["service.compiles"],
            "coalesced": counters.get("service.coalesced", 0),
            "result_hits": counters.get("service.result_hits", 0),
        }
        # A store hit must beat a real compile by a wide margin.
        assert warm_s < cold_s
