#!/usr/bin/env python3
"""Flow-compilation service, end to end in one script.

Starts the daemon on a private event loop (exactly what ``repro serve``
runs), then plays the three request paths against it over HTTP:

1. a **cold** submission — queued, compiled in a worker process, and the
   result written into the content-addressed store;
2. a **coalesced** burst — four clients submit the identical request at
   once, and the daemon's counters prove only one compile happened;
3. a **warm** submission — the same request once more, served straight
   from the store without spawning a worker.

Finally the result's record (fingerprint, timing report, stage journal)
is read from the store by digest — the HTTP surface only ever carries
JSON.

Run with ``PYTHONPATH=src python examples/service_demo.py``.
"""

from __future__ import annotations

import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

from repro.service import ResultStore, ServiceClient, serve_in_thread


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="repro-service-demo-")
    with serve_in_thread(
        store=ResultStore(f"{workdir}/results"),
        workers=2,
    ) as server:
        client = ServiceClient(server.host, server.port)
        client.wait_ready()
        print(f"daemon up at http://{server.host}:{server.port}\n")

        # 1. Cold: a real compile in a worker process.
        start = time.perf_counter()
        cold = client.submit("matmul", config="full", wait=True)
        print(
            f"cold submit : {cold['state']} via {cold['served_from']} "
            f"in {time.perf_counter() - start:.2f}s  "
            f"Fmax={cold['summary']['fmax_mhz']:.0f}MHz"
        )

        # 2. Coalesced: four concurrent identical submissions of a NEW
        # request share one compile.
        def submit(_i):
            return ServiceClient(server.host, server.port).submit(
                "face_detection", config="orig", wait=True
            )

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=4) as pool:
            burst = list(pool.map(submit, range(4)))
        assert len({r["result_digest"] for r in burst}) == 1
        print(
            f"burst of 4  : all done in {time.perf_counter() - start:.2f}s, "
            f"one shared result digest"
        )

        # 3. Warm: the first request again — a pure store hit.
        start = time.perf_counter()
        warm = client.submit("matmul", config="full", wait=True)
        print(
            f"warm submit : served from {warm['submitted_as']} "
            f"in {(time.perf_counter() - start) * 1e3:.1f}ms"
        )

        counters = client.status()["metrics"]["counters"]
        print(
            f"\ncounters    : compiles={counters['service.compiles']:.0f} "
            f"coalesced={counters.get('service.coalesced', 0):.0f} "
            f"result_hits={counters.get('service.result_hits', 0):.0f}"
        )

        # The store holds the result's record, addressable by digest.
        result = client.load_result(cold["digest"], store=server.service.store)
        print(
            f"rehydrated  : {result.design} [{result.config_label}] "
            f"Fmax={result.fmax_mhz:.0f}MHz, "
            f"{result.fingerprint()['cells']} cells, "
            f"critical {result.timing.path_class.value}"
        )
        assert result.result_digest() == cold["result_digest"]


if __name__ == "__main__":
    main()
