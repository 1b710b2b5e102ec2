"""Peer-fetch result store: local miss → download from the digest's owner.

Each cluster node keeps its *own* result store (sharded by the ring), but
any node can be asked for any digest — a router failing over, a client
pinned to one node, a rebalanced ring.  :class:`PeerResultStore` makes
that transparent: a local :meth:`get` miss consults the digest's owner
replicas over ``GET /result/<digest>``, checks the downloaded result
record (:meth:`ResultStore.put_bytes`: JSON only, the fingerprint must
hash to the record's result digest and the request to the digest
asked for), installs it locally (write-through, atomic), and serves the
hit — so a digest compiled anywhere is a *local* hit everywhere it is
requested twice.  Peer bytes are data: nothing fetched is unpickled.

The daemon's own ``/result`` route reads through :meth:`ResultStore.get_bytes`,
which never consults peers — peer fetch cannot recurse or storm the fleet.
Fetches are deliberately synchronous and bounded (one attempt per owner,
short timeout): a dead peer costs one connect timeout and the caller
falls back to compiling, which is always correct.

Counters: ``cluster.peer_hits`` / ``cluster.peer_misses`` /
``cluster.peer_fetch_errors`` in the process registry; every fetch also
lands in the event journal as ``cluster.peer_fetch``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro import obs
from repro.obs.journal import EventJournal, emit_event
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ResultStore, StoredResult

#: Peer fetches race against "just compile it instead": keep the
#: worst-case stall (owner died between heartbeats) well under a compile.
DEFAULT_FETCH_TIMEOUT_S = 5.0


class PeerResultStore(ResultStore):
    """A :class:`ResultStore` whose misses consult the ring owners.

    ``owners_for`` maps a digest to candidate ``(host, port)`` peers —
    normally ``Membership.owners`` minus this node.  The store stays a
    drop-in replacement: the daemon calls plain ``get``/``put`` and never
    learns whether a hit was local or fetched.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        max_entries: Optional[int] = None,
        node_id: str = "",
        owners_for: Optional[Callable[[str], List]] = None,
        fetch_timeout_s: float = DEFAULT_FETCH_TIMEOUT_S,
        journal: Optional[EventJournal] = None,
    ) -> None:
        kwargs = {} if max_entries is None else {"max_entries": max_entries}
        super().__init__(root=root, **kwargs)
        self.node_id = node_id
        self.owners_for = owners_for
        self.fetch_timeout_s = fetch_timeout_s
        self.journal = journal
        self.peer_hits = 0
        self.peer_misses = 0
        self.peer_fetch_errors = 0

    def _emit(self, event: str, **fields: Any) -> None:
        if self.journal is not None:
            try:
                self.journal.emit(event, **fields)
            except OSError:
                pass
        else:
            emit_event(event, **fields)

    def get(self, digest: str) -> Optional[StoredResult]:
        hit = super().get(digest)
        if hit is not None or self.owners_for is None:
            return hit
        return self.fetch_from_peers(digest)

    # -- network side ----------------------------------------------------
    def _peer_client(self, host: str, port: int) -> ServiceClient:
        return ServiceClient(
            host=host, port=port, timeout=self.fetch_timeout_s, retries=0
        )

    def fetch_from_peers(self, digest: str) -> Optional[StoredResult]:
        """Try each owner replica once; install and return the first valid
        record.  Every outcome is observable but none is fatal — a miss
        just means the caller compiles."""
        registry = obs.global_registry()
        for info in self.owners_for(digest):
            node_id = getattr(info, "node_id", None)
            if node_id == self.node_id:
                continue  # our own miss is authoritative
            try:
                payload = self._peer_client(info.host, info.port).get_result_bytes(
                    digest
                )
            except ServiceError:
                self.peer_fetch_errors += 1
                registry.add("cluster.peer_fetch_errors")
                continue
            if payload is None:
                continue
            entry = self.put_bytes(digest, payload)
            if entry is None:  # not a valid record for digest; try next owner
                self.peer_fetch_errors += 1
                registry.add("cluster.peer_fetch_errors")
                continue
            self.peer_hits += 1
            registry.add("cluster.peer_hits")
            self._emit(
                "cluster.peer_fetch",
                digest=digest,
                node_id=self.node_id,
                peer=node_id,
                bytes=len(payload),
            )
            return entry
        self.peer_misses += 1
        registry.add("cluster.peer_misses")
        return None
