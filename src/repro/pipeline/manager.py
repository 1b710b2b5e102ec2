"""The pass manager: executes the stage DAG with content-addressed skips.

For every stage, in order:

1. open the stage's observability span (so every entry point — CLI,
   engine, service — gets the identical trace skeleton);
2. compute the stage's params and chain its input digest from the digests
   of the keys it consumes;
3. look the digest up in the on-disk :class:`StageArtifactStore` (shared
   across runs, processes and sessions);
4. on a hit: defer loading the stored outputs until something reads them
   (a later skipped stage usually supersedes them first), replay the
   stored span snapshot (attrs, counters, gauges, histogram samples, child
   spans — see :mod:`repro.obs.snapshot`), mark the span ``cached`` and
   count ``pipeline.stages_skipped``;
5. on a miss: run the stage, snapshot its span, and store the pickled
   output bundle *immediately* — before any later stage can mutate the
   live objects in place — counting ``pipeline.stages_run``.  A
   sidecar-only checkpoint (:attr:`Stage.sidecar_only
   <repro.pipeline.stage.Stage.sidecar_only>`) stores an empty bundle:
   the next stage re-binds every key it produces, so nothing loads it.

Every output key then inherits the stage's digest, which is how a change
invalidates exactly the downstream stages that transitively consume it —
unless the stage supplies a *content* digest for the key (early cutoff,
:meth:`Stage.content_digests <repro.pipeline.stage.Stage.content_digests>`):
a re-run stage that reproduced byte-identical outputs then invalidates
nothing downstream.  Content digests are computed and chained exactly when
a store is set; without one nothing is looked up, so nothing is hashed.

Before returning, the manager checks every output still deferred, without
unpickling it: the entry's sidecar must list the key, and its payload must
read, decompress (zlib's checksum catches a torn file) and carry this
schema's header.  The verified bytes stay with the entry, so the outputs
survive a later eviction, and they unpickle on first read — which, for the
heavy fields of a :class:`~repro.flow.FlowResult`, is after the run.  An
entry that cannot serve a key — a sidecar-only checkpoint whose successor
missed (``Flow(retime=False)`` over a store a default flow filled), or a
payload that fails to read, decompress, carry the header or (when a stage
reads it) unpickle — makes the manager discard the attempt and run the
stages again with that entry treated as a miss.  When the entry is a
sidecar-only checkpoint, every sidecar-only entry the attempt hit is
denied with it, so that case takes one retry.  A denied entry stays
denied for the rest of the run even after its stage rewrote it, so the
journal reports every damaged stage as ``run``.  Once a retry has
started, every hit's payload is verified at lookup, and one that fails is
denied and re-run inside that attempt, so a store whose entries are all
damaged costs one retry, not one per damaged entry.  Entries are
content-addressed, so a retry reads the same digests and every retry
denies at least one more of them: the loop ends.
The retry drops the failed attempt's stage spans, so a run still reports
one span, one journal record and one ``stage.hit``/``stage.miss`` event
per stage; the events are emitted from the journal once the run is
served, so a run that raises emits none.

The manager also keeps a journal — one record per stage with its digest,
whether it ran or was skipped, and where the hit came from.  The journal
rides on :attr:`FlowResult.journal <repro.flow.FlowResult.journal>`; the
service surfaces it per job, which is how the resume smoke proves a
retried worker picked up from its dead predecessor's checkpoints.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import ReproError
from repro.pipeline.digest import design_digest
from repro.pipeline.stage import Stage
from repro.pipeline.store import (
    STAGE_STORE_SCHEMA,
    StageArtifactStore,
    decode_outputs,
    encode_outputs,
)

#: Journal ``action`` values.
ACTION_RUN = "run"
ACTION_SKIPPED = "skipped"


class _Unloadable(ReproError):
    """A deferred store entry could not supply a key the run read."""

    def __init__(self, digest: str) -> None:
        super().__init__(f"stage-store entry {digest[:12]} cannot serve its outputs")
        self.digest = digest


class _Deferred:
    """A store hit whose outputs are unpickled on first read.

    :meth:`verify` reads and decompresses the payload (zlib's checksum
    catches a torn file) and checks its header, then keeps the verified
    bytes, so a later eviction of the entry cannot take them away.
    :meth:`load` unpickles those bytes.  Pickling a ``_Deferred`` (a
    :class:`~repro.flow.FlowResult` shipped from an engine worker) carries
    the verified bytes, not the path.
    """

    __slots__ = ("digest", "meta", "stage", "keys", "_hit", "_data")

    def __init__(self, hit: Any) -> None:
        self.digest = hit.digest
        #: The sidecar (span snapshot, content digests); not pickled.
        self.meta: Dict[str, Any] = hit.meta
        self.stage = hit.stage
        #: The keys the bundle holds, as its sidecar lists them.
        self.keys = frozenset(hit.outputs)
        self._hit = hit
        self._data: Optional[bytes] = None

    def verify(self) -> None:
        if self._data is None:
            try:
                self._data = self._hit.read()
            except (OSError, zlib.error, ReproError) as exc:
                # gone, torn (zlib's checksum), or another schema's header
                raise _Unloadable(self.digest) from exc
            self._hit = None

    def load(self) -> Dict[str, Any]:
        self.verify()
        try:
            return decode_outputs(self._data)
        except Exception as exc:  # a pickle that no longer unpickles
            raise _Unloadable(self.digest) from exc

    def __getstate__(self) -> Tuple[str, str, frozenset, bytes]:
        self.verify()
        return self.digest, self.stage, self.keys, self._data

    def __setstate__(self, state: Tuple[str, str, frozenset, bytes]) -> None:
        self.digest, self.stage, self.keys, self._data = state
        self.meta, self._hit = {}, None


def _restore_context(
    values: Dict[str, Any], pending: Dict[str, _Deferred]
) -> "_LazyContext":
    ctx = _LazyContext(values)
    ctx._pending.update(pending)
    return ctx


class _LazyContext(dict):
    """Context dict that unpickles skipped-stage outputs on first read.

    A store hit used to unpickle its output bundle immediately; on a warm
    re-run where most stages skip, most of those bundles are superseded by
    a later stage's bundle before anyone reads them (three stages bundle
    ``lowered``, two bundle ``gen``), and most of the rest are never
    read by the caller at all.  Deferring the unpickle to the first actual
    read makes a fully-warm run pay only for what it reads: the
    :class:`~repro.flow.FlowResult` of a warm run unpickles the small
    timing and ii-analysis bundles its fingerprint needs, and keeps a
    :meth:`subset` of this context for the heavy fields, which unpickle
    when first read — after the run, in the caller.

    ``defer`` registers a :class:`_Deferred` entry as the pending producer
    of a set of keys; any read of such a key loads the bundle once and
    materializes every key still pending on that entry.  A later write (a
    stage that ran, or a newer skipped producer) simply supersedes the
    pending entry.  An entry that fails to load, or whose sidecar does not
    list the key (a sidecar-only checkpoint), raises :class:`_Unloadable`.
    Reads are thread-safe: two threads reading one pending key get one
    object.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._pending: Dict[str, _Deferred] = {}
        self._lock = threading.Lock()
        #: Stage names of the bundles this context unpickled, in order.
        self.loaded: List[str] = []

    def defer(self, keys: Sequence[str], entry: _Deferred) -> None:
        for key in keys:
            super().pop(key, None)
            self._pending[key] = entry

    def _materialize(self, key: str) -> None:
        if key not in self._pending:
            return
        with self._lock:
            entry = self._pending.get(key)
            if entry is None:  # another thread materialized it meanwhile
                return
            if key not in entry.keys:
                raise _Unloadable(entry.digest)
            outputs = entry.load()
            if key not in outputs:
                raise _Unloadable(entry.digest)
            self.loaded.append(entry.stage)
            for name, value in outputs.items():
                if self._pending.get(name) is entry:
                    # Bind before un-pending: a lock-free reader sees
                    # either the pending entry or the value.
                    super().__setitem__(name, value)
                    del self._pending[name]

    def _materialize_all(self) -> None:
        for key in list(self._pending):
            self._materialize(key)

    def verify_pending(self) -> None:
        """Check, without unpickling, that every still-pending entry can
        serve its keys: its sidecar lists them, and its payload reads,
        decompresses and carries the right header."""
        for key, entry in list(self._pending.items()):
            if key not in entry.keys:
                raise _Unloadable(entry.digest)
            entry.verify()

    def subset(self, keys: Sequence[str]) -> "_LazyContext":
        """A new context holding only ``keys``: their values, or their
        still-pending entries (which keep their verified bytes)."""
        sub = _LazyContext()
        for key in keys:
            if key in self._pending:
                sub._pending[key] = self._pending[key]
            elif super().__contains__(key):
                dict.__setitem__(sub, key, super().__getitem__(key))
        return sub

    def __reduce__(self):
        # Ship pending entries as their verified bytes; the lock and the
        # load log stay behind.
        return _restore_context, (dict(super().items()), dict(self._pending))

    def __getitem__(self, key: str) -> Any:
        self._materialize(key)
        return super().__getitem__(key)

    def get(self, key: str, default: Any = None) -> Any:
        self._materialize(key)
        return super().get(key, default)

    def __contains__(self, key: object) -> bool:
        return super().__contains__(key) or key in self._pending

    def __setitem__(self, key: str, value: Any) -> None:
        self._pending.pop(key, None)
        super().__setitem__(key, value)

    def update(self, *args: Any, **kwargs: Any) -> None:  # type: ignore[override]
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    # Whole-dict views must see pending values too.
    def keys(self):  # type: ignore[override]
        self._materialize_all()
        return super().keys()

    def values(self):  # type: ignore[override]
        self._materialize_all()
        return super().values()

    def items(self):  # type: ignore[override]
        self._materialize_all()
        return super().items()


class PassManager:
    """Executes a stage list over a shared context dict.

    Args:
        stages: The stages, in DAG order (see
            :func:`repro.pipeline.stages.build_stages`).
        store: On-disk artifact store, or ``None`` to disable stage reuse
            (and early cutoff with it).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        store: Optional[StageArtifactStore] = None,
    ) -> None:
        self.stages = list(stages)
        self.store = store

    def _lookup(self, digest: str, denied: Set[str]) -> Optional[_Deferred]:
        if digest in denied:
            return None
        hit = self.store.get(digest)
        if hit is None:
            return None
        entry = _Deferred(hit)
        if denied:
            # A retry has started, so damaged entries seldom come alone:
            # verify now, and each one is a miss in this attempt rather
            # than the cause of the next.
            try:
                entry.verify()
            except _Unloadable as exc:
                obs.emit_event(
                    "stage.unloadable", digest=digest, error=repr(exc.__cause__)
                )
                denied.add(digest)
                return None
        return entry

    def execute(
        self, flow, config, ctx: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Run the pipeline; returns ``(ctx, journal)``.

        ``ctx`` must hold the ``design`` (and any flow-level scalars stages
        parameterize on, e.g. ``clock_ns``).  The returned context holds
        those entries plus every stage's outputs; outputs of skipped
        stages that nothing read yet stay deferred (verified, not yet
        unpickled) until their first read.
        """
        tracer = obs.current_tracer()
        caching = self.store is not None
        if caching and not isinstance(tracer, obs.Tracer):
            # Untraced run that will store artifacts: activate a private
            # tracer so every artifact still carries a replayable span
            # snapshot (stage internals report through the *active*
            # tracer) — a later, traced warm run replays the producer's
            # attrs and counters from it.
            with obs.activate(obs.Tracer()) as shadow:
                return self._execute(shadow, flow, config, ctx, caching)
        return self._execute(tracer, flow, config, ctx, caching)

    def _execute(
        self, tracer, flow, config, ctx: Dict[str, Any], caching: bool
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        """Attempt the run until every read is served (see module doc)."""
        parent = getattr(tracer, "active_span", None)
        spans = parent.children if parent is not None else tracer.roots
        mark = len(spans)
        denied: Set[str] = set()
        while True:
            sidecar_hits: List[str] = []
            try:
                served, journal = self._attempt(
                    tracer, flow, config, _LazyContext(ctx), caching,
                    denied, sidecar_hits,
                )
                break
            except _Unloadable as exc:
                if exc.digest in denied:
                    raise  # a denied digest never hits: do not loop on it
                obs.emit_event(
                    "stage.unloadable",
                    digest=exc.digest,
                    error=repr(exc.__cause__) if exc.__cause__ else None,
                )
                denied.add(exc.digest)
                if exc.digest in sidecar_hits:
                    # Its reader missed, so the sidecar-only checkpoints
                    # before it cannot serve either: deny them all at once
                    # rather than one retry each.
                    denied.update(sidecar_hits)
                del spans[mark:]
        # Stage cache events come from the attempt that served the run: a
        # discarded attempt's hits never did.
        for record in journal:
            if record["cacheable"] and caching:
                obs.emit_event(
                    "stage.hit"
                    if record["action"] == ACTION_SKIPPED
                    else "stage.miss",
                    stage=record["stage"],
                    digest=record["digest"],
                    # the journal's source (the "source" kwarg names the
                    # emitter)
                    cache=record["source"],
                    duration_ms=record["duration_ms"],
                )
        return served, journal

    def _attempt(
        self,
        tracer,
        flow,
        config,
        ctx: _LazyContext,
        caching: bool,
        denied: Set[str],
        sidecar_hits: List[str],
    ) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
        journal: List[Dict[str, Any]] = []
        key_digests: Dict[str, str] = {"design": design_digest(ctx["design"])}
        for stage in self.stages:
            started = time.perf_counter()
            with tracer.span(stage.name) as span:
                params = stage.params(flow, config, ctx)
                digest = stage.input_digest(params, key_digests)
                hit = source = None
                if stage.cacheable and caching:
                    hit = self._lookup(digest, denied)
                if hit is not None:
                    source = "disk"
                    if stage.sidecar_only:
                        sidecar_hits.append(digest)
                    # Defer the unpickle: a later skipped stage often
                    # supersedes these keys before anyone reads them, and
                    # the caller seldom reads the rest, in which case this
                    # bundle is never loaded at all.
                    ctx.defer(stage.outputs, hit)
                    content: Dict[str, str] = dict(hit.meta.get("content") or {})
                    obs.replay_span(span, hit.meta.get("span") or {})
                    span.set("cached", True)
                    tracer.add("pipeline.stages_skipped")
                    action = ACTION_SKIPPED
                else:
                    outputs = dict(stage.run(flow, config, ctx, span) or {})
                    ctx.update(outputs)
                    payload = None
                    if stage.cacheable and caching:
                        # Snapshot and pickle *now*: later stages mutate
                        # these objects in place (scheduling edits loop
                        # bodies, replication rewrites the netlist), and
                        # the stored artifact must be this stage's view.
                        payload = encode_outputs(
                            stage.name, {} if stage.sidecar_only else outputs
                        )
                    # Early cutoff: chain each output key from its *content*
                    # digest where the stage can provide one, so a re-run
                    # that reproduced identical outputs invalidates nothing
                    # downstream.  Computed now — before any later stage
                    # mutates the live objects in place — and stored in the
                    # artifact sidecar so a skip can chain the same digests
                    # without loading outputs.
                    content = {}
                    if caching:
                        content = (
                            stage.content_digests(
                                flow, config, ctx, outputs, payload
                            )
                            or {}
                        )
                    if payload is not None:
                        self.store.put(
                            digest,
                            payload,
                            {
                                "schema": STAGE_STORE_SCHEMA,
                                "stage": stage.name,
                                "outputs": []
                                if stage.sidecar_only
                                else sorted(outputs),
                                "span": obs.snapshot_span(span),
                                "content": content,
                            },
                        )
                    tracer.add("pipeline.stages_run")
                    action = ACTION_RUN
            for key in stage.outputs:
                key_digests[key] = content.get(key, digest)
            duration_ms = round((time.perf_counter() - started) * 1e3, 3)
            journal.append(
                {
                    "stage": stage.name,
                    "digest": digest,
                    "action": action,
                    "source": source,
                    "cacheable": stage.cacheable,
                    "duration_ms": duration_ms,
                    "content_keys": sorted(content),
                }
            )
        # Check what is still deferred now, so an entry that cannot serve
        # it fails inside this attempt, not in the caller; unpickling waits
        # for the first read.
        ctx.verify_pending()
        return ctx, journal
