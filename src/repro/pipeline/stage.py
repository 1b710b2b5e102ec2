"""The Stage protocol of the staged pass pipeline.

A stage is one step of the flow DAG with an explicit data contract:

* ``inputs`` — the context keys it reads (``"design"``, ``"lowered"``,
  ``"gen"``, ...);
* ``outputs`` — the keys it (re)binds.  Outputs that alias mutated inputs
  are declared too: scheduling re-binds ``lowered`` because broadcast-aware
  scheduling edits loop bodies in place, and its stored artifact must
  bundle the edited design with the schedules that point into it;
* ``params`` — everything else that can change the result (clock period,
  seeds, config knobs, calibration identity);
* ``cacheable`` — stages with environment-dependent behavior (calibration
  resolution) opt out of artifact storage while still participating in
  digest chaining;
* ``sidecar_only`` — stages whose every output key the next stage re-binds
  (placement, spreading, replication) store a *sidecar-only checkpoint*:
  the span snapshot and content digests, with an empty output bundle.
  Nothing loads their outputs on a warm run; a run that would is retried
  with the checkpoint treated as a miss (see
  :mod:`repro.pipeline.manager`).

:meth:`Stage.input_digest` is the content identity used by the
:class:`~repro.pipeline.manager.PassManager`: stage name + version +
params + the digests of the consumed keys.  Because every output key
inherits the digest of the stage that produced it, a change propagates to
exactly the downstream stages that (transitively) consume it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.errors import ReproError
from repro.hashing import content_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flow import Flow
    from repro.opt import OptimizationConfig

#: Version tag of the stage digest recipe.
STAGE_DIGEST_SCHEMA = "repro-stage-digest/1"


class Stage:
    """One step of the flow pipeline.  Subclasses override the class
    attributes and :meth:`run` (plus :meth:`params` when parameterized)."""

    #: Stage name — also the observability span name.
    name: str = "stage"
    #: Bump when the stage's algorithm changes output-relevantly; stored
    #: artifacts from older versions then stop matching.
    version: int = 1
    #: Context keys consumed.
    inputs: Tuple[str, ...] = ()
    #: Context keys produced/re-bound.
    outputs: Tuple[str, ...] = ()
    #: Whether the manager may store/skip this stage.
    cacheable: bool = True
    #: Whether its stored entry keeps only the sidecar (empty bundle).  A
    #: property of the DAG, not a setting.  Necessary: its successor
    #: re-binds all its outputs.  Also needed: that successor seldom
    #: misses while this stage hits, since every such run reads a key the
    #: entry's sidecar does not list, and retries.  ``pragmas`` meets the first rule (sync-pruning
    #: re-binds ``lowered``) but not the second: the second run of every
    #: ``Flow.compare`` hits pragmas and misses sync-pruning.
    sidecar_only: bool = False

    def params(
        self, flow: "Flow", config: "OptimizationConfig", ctx: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Digest-relevant parameters (canonical-JSON-able values only)."""
        return {}

    def run(
        self, flow: "Flow", config: "OptimizationConfig", ctx: Dict[str, Any], span
    ) -> Dict[str, Any]:
        """Execute the stage; returns the output bindings."""
        raise NotImplementedError

    def content_digests(
        self,
        flow: "Flow",
        config: "OptimizationConfig",
        ctx: Dict[str, Any],
        outputs: Dict[str, Any],
        payload: Optional[bytes],
    ) -> Dict[str, str]:
        """Content digests of (a subset of) this stage's outputs.

        ``payload`` is the pickled bundle the manager stores for this run
        (``None`` when nothing is stored), so a stage can hash it rather
        than pickle its outputs a second time.

        Salsa-style early cutoff: whenever a stage store is in use, the
        manager chains each output key's digest from the *content* returned
        here instead of the stage's provenance digest.  A stage that re-ran
        (new inputs) but produced byte-identical outputs then leaves every
        downstream digest unchanged, so the whole downstream cone replays
        from the artifact store — e.g. a clock bump that changes no
        scheduling decision skips rtl-gen through timing.

        Only return a digest for a key when it covers **everything** any
        downstream stage reads from that output; keys omitted here fall
        back to provenance chaining (always sound, merely conservative).
        """
        return {}

    def input_digest(
        self, params: Dict[str, Any], key_digests: Dict[str, str]
    ) -> str:
        """The content identity of this stage execution."""
        try:
            inputs = {key: key_digests[key] for key in self.inputs}
        except KeyError as exc:
            raise ReproError(
                f"stage {self.name!r} consumes {exc.args[0]!r} but no "
                f"earlier stage produced it (have: {sorted(key_digests)})"
            ) from None
        return content_digest(
            {
                "schema": STAGE_DIGEST_SCHEMA,
                "stage": self.name,
                "version": self.version,
                "params": params,
                "inputs": inputs,
            }
        )
