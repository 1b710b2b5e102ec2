"""Seeded population search over ``TransformPlan × config × clock``.

The explorer grows a population from the six named configurations (so the
hand-tuned ``full`` point is always generation 0 — the search can only do
better), then mutates survivors: append an applicable transform, drop one,
retarget the clock, or switch the technique set.  Three mechanisms keep
the compile count far below the enumerated point count:

1. **Point coalescing** — proposals are keyed by
   :meth:`~repro.dse.points.DsePoint.digest`; a mutation path that
   re-derives a seen point costs nothing.
2. **Lowering coalescing** — two points whose plans lower to
   byte-identical designs under the same config and clock share one
   compile (e.g. an ``unroll`` override restating the built factor).
3. **Dominance pruning** — before compiling, a candidate's cheap signals
   (post-lowering op count and worst broadcast fanout, the paper's §3
   predictor) are compared against already-evaluated *losers* with the
   same config and clock: if some loser was no bigger and no more
   broadcast-pressured, the candidate is predicted dominated and skipped.

Everything is driven by one ``random.Random(seed)`` and all orderings are
content-digest tie-broken, so the same (design, seed, budget, backend
kind) reproduces the same search — winner digest included.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.designs import build_design
from repro.errors import ReproError
from repro.ir.transforms import TransformPlan, all_candidates
from repro.opt import CONFIG_LABELS
from repro.dse.backends import Backend, PointOutcome, make_backend
from repro.dse.points import DsePoint, PointSignals, point_signals

#: Clock-target factors mutations may retarget to (× the design's own).
CLOCK_FACTORS = (0.8, 1.0, 1.25)

#: Survivors carried into each next generation.
SURVIVORS = 3

#: Mutation proposals drawn per generation.  Deliberately larger than the
#: per-generation compile budget typically allows: surplus proposals feed
#: the dedup/coalesce/prune filters, which are free.
PROPOSALS_PER_GENERATION = 16


@dataclass
class Evaluation:
    """One point's journey through the search."""

    point: DsePoint
    digest: str
    generation: int
    status: str  # "compiled" | "coalesced" | "pruned" | "failed"
    fmax_mhz: float = 0.0
    result_digest: Optional[str] = None
    error: Optional[str] = None
    signals: Optional[PointSignals] = None

    def record(self) -> Dict[str, Any]:
        rec: Dict[str, Any] = {
            "digest": self.digest,
            "generation": self.generation,
            "status": self.status,
            "point": self.point.spec(),
            "label": self.point.config_label,
            "fmax_mhz": round(self.fmax_mhz, 3),
        }
        if self.result_digest:
            rec["result_digest"] = self.result_digest
        if self.error:
            rec["error"] = self.error
        return rec


@dataclass
class DseReport:
    """Outcome of one exploration."""

    design: str
    params: Dict[str, Any]
    seed: int
    budget: int
    backend: str
    winner: Optional[Evaluation] = None
    evaluations: List[Evaluation] = field(default_factory=list)
    enumerated: int = 0
    deduplicated: int = 0
    coalesced: int = 0
    pruned: int = 0
    compiled: int = 0
    failed: int = 0
    generations: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "design": self.design,
            "params": dict(self.params),
            "seed": self.seed,
            "budget": self.budget,
            "backend": self.backend,
            "winner": self.winner.record() if self.winner else None,
            "counters": {
                "enumerated": self.enumerated,
                "deduplicated": self.deduplicated,
                "coalesced": self.coalesced,
                "pruned": self.pruned,
                "compiled": self.compiled,
                "failed": self.failed,
                "generations": self.generations,
            },
            "evaluations": [e.record() for e in self.evaluations],
        }

    def summary(self) -> str:
        lines = [
            f"dse {self.design} seed={self.seed} budget={self.budget} "
            f"backend={self.backend}: {self.enumerated} points enumerated, "
            f"{self.compiled} compiled ({self.deduplicated} duplicate, "
            f"{self.coalesced} coalesced, {self.pruned} pruned, "
            f"{self.failed} failed) over {self.generations} generation(s)"
        ]
        if self.winner is not None:
            lines.append(
                f"winner: {self.winner.point.describe()} "
                f"Fmax={self.winner.fmax_mhz:.0f}MHz "
                f"digest={self.winner.digest[:16]}"
            )
        for ev in sorted(
            (e for e in self.evaluations if e.status == "compiled"),
            key=lambda e: (-e.fmax_mhz, e.digest),
        )[:5]:
            lines.append(
                f"  {ev.fmax_mhz:7.1f} MHz  gen{ev.generation}  "
                f"{ev.point.describe()}"
            )
        return "\n".join(lines)


class _Explorer:
    def __init__(
        self,
        design_name: str,
        params: Dict[str, Any],
        backend: Backend,
        budget: int,
        seed: int,
        clocks: Sequence[float],
    ) -> None:
        self.design_name = design_name
        self.params = dict(params)
        self.backend = backend
        self.budget = budget
        self.seed = seed
        self.rng = random.Random(seed)
        self.design = build_design(design_name, **self.params)
        base_clock = float(self.design.meta.get("clock_mhz", 300.0))
        self.clocks: Tuple[Optional[float], ...] = tuple(
            None if factor == 1.0 else round(base_clock * factor, 1)
            for factor in clocks
        )
        self.report = DseReport(
            design=design_name,
            params=self.params,
            seed=seed,
            budget=budget,
            backend=backend.name,
        )
        #: point digest → Evaluation (level-1 coalescing).
        self.seen: Dict[str, Evaluation] = {}
        #: (lowered digest, config json, clock) → Evaluation (level 2).
        self.by_lowering: Dict[Tuple, Evaluation] = {}
        #: plan digest → signals memo (plans recur across configs/clocks).
        self._signals: Dict[str, PointSignals] = {}

    # -- signals ---------------------------------------------------------
    def signals_for(self, point: DsePoint) -> Optional[PointSignals]:
        plan = point.transform_plan()
        key = plan.digest()
        if key not in self._signals:
            try:
                self._signals[key] = point_signals(self.design, plan)
            except ReproError as exc:
                # Inapplicable plan: record the failure without compiling.
                self._signals[key] = PointSignals("", -1, -1)
                self._signals[key + "/error"] = str(exc)  # type: ignore[assignment]
        sig = self._signals[key]
        return None if sig.ops < 0 else sig

    def _lowering_key(self, point: DsePoint, sig: PointSignals) -> Tuple:
        from repro.hashing import canonical_json

        return (sig.lowered_digest, canonical_json(point.config.to_json()),
                point.clock_mhz)

    # -- admission -------------------------------------------------------
    def admit(
        self, generation: int, batch: Sequence[DsePoint], limit: int
    ) -> List[Evaluation]:
        """Filter proposals down to the points worth compiling.

        Proposals past the compile ``limit`` are not consumed at all — they
        stay unseen (and uncounted), so the enumerated counter only covers
        points the search actually considered.
        """
        admitted: List[Evaluation] = []
        for point in batch:
            if len(admitted) >= limit:
                break
            self.report.enumerated += 1
            digest = point.digest()
            if digest in self.seen:
                self.report.deduplicated += 1
                continue
            sig = self.signals_for(point)
            if sig is None:
                error = self._signals.get(point.transform_plan().digest() + "/error")
                ev = Evaluation(
                    point=point,
                    digest=digest,
                    generation=generation,
                    status="failed",
                    error=str(error or "plan not applicable"),
                )
                self.seen[digest] = ev
                self.report.evaluations.append(ev)
                self.report.failed += 1
                continue
            key = self._lowering_key(point, sig)
            prior = self.by_lowering.get(key)
            if prior is not None:
                ev = Evaluation(
                    point=point,
                    digest=digest,
                    generation=generation,
                    status="coalesced",
                    fmax_mhz=prior.fmax_mhz,
                    result_digest=prior.result_digest,
                    error=prior.error,
                    signals=sig,
                )
                self.seen[digest] = ev
                self.report.evaluations.append(ev)
                self.report.coalesced += 1
                continue
            if self._dominated(point, sig):
                ev = Evaluation(
                    point=point,
                    digest=digest,
                    generation=generation,
                    status="pruned",
                    signals=sig,
                )
                self.seen[digest] = ev
                self.report.evaluations.append(ev)
                self.report.pruned += 1
                continue
            ev = Evaluation(
                point=point,
                digest=digest,
                generation=generation,
                status="compiled",
                signals=sig,
            )
            self.seen[digest] = ev
            admitted.append(ev)
        return admitted

    def _dominated(self, point: DsePoint, sig: PointSignals) -> bool:
        """Predicted no better than an evaluated loser with the same
        config and clock (cheap signals: fewer ops and lower fanout win)."""
        best = self._best()
        for ev in self.report.evaluations:
            if ev.status != "compiled" or ev.signals is None:
                continue
            if best is not None and ev.digest == best.digest:
                continue  # the incumbent's neighborhood stays explorable
            if (
                ev.point.config == point.config
                and ev.point.clock_mhz == point.clock_mhz
                and ev.signals.dominates(sig)
                and not sig.dominates(ev.signals)
            ):
                return True
        return False

    # -- evaluation ------------------------------------------------------
    def evaluate(self, admitted: List[Evaluation]) -> None:
        if not admitted:
            return
        outcomes = self.backend.evaluate(
            self.design_name,
            self.params,
            self.seed,
            [ev.point for ev in admitted],
        )
        for ev, outcome in zip(admitted, outcomes):
            self.report.compiled += 1
            if outcome.ok:
                ev.fmax_mhz = outcome.fmax_mhz
                ev.result_digest = outcome.result_digest
            else:
                ev.status = "failed"
                ev.error = outcome.error
                self.report.failed += 1
            self.report.evaluations.append(ev)
            if ev.signals is not None and ev.status == "compiled":
                self.by_lowering.setdefault(
                    self._lowering_key(ev.point, ev.signals), ev
                )

    def _best(self) -> Optional[Evaluation]:
        compiled = [
            e
            for e in self.report.evaluations
            if e.status in ("compiled", "coalesced") and e.error is None
        ]
        if not compiled:
            return None
        return min(compiled, key=lambda e: (-e.fmax_mhz, e.digest))

    # -- proposal generation ---------------------------------------------
    def generation_zero(self) -> List[DsePoint]:
        return [
            DsePoint.make(CONFIG_LABELS[label])
            for label in sorted(CONFIG_LABELS)
        ]

    def mutate(self, parent: DsePoint) -> Optional[DsePoint]:
        """One seeded mutation of ``parent`` (None = nothing applicable)."""
        moves = ["config", "clock", "add"]
        if parent.plan:
            moves.append("drop")
        move = self.rng.choice(moves)
        if move == "config":
            labels = [
                l for l in sorted(CONFIG_LABELS)
                if CONFIG_LABELS[l] != parent.config
            ]
            return DsePoint.make(
                CONFIG_LABELS[self.rng.choice(labels)],
                plan=parent.plan_spec(),
                clock_mhz=parent.clock_mhz,
            )
        if move == "clock":
            choices = [c for c in self.clocks if c != parent.clock_mhz]
            if not choices:
                return None
            return DsePoint.make(
                parent.config,
                plan=parent.plan_spec(),
                clock_mhz=self.rng.choice(choices),
            )
        if move == "drop":
            return DsePoint.make(
                parent.config,
                plan=parent.plan_spec()[:-1],
                clock_mhz=parent.clock_mhz,
            )
        # "add": extend the plan with a transform applicable to the
        # *plan-applied* design, so compositions (unroll → tile) emerge.
        try:
            transformed = parent.transform_plan().apply(self.design)
        except ReproError:
            return None
        candidates = all_candidates(transformed)
        if not candidates:
            return None
        transform = self.rng.choice(candidates)
        return DsePoint.make(
            parent.config,
            plan=parent.plan_spec() + [transform.spec()],
            clock_mhz=parent.clock_mhz,
        )

    def survivors(self) -> List[DsePoint]:
        ranked = sorted(
            (
                e
                for e in self.report.evaluations
                if e.status == "compiled" and e.error is None
            ),
            key=lambda e: (-e.fmax_mhz, e.digest),
        )
        return [e.point for e in ranked[:SURVIVORS]]

    # -- main loop -------------------------------------------------------
    def run(self, max_generations: int) -> DseReport:
        budget_left = self.budget
        batch = self.generation_zero()
        generation = 0
        while budget_left > 0 and batch:
            admitted = self.admit(generation, batch, budget_left)
            self.evaluate(admitted)
            budget_left = self.budget - self.report.compiled
            self.report.generations = generation + 1
            generation += 1
            if generation > max_generations:
                break
            parents = self.survivors()
            if not parents:
                break
            batch = []
            for _ in range(PROPOSALS_PER_GENERATION):
                parent = parents[
                    self.rng.randrange(len(parents))
                ]
                child = self.mutate(parent)
                if child is not None:
                    batch.append(child)
        self.report.winner = self._best()
        return self.report


def explore(
    design: str,
    params: Optional[Dict[str, Any]] = None,
    backend: Any = "inline",
    budget: int = 24,
    seed: int = 2020,
    max_generations: int = 8,
    clocks: Sequence[float] = CLOCK_FACTORS,
    jobs: int = 1,
    host: str = "127.0.0.1",
    port: int = 9321,
) -> DseReport:
    """Explore ``design``'s transform × config × clock space.

    Args:
        design: Registry name (see :func:`repro.designs.build_design`).
        params: Design-builder kwargs.
        backend: Backend name (``inline`` / ``engine`` / ``service``) or
            a :class:`~repro.dse.backends.Backend`.
        budget: Maximum number of flow compiles (coalesced/pruned points
            are free).
        seed: Drives the mutation stream *and* every flow compile, so a
            (design, seed, budget) triple is fully reproducible.
        max_generations: Upper bound on mutation rounds.
        clocks: Clock-retarget factors relative to the design's target.
        jobs / host / port: Backend transport knobs (engine worker count,
            service address).
    """
    backend = make_backend(backend, jobs=jobs, host=host, port=port)
    explorer = _Explorer(
        design_name=design,
        params=params or {},
        backend=backend,
        budget=int(budget),
        seed=int(seed),
        clocks=clocks,
    )
    return explorer.run(int(max_generations))
