"""Evaluation backends for the design-space explorer.

A backend turns a batch of :class:`~repro.dse.points.DsePoint` into
observed Fmax numbers.  All three run the *same* flow code path — the
explorer's results are backend-independent, only wall-clock and placement
differ:

* :class:`InlineBackend` — a :class:`~repro.flow.Flow` in this process
  (warm stage store, no pickling; the default);
* :class:`EngineBackend` — the multiprocessing experiment engine
  (:class:`repro.engine.pool.Engine`), one worker per ``--jobs``;
* :class:`ServiceBackend` — a single-node flow service
  (:class:`~repro.service.client.ServiceClient`): submissions coalesce
  with whatever else the daemon is compiling, and results persist in its
  store.

A failed compile is *data*, not an abort: the point comes back with
``error`` set and the search treats it as dominated by everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.designs import build_design
from repro.engine.jobs import FlowFailure, FlowJob
from repro.errors import ReproError
from repro.flow import Flow
from repro.dse.points import DsePoint

#: Names accepted by :func:`make_backend` (the CLI's ``--backend``).
BACKEND_NAMES = ("inline", "engine", "service")


@dataclass
class PointOutcome:
    """What evaluating one point produced."""

    point: DsePoint
    fmax_mhz: float = 0.0
    result_digest: Optional[str] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


class Backend:
    """Batch evaluator protocol."""

    name = "backend"

    def evaluate(
        self,
        design: str,
        params: Dict[str, Any],
        seed: int,
        batch: Sequence[DsePoint],
    ) -> List[PointOutcome]:
        raise NotImplementedError


class InlineBackend(Backend):
    """Evaluate points with a flow in this process."""

    name = "inline"

    def __init__(self, flow: Optional[Flow] = None) -> None:
        self.flow = flow

    def evaluate(self, design, params, seed, batch):
        if self.flow is None:
            self.flow = Flow(seed=seed)
        built = build_design(design, **params)
        outcomes: List[PointOutcome] = []
        for point in batch:
            try:
                result = self.flow.run(
                    built,
                    point.config,
                    plan=point.transform_plan(),
                    clock_mhz=point.clock_mhz,
                )
            except ReproError as exc:
                outcomes.append(PointOutcome(point=point, error=str(exc)))
                continue
            outcomes.append(
                PointOutcome(
                    point=point,
                    fmax_mhz=result.fmax_mhz,
                    result_digest=result.result_digest(),
                )
            )
        return outcomes


class EngineBackend(Backend):
    """Evaluate a batch across engine worker processes."""

    name = "engine"

    def __init__(self, jobs: int = 1, flow: Optional[Flow] = None) -> None:
        self.jobs = jobs
        self.flow = flow

    def evaluate(self, design, params, seed, batch):
        from repro.engine.pool import Engine

        engine = Engine(jobs=self.jobs, flow=self.flow or Flow(seed=seed))
        flow_jobs = [
            FlowJob.make(
                design,
                point.config,
                plan=point.plan_spec(),
                clock_mhz=point.clock_mhz,
                tag=point.digest(),
                **params,
            )
            for point in batch
        ]
        results = engine.run_flows(flow_jobs, collect_errors=True)
        outcomes: List[PointOutcome] = []
        for point, result in zip(batch, results):
            if isinstance(result, FlowFailure):
                outcomes.append(PointOutcome(point=point, error=result.error))
            else:
                outcomes.append(
                    PointOutcome(
                        point=point,
                        fmax_mhz=result.fmax_mhz,
                        result_digest=result.result_digest(),
                    )
                )
        return outcomes


def _outcome_from_record(point: DsePoint, record: Dict[str, Any]) -> PointOutcome:
    summary = record.get("summary") or {}
    if record.get("state") == "failed" or "fmax_mhz" not in summary:
        return PointOutcome(
            point=point, error=str(record.get("error") or "no result")
        )
    return PointOutcome(
        point=point,
        fmax_mhz=float(summary["fmax_mhz"]),
        result_digest=record.get("result_digest"),
    )


class ServiceBackend(Backend):
    """Evaluate points through one flow-service daemon."""

    name = "service"

    def __init__(self, client) -> None:
        self.client = client

    def evaluate(self, design, params, seed, batch):
        from repro.service.client import ServiceError

        outcomes: List[PointOutcome] = []
        for point in batch:
            try:
                record = self.client.submit(
                    design,
                    config=point.config.to_json(),
                    params=dict(params),
                    seed=seed,
                    clock_mhz=point.clock_mhz,
                    plan=point.plan_spec(),
                    wait=True,
                )
            except ServiceError as exc:
                outcomes.append(PointOutcome(point=point, error=str(exc)))
                continue
            outcomes.append(_outcome_from_record(point, record))
        return outcomes


def make_backend(
    spec: Any = "inline",
    jobs: int = 1,
    host: str = "127.0.0.1",
    port: int = 9321,
    flow: Optional[Flow] = None,
) -> Backend:
    """Materialize a backend from a name (the CLI) or pass one through."""
    if isinstance(spec, Backend):
        return spec
    name = str(spec or "inline").strip().lower()
    if name == "inline":
        return InlineBackend(flow=flow)
    if name == "engine":
        return EngineBackend(jobs=jobs, flow=flow)
    if name == "service":
        from repro.service.client import ServiceClient

        return ServiceBackend(ServiceClient(host=host, port=port))
    raise ReproError(
        f"unknown DSE backend {spec!r}; valid backends: {', '.join(BACKEND_NAMES)}"
    )
