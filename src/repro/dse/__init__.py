"""Design-space exploration over ``TransformPlan × config × clock``.

Public surface:

* :func:`~repro.dse.search.explore` — the seeded population search;
* :class:`~repro.dse.search.DseReport` — its deterministic result;
* :class:`~repro.dse.points.DsePoint` / :func:`~repro.dse.points.point_signals`
  — the explored coordinates and their cheap pre-compile signals;
* :func:`~repro.dse.backends.make_backend` and the three backend classes —
  inline flow, multiprocessing engine, flow service.
"""

from repro.dse.backends import (
    BACKEND_NAMES,
    Backend,
    EngineBackend,
    InlineBackend,
    PointOutcome,
    ServiceBackend,
    make_backend,
)
from repro.dse.points import POINT_SCHEMA, DsePoint, PointSignals, point_signals
from repro.dse.search import DseReport, Evaluation, explore

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "DsePoint",
    "DseReport",
    "EngineBackend",
    "Evaluation",
    "InlineBackend",
    "POINT_SCHEMA",
    "PointOutcome",
    "PointSignals",
    "ServiceBackend",
    "explore",
    "make_backend",
    "point_signals",
]
