"""Generic parameter sweeps over designs and optimization configs.

The paper's figures are all sweeps (unroll factor, buffer size, pipeline
iterations); this utility generalizes them so users can produce the same
kind of curve for their own designs::

    from repro.experiments.sweep import sweep
    rows = sweep("stream_buffer", "depth", [1 << 15, 1 << 17, 1 << 19],
                 configs={"orig": BASELINE, "full": FULL})
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.engine import Engine, FlowJob
from repro.flow import Flow, FlowResult
from repro.ir.program import Design
from repro.opt import BASELINE, FULL, OptimizationConfig

Builder = Union[str, Callable[..., Design]]

DEFAULT_CONFIGS: Dict[str, OptimizationConfig] = {"orig": BASELINE, "full": FULL}


@dataclass
class SweepRow:
    """Results for one parameter value across the swept configs."""

    value: object
    results: Dict[str, FlowResult] = field(default_factory=dict)

    def fmax(self, config: str) -> float:
        return self.results[config].fmax_mhz


@dataclass
class SweepResult:
    design: str
    param: str
    rows: List[SweepRow] = field(default_factory=list)

    def series(self, config: str) -> List[float]:
        return [row.fmax(config) for row in self.rows]

    def crossover(self, better: str, worse: str) -> Optional[object]:
        """First parameter value where ``better`` overtakes ``worse``."""
        for row in self.rows:
            if row.fmax(better) > row.fmax(worse):
                return row.value
        return None


def sweep(
    builder: Builder,
    param: str,
    values: Sequence[object],
    configs: Optional[Dict[str, OptimizationConfig]] = None,
    flow: Optional[Flow] = None,
    engine: Optional[Engine] = None,
    **fixed_params,
) -> SweepResult:
    """Run every (value, config) combination.

    ``builder`` is a registry name or a callable returning a
    :class:`Design`; ``param`` is passed as a keyword to it.  Registry-name
    sweeps fan out over a parallel ``engine``'s workers; callable builders
    run inline (arbitrary closures are not shipped to worker processes).

    Stage-artifact reuse (see :mod:`repro.pipeline`): every run, inline
    or in a worker process, reads and writes the flow's stage store
    (``$REPRO_CACHE_DIR/stages`` by default), so per-value the config runs
    reuse their common front-end (pragma lowering in particular) and
    identical sweep points are served outright.  Off when the flow's
    ``stage_cache`` is disabled.
    """
    configs = configs or DEFAULT_CONFIGS
    engine = engine or Engine(flow=flow)
    name = builder if isinstance(builder, str) else getattr(builder, "__name__", "design")
    result = SweepResult(design=str(name), param=param)
    if isinstance(builder, str):
        jobs = [
            FlowJob.make(
                builder, config, tag=label, **{param: value}, **fixed_params
            )
            for value in values
            for label, config in configs.items()
        ]
        flat = engine.run_flows(jobs)
        per_row = len(configs)
        for i, value in enumerate(values):
            row = SweepRow(value=value)
            for j, label in enumerate(configs):
                row.results[label] = flat[per_row * i + j]
            result.rows.append(row)
        return result
    for value in values:
        row = SweepRow(value=value)
        for label, config in configs.items():
            design = builder(**{param: value}, **fixed_params)
            row.results[label] = engine.flow.run(design, config)
        result.rows.append(row)
    return result


def format_sweep(result: SweepResult) -> str:
    configs = list(result.rows[0].results) if result.rows else []
    header = f"{result.param:>12s} " + " ".join(f"{c:>12s}" for c in configs)
    lines = [f"sweep of {result.design!r} over {result.param}:", header]
    for row in result.rows:
        lines.append(
            f"{str(row.value):>12s} "
            + " ".join(f"{row.fmax(c):12.0f}" for c in configs)
        )
    return "\n".join(lines)
