"""Broadcast detection, classification and critical-path diagnosis (§3)."""

from repro.analysis.broadcast import (
    BroadcastRecord,
    BroadcastReport,
    classify_design,
    classify_netlist,
)
from repro.analysis.compare import OptimizationDelta, compare_runs, format_delta
from repro.analysis.diagnose import (
    FixChain,
    diagnose,
    fix_chain,
    format_critical_path,
    next_fix,
)
from repro.analysis.netstats import NetlistCensus, census, format_census

__all__ = [
    "BroadcastRecord",
    "BroadcastReport",
    "classify_design",
    "classify_netlist",
    "diagnose",
    "fix_chain",
    "next_fix",
    "FixChain",
    "format_critical_path",
    "census",
    "format_census",
    "NetlistCensus",
    "compare_runs",
    "format_delta",
    "OptimizationDelta",
]
