"""Physical design model: devices, placement, net delay, replication, STA.

This package is the reproduction's stand-in for Vivado place & route plus
silicon measurement.  It is deterministic (seeded) and deliberately simple,
but it captures the two mechanisms the paper's analysis rests on:

1. net delay grows with the *spatial spread* of a net's sinks and with its
   *fanout* — so broadcast structures are slow;
2. the backend can replicate registers to cut the fanout term but can never
   remove the spread term, and cannot touch single-cycle combinational
   control paths at all — so behaviour-level (HLS) fixes are required.
"""

from repro.physical.device import DEVICES, Device
from repro.physical.fabric import Fabric
from repro.physical.placement import Placement, Placer
from repro.physical.replication import ReplicationConfig, replicate_high_fanout
from repro.physical.timing import TimingAnalyzer, TimingResult

__all__ = [
    "Device",
    "DEVICES",
    "Fabric",
    "Placer",
    "Placement",
    "ReplicationConfig",
    "replicate_high_fanout",
    "TimingAnalyzer",
    "TimingResult",
]
