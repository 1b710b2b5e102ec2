"""repro — reproduction of "Analysis and Optimization of the Implicit
Broadcasts in FPGA HLS to Improve Maximum Frequency" (DAC 2020).

Public API tour:

* Build designs with :mod:`repro.ir` (:class:`DFGBuilder`, :class:`Design`,
  :class:`Loop`, :class:`Buffer`, :class:`Fifo`) or load one of the paper's
  nine benchmarks from :mod:`repro.designs`.
* Run the end-to-end HLS → placement → timing flow with :class:`Flow`,
  selecting paper techniques via :class:`OptimizationConfig` presets
  (:data:`BASELINE`, :data:`FULL`, :data:`DATA_ONLY`, ...).
* Inspect broadcasts with :mod:`repro.analysis` and regenerate every table
  and figure of the paper from :mod:`repro.experiments`.
* Capture per-stage traces and metrics of any run with :mod:`repro.obs`
  (``obs.Tracer`` + ``obs.activate``), and export them as Chrome traces or
  machine-readable run reports.
"""

from repro import obs
from repro.flow import Flow, FlowResult
from repro.opt import (
    BASELINE,
    CTRL_ONLY,
    DATA_ONLY,
    FULL,
    SKID_NAIVE,
    OptimizationConfig,
)
from repro.control.styles import ControlStyle
from repro.ir import (
    DFG,
    Buffer,
    DataType,
    Design,
    DFGBuilder,
    Fifo,
    Kernel,
    Loop,
    Opcode,
    Operation,
    Value,
)
from repro.delay import (
    CalibratedDelayModel,
    CalibrationTable,
    HlsDelayModel,
    build_default_calibration,
)
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "obs",
    "Flow",
    "FlowResult",
    "OptimizationConfig",
    "BASELINE",
    "FULL",
    "DATA_ONLY",
    "CTRL_ONLY",
    "SKID_NAIVE",
    "ControlStyle",
    "DFG",
    "DFGBuilder",
    "DataType",
    "Design",
    "Kernel",
    "Loop",
    "Buffer",
    "Fifo",
    "Opcode",
    "Operation",
    "Value",
    "HlsDelayModel",
    "CalibratedDelayModel",
    "CalibrationTable",
    "build_default_calibration",
    "ReproError",
    "__version__",
]
