"""repro.calib — in-sim LogP calibration.

The calibration harness closes the loop the paper's cost accounting
opens: the simulator is *configured* with LogP-grade constants
(overheads, NI service budgets, link rates), and this package
re-*measures* them from observed behaviour — span traces of sweeps over
(node-pair × message-size × pattern) cells on the canonical topologies —
fits the constants by least squares, and round-trips the fit against the
closed-form configured model.  Divergence beyond tolerance is a hard
failure, which turns the entire stack's timing model (sim kernel, NI
firmware, SBus DMA engine, fat-tree fabric, express path) into a
CI-gated correctness property.  The host overheads are measured by the
same code as Figure 3's (:func:`repro.bench.logp.overheads`).

Quickstart::

    PYTHONPATH=src python -m repro bench calib --smoke   # CI gate
    PYTHONPATH=src python -m repro bench calib           # full sweep
"""

from .fitter import LogPFit, Observation, fit_constants
from .model import ConfiguredLogP, configured_model
from .sweep import CalibCell, fit_cells, run_cell

__all__ = [
    "Observation",
    "LogPFit",
    "fit_constants",
    "ConfiguredLogP",
    "configured_model",
    "CalibCell",
    "fit_cells",
    "run_cell",
]
