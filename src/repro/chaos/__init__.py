"""repro.chaos — deterministic chaos testing of the virtual-network stack.

The paper's delivery model (Section 3.2) is a *contract*: transient
transport and reconfiguration errors are masked, serious conditions come
back as return-to-sender, and delivery is exactly once.  This package
attacks the simulated system with seeded fault schedules and audits the
contract from the :mod:`repro.obs` trace:

* :mod:`~repro.chaos.schedule` — seeded generation of well-formed fault
  scenarios (loss/corruption ramps, spine and host-link flaps,
  crash/reboot storms, process kills/stalls, forced endpoint eviction);
* :mod:`~repro.chaos.workloads` — fault-tolerant traffic shapes
  (pairwise request/reply, bulk transfer, client/server);
* :mod:`~repro.chaos.invariants` — the trace-driven delivery-contract
  checker (resolution, exactly-once, per-channel order) plus direct
  end-state quiescence inspection;
* :mod:`~repro.chaos.runner` — deterministic execution: same (seed,
  scenario, workload) ⇒ bit-identical event timeline and digest; and
  :func:`~repro.chaos.run_modes`, the mode-equivalence oracle that runs
  one cell on every (kernel, express path, spin elision) mode and flags
  any disagreement.

Quick start::

    from repro.chaos import ScheduleGenerator, run_chaos

    gen = ScheduleGenerator(7, num_hosts=8, num_spines=4,
                            num_procs=4, num_eps=4)
    report = run_chaos(gen.generate("crash_storm"), "client_server")
    assert report.ok, report.violations
"""

from .invariants import (DeliveryChecker, IsolationSLO, Violation,
                         check_isolation, check_quiescence)
from .runner import MODES, ChaosReport, chaos_config, run_chaos, run_modes
from .schedule import (PROFILES, SCENARIO_FAMILIES, FaultAction, Scenario,
                       ScheduleGenerator, calm_scenario)
from .workloads import (WORKLOADS, BulkWorkload, ChaosWorkload,
                        ClientServerWorkload, CollectiveWorkload,
                        PairwiseWorkload, make_workload)

__all__ = [
    "FaultAction", "Scenario", "ScheduleGenerator", "SCENARIO_FAMILIES", "PROFILES",
    "calm_scenario",
    "ChaosWorkload", "PairwiseWorkload", "BulkWorkload", "ClientServerWorkload",
    "CollectiveWorkload", "WORKLOADS", "make_workload",
    "DeliveryChecker", "Violation", "check_quiescence",
    "IsolationSLO", "check_isolation",
    "ChaosReport", "MODES", "chaos_config", "run_chaos", "run_modes",
]
