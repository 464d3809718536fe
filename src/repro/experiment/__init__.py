"""Experiment apparatus (substrate S16): the paper's §5 evaluation.

* :mod:`repro.experiment.testbed` — the Figure 6 dedicated testbed
  (5 routers, 11 application machines, 10 Mbps links);
* :mod:`repro.experiment.workload` — the Figure 7 stepping functions for
  bandwidth competition and request load;
* :mod:`repro.experiment.config` / :mod:`repro.experiment.params` — the
  scenario-neutral :class:`RunConfig` plus typed per-scenario parameter
  blocks (one frozen :class:`ScenarioParams` subclass per scenario);
* :mod:`repro.experiment.result` — the scenario-neutral
  :class:`RunResult` and its per-scenario subclasses;
* :mod:`repro.experiment.base` — the one scenario skeleton
  (:class:`ScenarioExperiment`, itself the
  :class:`~repro.runtime.ManagedApplication` its runtime adapts): every
  scenario below is one subclass, a small set of hooks over an intent
  table and a ground-truth table;
* :mod:`repro.experiment.scenarios` — the scenario registry (the
  built-ins plus user-registered builders with their params types);
* :mod:`repro.experiment.runner` — the paper's ``client_server``
  experiment and the caching ``run_scenario`` front door (bounded LRU
  shared by the benchmark harness and the :mod:`repro.api` facade);
* :mod:`repro.experiment.pipeline_scenario` — the batch pipeline
  (widen on backlog, narrow when idle);
* :mod:`repro.experiment.master_worker_scenario` — the task farm
  (straggler re-dispatch + pool grow/shrink);
* :mod:`repro.experiment.multi_tenant_scenario` — N tenant farms with
  per-tenant fairness invariants, the concurrent-repair showcase
  (``concurrency="disjoint"`` by default), plus its sharded variant;
* :mod:`repro.experiment.map_reduce_scenario` — shuffle skew (split
  partitions, steal work), the monitoring fan-in / batched-probe showcase;
* :mod:`repro.experiment.grid_site_scenario` — failing grid sites under
  the fault plane, the resilient-repair showcase;
* :mod:`repro.experiment.metrics` — the §5 scalar claims;
* :mod:`repro.experiment.reporting` — text rendering of each figure.
"""

from repro.experiment.testbed import Testbed, build_testbed
from repro.experiment.workload import Workload, build_workload
from repro.experiment.config import RunConfig, as_run_config
from repro.experiment.params import (
    ClientServerParams,
    PipelineParams,
    ScenarioParams,
)
from repro.experiment.result import (
    ClientServerResult,
    PipelineResult,
    RunResult,
)
from repro.experiment.series import TimeSeries
from repro.experiment.base import ScenarioExperiment
from repro.experiment.runner import (
    Experiment,
    clear_cache,
    run_scenario,
    set_cache_capacity,
)
from repro.experiment.pipeline_scenario import PipelineExperiment
from repro.experiment.scenarios import (
    Scenario,
    ScenarioEntry,
    register_scenario,
    scenario_builder,
    scenario_entries,
    scenario_entry,
    scenario_names,
    unregister_scenario,
)
from repro.experiment.master_worker_scenario import (
    MasterWorkerExperiment,
    MasterWorkerParams,
    MasterWorkerResult,
)
from repro.experiment.multi_tenant_scenario import (
    MultiTenantExperiment,
    MultiTenantParams,
    MultiTenantResult,
)
from repro.experiment.metrics import ClaimReport, extract_claims
from repro.experiment import reporting

__all__ = [
    "Testbed",
    "build_testbed",
    "Workload",
    "build_workload",
    "RunConfig",
    "as_run_config",
    "ScenarioParams",
    "ClientServerParams",
    "PipelineParams",
    "MasterWorkerParams",
    "MultiTenantParams",
    "RunResult",
    "ClientServerResult",
    "PipelineResult",
    "MasterWorkerResult",
    "MultiTenantResult",
    "TimeSeries",
    "ScenarioExperiment",
    "Experiment",
    "PipelineExperiment",
    "MasterWorkerExperiment",
    "MultiTenantExperiment",
    "run_scenario",
    "clear_cache",
    "set_cache_capacity",
    "Scenario",
    "ScenarioEntry",
    "register_scenario",
    "unregister_scenario",
    "scenario_builder",
    "scenario_entry",
    "scenario_entries",
    "scenario_names",
    "ClaimReport",
    "extract_claims",
    "reporting",
]
