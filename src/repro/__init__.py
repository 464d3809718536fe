"""repro — reproduction of *Software Architecture-Based Adaptation for Grid
Computing* (Cheng, Garlan, Schmerl, Steenkiste, Hu; HPDC 2002).

Public surface re-exported here; see README.md for a tour and DESIGN.md for
the system inventory.  Subpackages:

* ``repro.sim`` / ``repro.bus`` / ``repro.net`` / ``repro.app`` — the
  simulated runtime layer (testbed, network, application, Table 1 ops);
* ``repro.acme`` / ``repro.constraints`` / ``repro.styles`` — architectural
  models, the constraint language, and the client/server style;
* ``repro.monitoring`` — probes and gauges;
* ``repro.repair`` — strategies, tactics, the Figure 5 DSL, the engine;
* ``repro.translation`` — the model/runtime bridge;
* ``repro.runtime`` — the reusable adaptation control plane
  (AdaptationRuntime built from a declarative AdaptationSpec around a
  ManagedApplication);
* ``repro.analysis`` — design-time queuing analysis;
* ``repro.experiment`` — the Figure 6/7 apparatus, the scenario
  registry (typed RunConfig + per-scenario params), and runners;
* ``repro.api`` / ``repro.cli`` — the scenario-neutral facade and the
  ``python -m repro`` command line on top of it.
"""

from repro.acme import ArchSystem, Component, Connector, Family
from repro.analysis import MMcQueue, required_servers
from repro.app import EnvironmentManager, GridApplication
from repro.bus import EventBus, Message
from repro.constraints import ConstraintChecker, Invariant, parse_expression
from repro.errors import ReproError
from repro.experiment import (
    RunConfig,
    RunResult,
    ScenarioParams,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.monitoring import GaugeManager
from repro.net import FlowNetwork, RemosService, Topology
from repro.repair import ArchitectureManager, ModelTransaction, parse_repair_dsl
from repro.runtime import (
    AdaptationRuntime,
    AdaptationSpec,
    GaugeBinding,
    ManagedApplication,
    ProbeBinding,
    PropertyUpdater,
    monitoring_table,
)
from repro.sim import Process, Simulator
from repro.styles import (
    FIGURE5_DSL,
    build_client_server_family,
    build_client_server_model,
    style_operators,
)
from repro.translation import TranslationCosts, Translator
from repro import api

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # model layer
    "ArchSystem",
    "Component",
    "Connector",
    "Family",
    "ConstraintChecker",
    "Invariant",
    "parse_expression",
    "ArchitectureManager",
    "ModelTransaction",
    "parse_repair_dsl",
    "FIGURE5_DSL",
    "build_client_server_family",
    "build_client_server_model",
    "style_operators",
    # runtime layer
    "Simulator",
    "Process",
    "EventBus",
    "Message",
    "Topology",
    "FlowNetwork",
    "RemosService",
    "GridApplication",
    "EnvironmentManager",
    # bridging layers
    "GaugeManager",
    "PropertyUpdater",
    "Translator",
    "TranslationCosts",
    # adaptation control plane
    "AdaptationRuntime",
    "AdaptationSpec",
    "GaugeBinding",
    "ManagedApplication",
    "ProbeBinding",
    "monitoring_table",
    # analysis + experiments
    "MMcQueue",
    "required_servers",
    "RunConfig",
    "RunResult",
    "ScenarioParams",
    "run_scenario",
    "register_scenario",
    "scenario_names",
    "api",
]
