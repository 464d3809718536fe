"""The reusable adaptation control plane (the paper's Figure 1, extracted).

Wraps the monitoring -> gauges -> model -> constraints -> repair ->
translation loop behind two small surfaces:

* :class:`AdaptationSpec` — declarative description of one scenario's
  control plane (style, DSL, thresholds, probe/gauge bindings, policies),
  its monitoring written as a table :func:`monitoring_table` expands;
* :class:`ManagedApplication` — the three-method protocol an application
  implements to become adaptable (model snapshot, intent executor,
  optional runtime view).

:class:`AdaptationRuntime` builds and owns the whole stack from those
two; :mod:`repro.experiment.scenarios` registers named scenarios on top.
"""

from repro.runtime.app import IntentExecutor, ManagedApplication
from repro.runtime.core import AdaptationRuntime
from repro.runtime.sharding import (
    ShardingSpec,
    register_shard_key,
    resolve_shard_key,
    shard_key_names,
)
from repro.runtime.spec import (
    AdaptationSpec,
    GaugeBinding,
    InstrumentBinding,
    ProbeBinding,
    monitoring_table,
)
from repro.runtime.stats import RuntimeStats, ShardStats
from repro.runtime.updater import PropertyUpdater

__all__ = [
    "AdaptationRuntime",
    "AdaptationSpec",
    "GaugeBinding",
    "InstrumentBinding",
    "IntentExecutor",
    "ManagedApplication",
    "ProbeBinding",
    "PropertyUpdater",
    "RuntimeStats",
    "ShardStats",
    "ShardingSpec",
    "register_shard_key",
    "resolve_shard_key",
    "shard_key_names",
    "monitoring_table",
]
