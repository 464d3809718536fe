"""Monitoring infrastructure (substrate S12): probes and gauges.

The paper's three-level scheme (Figure 4):

* **probes** observe the target system and publish raw observations on the
  probe bus (``probe.*`` subjects);
* **gauges** consume probe reports, aggregate them into model-level
  properties over time windows, and publish on the gauge reporting bus
  (``gauge.*`` subjects);
* the **gauge consumer** —
  :class:`~repro.runtime.updater.PropertyUpdater`, one per shard of the
  control plane — applies gauge reports to the architectural model and
  nudges the architecture manager to re-check constraints.

Gauge lifecycle (creation/deletion cost, redeployment on repair) is owned
by the :class:`GaugeManager`; the translator calls ``redeploy_for`` during
repairs, which blanks the affected gauges for the redeployment window —
the paper's dominant repair cost and monitoring blind spot.
"""

from repro.monitoring.probes import (
    ClientLatencyProbe,
    BandwidthProbe,
    UtilizationProbe,
    CallbackProbe,
    IngestProbe,
)
from repro.monitoring.gauges import (
    Gauge,
    WindowedMeanGauge,
    EwmaGauge,
    LatestValueGauge,
)
from repro.monitoring.manager import GaugeManager, ThresholdGate, WakeThreshold

__all__ = [
    "ClientLatencyProbe",
    "BandwidthProbe",
    "UtilizationProbe",
    "CallbackProbe",
    "IngestProbe",
    "Gauge",
    "WindowedMeanGauge",
    "EwmaGauge",
    "LatestValueGauge",
    "GaugeManager",
    "ThresholdGate",
    "WakeThreshold",
]
