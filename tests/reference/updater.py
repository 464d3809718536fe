"""The client/server gauge consumer ``PropertyUpdater`` replaced.

``ModelUpdater`` was the paper scenario's own updater beside the
generic one: it split every subject, dispatched through
``getattr(self, f"_apply_{kind}")`` and memoised nothing.  Its four
appliers are now the fan-out table ``GAUGE_PROPERTY_MAP`` in
:mod:`repro.experiment.runner`.  The class is kept here verbatim, so
``tests/test_updater_fanout_oracle.py`` can drive both with the same
report streams and compare every model write.
"""

from __future__ import annotations

from repro.acme.system import ArchSystem
from repro.bus.bus import EventBus
from repro.bus.messages import Message
from repro.styles.client_server import link_name

__all__ = ["ModelUpdater"]


class ModelUpdater:
    """Maps ``gauge.*`` reports onto model properties.

    Mapping (client/server style):

    =======================  ==========================================
    gauge.latency.<client>    <client>.averageLatency and the client
                              role's averageLatency (Figure 5's badRole)
    gauge.bandwidth.<client>  link_<client>.bandwidth and the client
                              role's bandwidth
    gauge.load.<group>        <group>.load
    gauge.utilization.<group> <group>.utilization
    =======================  ==========================================

    Reports about entities missing from the model (e.g. a gauge firing
    mid-repair for a just-removed element) are counted and skipped.
    """

    def __init__(
        self,
        system: ArchSystem,
        gauge_bus: EventBus,
        arch_manager=None,
    ):
        self.system = system
        self.arch_manager = arch_manager
        self.applied = 0
        self.skipped = 0
        gauge_bus.subscribe("gauge.>", self._on_report)

    def _on_report(self, message: Message) -> None:
        parts = message.subject.split(".")
        if len(parts) != 3:
            self.skipped += 1
            return
        _, kind, target = parts
        value = float(message["value"])
        handler = getattr(self, f"_apply_{kind}", None)
        if handler is None or not handler(target, value):
            self.skipped += 1
            return
        self.applied += 1
        if self.arch_manager is not None:
            self.arch_manager.evaluate()

    # -- per-kind appliers ---------------------------------------------------
    def _apply_latency(self, client: str, value: float) -> bool:
        if not self.system.has_component(client):
            return False
        self.system.component(client).set_property("averageLatency", value)
        link = link_name(client)
        if self.system.has_connector(link):
            conn = self.system.connector(link)
            if conn.has_role("client"):
                conn.role("client").set_property("averageLatency", value)
        return True

    def _apply_bandwidth(self, client: str, value: float) -> bool:
        link = link_name(client)
        if not self.system.has_connector(link):
            return False
        conn = self.system.connector(link)
        conn.set_property("bandwidth", value)
        if conn.has_role("client"):
            conn.role("client").set_property("bandwidth", value)
        return True

    def _apply_load(self, group: str, value: float) -> bool:
        if not self.system.has_component(group):
            return False
        self.system.component(group).set_property("load", value)
        return True

    def _apply_utilization(self, group: str, value: float) -> bool:
        if not self.system.has_component(group):
            return False
        self.system.component(group).set_property("utilization", value)
        return True
