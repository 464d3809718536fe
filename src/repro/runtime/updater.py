"""Style-agnostic gauge consumer: maps reports onto model properties.

The client/server scenario keeps its specialised
:class:`~repro.monitoring.consumers.ModelUpdater` (it also mirrors values
onto link connectors and roles, which Figure 5's ``badRole`` needs).  Every
other style can use this generic consumer: ``gauge.<kind>.<target>``
reports set ``property_map[kind]`` on the model component named
``<target>``, then nudge the architecture manager to re-evaluate.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.acme.system import ArchSystem
from repro.bus.bus import EventBus
from repro.bus.index import ROUTE_MEMO_CAP
from repro.bus.messages import Message
from repro.errors import UnknownElementError

__all__ = ["PropertyUpdater"]


class PropertyUpdater:
    """Applies ``gauge.<kind>.<target>`` reports via a kind -> property map.

    Reports whose kind is unmapped, whose target is missing from the
    model (e.g. a gauge firing mid-repair for a just-removed element) or
    that carry no numeric ``value`` are counted and skipped, like the
    client/server updater.

    A plane's gauges report under the same subjects forever, so the
    route of a subject — ``(kind, target, property)`` — is worked out
    once and memoised (``property_map`` is read at that point: it is
    fixed at construction).  Only names are remembered, never the
    component: each report looks its target up afresh, so a removed
    element is skipped and a re-added one written on the very next
    report.  Like the bus trie's route memo, the table is cleared rather
    than grown past :data:`~repro.bus.index.ROUTE_MEMO_CAP` subjects.

    With a ``gate`` (a :class:`~repro.monitoring.manager.ThresholdGate`),
    every report still updates the model property, but the architecture
    manager is only woken when the gate says the value crossed (or
    un-crossed) an invariant threshold — steady-state gauge ticks cost no
    constraint-evaluation work.
    """

    def __init__(
        self,
        system: ArchSystem,
        gauge_bus: EventBus,
        arch_manager=None,
        property_map: Optional[Mapping[str, str]] = None,
        gate=None,
    ):
        self.system = system
        self.arch_manager = arch_manager
        self.property_map = dict(property_map or {})
        self.gate = gate
        self.applied = 0
        self.skipped = 0
        self._routes: Dict[str, Tuple[str, str, str]] = {}
        gauge_bus.subscribe("gauge.>", self._on_report)

    def _route(self, subject: str) -> Optional[Tuple[str, str, str]]:
        """``(kind, target, property)`` for a mapped three-segment
        subject, memoised; None (and nothing remembered) otherwise."""
        parts = subject.split(".")
        if len(parts) != 3:
            return None
        _, kind, target = parts
        prop = self.property_map.get(kind)
        if prop is None:
            return None
        routes = self._routes
        if len(routes) >= ROUTE_MEMO_CAP:
            routes.clear()
        route = routes[subject] = (kind, target, prop)
        return route

    def _on_report(self, message: Message) -> None:
        subject = message.subject
        route = self._routes.get(subject) or self._route(subject)
        if route is None:
            self.skipped += 1
            return
        kind, target, prop = route
        try:
            component = self.system.component(target)
            value = float(message.attributes["value"])
        except (UnknownElementError, KeyError, TypeError, ValueError):
            self.skipped += 1
            return
        component.set_property(prop, value)
        self.applied += 1
        if self.arch_manager is None:
            return
        if self.gate is None or self.gate.should_wake(kind, target, value):
            self.arch_manager.evaluate()
