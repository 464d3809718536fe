"""The gauge consumer: maps reports onto model properties (paper Figure 4).

``gauge.<kind>.<target>`` reports are written through a fan-out map,
``kind -> ((resolver, property), ...)``: a resolver turns the target
name into one model element, raising
:class:`~repro.errors.UnknownElementError` when it is absent.  The first
write is required; the rest are made only when their element is
present, in map order (an element before a role that mirrors it).  A
plain property name is shorthand for ``((component, name),)``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro.acme.system import ArchSystem
from repro.bus.bus import EventBus
from repro.bus.index import ROUTE_MEMO_CAP
from repro.bus.messages import Message
from repro.errors import UnknownElementError

__all__ = ["PropertyUpdater", "component"]

#: ``(system, target name) -> element``; raises UnknownElementError when absent
Resolver = Callable[[ArchSystem, str], Any]
Fanout = Tuple[Tuple[Resolver, str], ...]
#: ``(kind, target, first resolver, first property, optional writes)``
Route = Tuple[str, str, Resolver, str, Fanout]

#: the default resolver: the component named by the report's target
component: Resolver = ArchSystem.component


class PropertyUpdater:
    """Applies ``gauge.<kind>.<target>`` reports via the fan-out map.

    Reports whose kind is unmapped, whose required element is missing
    from the model (e.g. a gauge firing mid-repair for a just-removed
    element) or that carry no numeric ``value`` are counted in
    ``skipped``; every other counts once in ``applied``.

    A plane's gauges report under the same subjects forever, so each
    subject is resolved once into a route — kind, target and writes —
    and memoised (``property_map`` is read at that point: it is fixed at
    construction).  Only names and resolvers are remembered, never an
    element: each report looks its elements up afresh, so a removed one
    is skipped and a re-added one written on the very next report.  Like
    the bus trie's route memo, the table is cleared rather than grown
    past :data:`~repro.bus.index.ROUTE_MEMO_CAP` subjects.

    With a ``gate`` (a :class:`~repro.monitoring.manager.ThresholdGate`),
    every report still updates the model, but the architecture manager
    is only woken when the gate says the value crossed (or un-crossed)
    an invariant threshold — steady-state gauge ticks cost no
    constraint-evaluation work.
    """

    def __init__(
        self,
        system: ArchSystem,
        gauge_bus: EventBus,
        arch_manager=None,
        property_map: Optional[Mapping[str, Union[str, Fanout]]] = None,
        gate=None,
    ):
        self.system = system
        self.arch_manager = arch_manager
        self.property_map: Dict[str, Fanout] = {
            kind: tuple([(component, entry)] if isinstance(entry, str) else entry)
            for kind, entry in (property_map or {}).items()
        }
        self.gate = gate
        self.applied = 0
        self.skipped = 0
        self._routes: Dict[str, Route] = {}
        gauge_bus.subscribe("gauge.>", self._on_report)

    def _route(self, subject: str) -> Optional[Route]:
        """The route of a mapped three-segment subject, memoised; None
        (and nothing remembered) otherwise."""
        parts = subject.split(".")
        if len(parts) != 3:
            return None
        _, kind, target = parts
        writes = self.property_map.get(kind)
        if writes is None:
            return None
        routes = self._routes
        if len(routes) >= ROUTE_MEMO_CAP:
            routes.clear()
        resolve, prop = writes[0]
        route = routes[subject] = (kind, target, resolve, prop, writes[1:])
        return route

    def _on_report(self, message: Message) -> None:
        subject = message.subject
        route = self._routes.get(subject) or self._route(subject)
        if route is None:
            self.skipped += 1
            return
        kind, target, resolve, prop, optional = route
        system = self.system
        try:
            element = resolve(system, target)
            value = float(message.attributes["value"])
        except (UnknownElementError, KeyError, TypeError, ValueError):
            self.skipped += 1
            return
        element.set_property(prop, value)
        for resolve, prop in optional:
            try:
                element = resolve(system, target)
            except UnknownElementError:
                continue
            element.set_property(prop, value)
        self.applied += 1
        if self.arch_manager is None:
            return
        if self.gate is None or self.gate.should_wake(kind, target, value):
            self.arch_manager.evaluate()
