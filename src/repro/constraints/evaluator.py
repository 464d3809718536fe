"""The evaluation environment of the constraint language.

An :class:`EvalContext` is what a compiled expression
(:mod:`repro.constraints.compile`, which documents how a bare name is
resolved against it) runs against: the system, the scope element,
global bindings, the function table, and the dynamic frames the repair
DSL keeps its parameters, ``let`` bindings and ``foreach`` variables in.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.acme.elements import Element
from repro.acme.system import ArchSystem
from repro.constraints.stdlib import STDLIB

__all__ = ["EvalContext"]


class EvalContext:
    """One evaluation environment.

    ``scope`` is the element an invariant is attached to (bound as
    ``self`` unless the system itself is the scope); ``bindings`` are
    global named values; ``functions`` extend/override the stdlib —
    style operators are injected here by the repair engine.
    """

    def __init__(
        self,
        system: ArchSystem,
        scope: Optional[Element] = None,
        bindings: Optional[Dict[str, Any]] = None,
        functions: Optional[Dict[str, Callable[..., Any]]] = None,
    ):
        self.system = system
        self.scope = scope
        self.bindings = dict(bindings or {})
        self.functions: Dict[str, Callable[..., Any]] = dict(STDLIB)
        if functions:
            self.functions.update(functions)
        self._locals: List[Dict[str, Any]] = []

    def push(self, frame: Dict[str, Any]) -> None:
        self._locals.append(frame)

    def pop(self) -> None:
        self._locals.pop()

    def set_local(self, ident: str, value: Any) -> None:
        """Bind in the innermost frame (used by the repair DSL's ``let``)."""
        if not self._locals:
            self._locals.append({})
        self._locals[-1][ident] = value
