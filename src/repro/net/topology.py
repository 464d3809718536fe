"""Network topology: hosts, routers, and capacity links.

Links are undirected with a single shared capacity (all flows crossing the
link in either direction share it).  This matches the paper's shared-medium
10 Mbps testbed closely enough: the interesting contention is response and
competition traffic flowing the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import NetworkError

__all__ = ["Node", "Link", "Topology"]


@dataclass(frozen=True)
class Node:
    """A network endpoint: ``kind`` is ``"host"`` or ``"router"``."""

    name: str
    kind: str = "host"

    def __post_init__(self) -> None:
        if self.kind not in ("host", "router"):
            raise NetworkError(
                f"node kind must be 'host' or 'router', got {self.kind!r}"
            )
        if not self.name:
            raise NetworkError("node name must be non-empty")


def _canon(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass
class Link:
    """Undirected link with capacity in bits/second.

    ``capacity`` may be changed at runtime (tests use this); the flow engine
    must be told to recompute afterwards.  ``key`` is the canonical endpoint
    pair, built once: the flow engine and the topology index links by it.
    """

    a: str
    b: str
    capacity: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise NetworkError(f"self-link on {self.a!r}")
        if self.capacity <= 0:
            raise NetworkError(f"link capacity must be positive, got {self.capacity}")
        self.key = _canon(self.a, self.b)  # not a dataclass field: ==, repr unchanged
        self.a, self.b = self.key


class Topology:
    """A mutable undirected graph of :class:`Node` and :class:`Link`."""

    def __init__(self, name: str = "net"):
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adj: Dict[str, List[str]] = {}
        self.version = 0  # bumped on structural change; routing caches key on it

    # -- construction ---------------------------------------------------------
    def add_node(self, name: str, kind: str = "host") -> Node:
        if name in self._nodes:
            raise NetworkError(f"duplicate node {name!r}")
        node = Node(name, kind)
        self._nodes[name] = node
        self._adj[name] = []
        self.version += 1
        return node

    def add_host(self, name: str) -> Node:
        return self.add_node(name, "host")

    def add_router(self, name: str) -> Node:
        return self.add_node(name, "router")

    def add_link(self, a: str, b: str, capacity: float) -> Link:
        for n in (a, b):
            if n not in self._nodes:
                raise NetworkError(f"unknown node {n!r}; add nodes before links")
        key = _canon(a, b)
        if key in self._links:
            raise NetworkError(f"duplicate link {key}")
        link = Link(a, b, float(capacity))
        self._links[key] = link
        self._adj[a].append(b)
        self._adj[b].append(a)
        # Deterministic neighbor order regardless of insertion order.
        self._adj[a].sort()
        self._adj[b].sort()
        self.version += 1
        return link

    # -- queries ---------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        return [self._nodes[k] for k in sorted(self._nodes)]

    @property
    def links(self) -> List[Link]:
        return [self._links[k] for k in sorted(self._links)]

    @property
    def hosts(self) -> List[Node]:
        return [n for n in self.nodes if n.kind == "host"]

    @property
    def routers(self) -> List[Node]:
        return [n for n in self.nodes if n.kind == "router"]

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[_canon(a, b)]
        except KeyError:
            raise NetworkError(f"no link between {a!r} and {b!r}") from None

    def neighbors(self, name: str) -> List[str]:
        if name not in self._adj:
            raise NetworkError(f"unknown node {name!r}")
        return list(self._adj[name])

    def validate(self) -> None:
        """Check structural sanity: connected, hosts have degree >= 1."""
        if not self._nodes:
            raise NetworkError("empty topology")
        # connectivity via BFS from an arbitrary node
        start = next(iter(sorted(self._nodes)))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt: List[str] = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        missing = sorted(set(self._nodes) - seen)
        if missing:
            raise NetworkError(f"topology is disconnected; unreachable: {missing}")
