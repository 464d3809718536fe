"""Deterministic shortest-path routing.

Hop-count shortest paths with lexicographic tie-breaking, computed by BFS
and cached per topology version.  The experiment's testbed is static, so
routes are effectively computed once: the links of each queried pair are
memoised the first time they are asked for and dropped with the BFS
parents when the topology's version moves.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import NoRouteError
from repro.net.topology import Link, Topology

__all__ = ["RoutingTable"]


class RoutingTable:
    """All-pairs shortest paths over a :class:`Topology`."""

    def __init__(self, topology: Topology):
        self.topology = topology
        self._version = -1
        self._parent: Dict[str, Dict[str, Optional[str]]] = {}
        self._links: Dict[Tuple[str, str], Tuple[Link, ...]] = {}

    def _refresh(self) -> None:
        if self._version == self.topology.version:
            return
        self._parent = {}
        self._links = {}
        for node in self.topology.nodes:
            self._parent[node.name] = self._bfs(node.name)
        self._version = self.topology.version

    def _bfs(self, source: str) -> Dict[str, Optional[str]]:
        """Parent pointers for shortest paths from ``source``.

        Neighbors are explored in sorted order (Topology keeps adjacency
        sorted), so equal-length paths resolve identically on every run.
        """
        parent: Dict[str, Optional[str]] = {source: None}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            for v in self.topology.neighbors(u):
                if v not in parent:
                    parent[v] = u
                    frontier.append(v)
        return parent

    def path(self, src: str, dst: str) -> List[str]:
        """Node sequence from ``src`` to ``dst`` inclusive.

        Raises :class:`NoRouteError` when unreachable.  A self-path is
        ``[src]`` (co-located entities talk through local IPC: no links).
        """
        self.topology.node(src)
        self.topology.node(dst)
        if src == dst:
            return [src]
        self._refresh()
        parents = self._parent[src]
        if dst not in parents:
            raise NoRouteError(f"no route from {src!r} to {dst!r}")
        # Walk back from dst to src.
        rev = [dst]
        while rev[-1] != src:
            nxt = parents[rev[-1]]
            assert nxt is not None
            rev.append(nxt)
        return list(reversed(rev))

    def links_on_path(self, src: str, dst: str) -> List[Link]:
        """The links of :meth:`path`, in order; a fresh list on every call."""
        self._refresh()
        links = self._links.get((src, dst))
        if links is None:
            nodes = self.path(src, dst)
            links = tuple(self.topology.link(a, b) for a, b in zip(nodes, nodes[1:]))
            self._links[src, dst] = links
        return list(links)

    def hop_count(self, src: str, dst: str) -> int:
        return len(self.path(src, dst)) - 1
