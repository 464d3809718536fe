"""Server groups: replicated servers draining one FIFO request queue."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.app.server import Server
from repro.errors import EnvironmentError_
from repro.sim.primitives import Store

__all__ = ["ServerGroupRuntime"]


class ServerGroupRuntime:
    """Membership and load of one replicated server group.

    The group does not own server processes — it tracks which servers are
    currently members (connected to its queue) so the monitoring layer can
    compute group load and the environment manager can maintain the
    replication count.
    """

    def __init__(self, name: str, queue: Store):
        self.name = name
        self.queue = queue
        self._members: Dict[str, Server] = {}

    # -- membership ------------------------------------------------------------
    def add(self, server: Server) -> None:
        if server.name in self._members:
            raise EnvironmentError_(f"{server.name} already in group {self.name}")
        self._members[server.name] = server

    def remove(self, server: Server) -> None:
        if server.name not in self._members:
            raise EnvironmentError_(f"{server.name} is not in group {self.name}")
        del self._members[server.name]

    def __contains__(self, server_name: str) -> bool:
        return server_name in self._members

    @property
    def members(self) -> List[Server]:
        return [self._members[k] for k in sorted(self._members)]

    @property
    def active_members(self) -> List[Server]:
        return [s for s in self.members if s.active]

    @property
    def replication(self) -> int:
        """Active replica count (the model's ``replication`` property)."""
        return len(self.active_members)

    # -- load -------------------------------------------------------------------
    @property
    def load(self) -> int:
        """Waiting requests — the paper's measured server load (Figure 9/13)."""
        return len(self.queue)

    def utilization(self, now: Optional[float] = None) -> float:
        """Mean compute utilization across active members (0 when empty)."""
        members = self.active_members
        if not members:
            return 0.0
        return sum(s.utilization(now) for s in members) / len(members)
