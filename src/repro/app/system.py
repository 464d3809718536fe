"""The assembled grid application: placement, wiring, statistics."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.app.client import Client
from repro.app.request_queue import RequestQueueService
from repro.app.server import Server
from repro.app.server_group import ServerGroupRuntime
from repro.errors import EnvironmentError_
from repro.net.flows import FlowNetwork
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace

__all__ = ["GridApplication"]


class GridApplication:
    """Registry and wiring for clients, servers, groups, and the RQ machine.

    ``placement`` below refers to mapping application entities onto testbed
    machines (topology host names); the Figure 6 builder in
    :mod:`repro.experiment.testbed` performs the paper's placement,
    including the shared machines (C1+C2, C5+C6, S5+RQ).
    """

    def __init__(
        self,
        sim: Simulator,
        network: FlowNetwork,
        rq_machine: str,
        trace: Optional[Trace] = None,
    ):
        self.sim = sim
        self.network = network
        self.trace = trace if trace is not None else Trace()
        self.rq = RequestQueueService(sim, machine=rq_machine)
        self.clients: Dict[str, Client] = {}
        self.servers: Dict[str, Server] = {}
        self.groups: Dict[str, ServerGroupRuntime] = {}

    # -- construction -------------------------------------------------------------
    def add_client(self, client: Client) -> Client:
        if client.name in self.clients:
            raise EnvironmentError_(f"duplicate client {client.name!r}")
        if not self.network.topology.has_node(client.machine):
            raise EnvironmentError_(
                f"client {client.name} placed on unknown machine {client.machine!r}"
            )
        self.clients[client.name] = client
        client.connect(self.rq.accept)
        return client

    def add_server(self, server: Server) -> Server:
        if server.name in self.servers:
            raise EnvironmentError_(f"duplicate server {server.name!r}")
        if not self.network.topology.has_node(server.machine):
            raise EnvironmentError_(
                f"server {server.name} placed on unknown machine {server.machine!r}"
            )
        self.servers[server.name] = server
        server.bind_client_resolver(self.client)
        return server

    def create_group(self, name: str) -> ServerGroupRuntime:
        """Create a server group and its request queue (Table 1 createReqQueue)."""
        if name in self.groups:
            raise EnvironmentError_(f"duplicate server group {name!r}")
        queue = self.rq.create_queue(name)
        group = ServerGroupRuntime(name, queue)
        self.groups[name] = group
        return group

    # -- lookups --------------------------------------------------------------------
    def client(self, name: str) -> Client:
        try:
            return self.clients[name]
        except KeyError:
            raise EnvironmentError_(f"unknown client {name!r}") from None

    def server(self, name: str) -> Server:
        try:
            return self.servers[name]
        except KeyError:
            raise EnvironmentError_(f"unknown server {name!r}") from None

    def group(self, name: str) -> ServerGroupRuntime:
        try:
            return self.groups[name]
        except KeyError:
            raise EnvironmentError_(f"unknown server group {name!r}") from None

    def group_of_server(self, server_name: str) -> Optional[ServerGroupRuntime]:
        for g in self.groups.values():
            if server_name in g:
                return g
        return None

    def machine_of(self, entity: str) -> str:
        """Machine hosting a client, server, or the RQ service."""
        if entity in self.clients:
            return self.clients[entity].machine
        if entity in self.servers:
            return self.servers[entity].machine
        if entity == "RQ":
            return self.rq.machine
        raise EnvironmentError_(f"unknown entity {entity!r}")

    @property
    def spare_servers(self) -> List[Server]:
        """Registered servers not currently active in any group."""
        return [
            s for name, s in sorted(self.servers.items())
            if not s.active and self.group_of_server(name) is None
        ]

    # -- execution --------------------------------------------------------------------
    def start_clients(self, horizon: float) -> None:
        for name in sorted(self.clients):
            self.clients[name].start(horizon)

    # -- aggregate statistics --------------------------------------------------------------
    @property
    def total_issued(self) -> int:
        return sum(c.issued for c in self.clients.values())

    @property
    def total_completed(self) -> int:
        return sum(c.received for c in self.clients.values())

    def group_load(self, group: str) -> int:
        return self.group(group).load

    def bandwidth_between(self, client_name: str, group_name: str) -> float:
        """Predicted bandwidth client <-> group: min over active servers.

        Requests are dispatched FIFO to *any* group member, so the worst
        member path bounds the service a client can rely on; the repair
        preconditions and ``findGoodSGroup`` use this definition.
        """
        client = self.client(client_name)
        members = self.group(group_name).active_members
        if not members:
            return 0.0
        return min(
            self.network.predicted_bandwidth(s.machine, client.machine)
            for s in members
        )
