"""Unit tests for topology and routing."""

import dataclasses

import pytest

from repro.errors import NetworkError, NoRouteError
from repro.net import Link, RoutingTable, Topology


def line_topology():
    """h1 -- r1 -- r2 -- h2, plus h3 hanging off r1."""
    t = Topology()
    t.add_host("h1")
    t.add_host("h2")
    t.add_host("h3")
    t.add_router("r1")
    t.add_router("r2")
    t.add_link("h1", "r1", 10e6)
    t.add_link("r1", "r2", 10e6)
    t.add_link("r2", "h2", 10e6)
    t.add_link("h3", "r1", 10e6)
    return t


class TestTopology:
    def test_node_kinds(self):
        t = line_topology()
        assert {n.name for n in t.hosts} == {"h1", "h2", "h3"}
        assert {n.name for n in t.routers} == {"r1", "r2"}

    def test_duplicate_node_rejected(self):
        t = Topology()
        t.add_host("a")
        with pytest.raises(NetworkError):
            t.add_host("a")

    def test_bad_kind_rejected(self):
        t = Topology()
        with pytest.raises(NetworkError):
            t.add_node("x", kind="switch")

    def test_link_requires_known_nodes(self):
        t = Topology()
        t.add_host("a")
        with pytest.raises(NetworkError):
            t.add_link("a", "b", 1e6)

    def test_duplicate_link_rejected(self):
        t = line_topology()
        with pytest.raises(NetworkError):
            t.add_link("r1", "h1", 1e6)  # same link, reversed endpoints

    def test_self_link_rejected(self):
        t = Topology()
        t.add_host("a")
        with pytest.raises(NetworkError):
            t.add_link("a", "a", 1e6)

    def test_nonpositive_capacity_rejected(self):
        t = Topology()
        t.add_host("a")
        t.add_host("b")
        with pytest.raises(NetworkError):
            t.add_link("a", "b", 0.0)

    def test_link_lookup_symmetric(self):
        t = line_topology()
        assert t.link("h1", "r1") is t.link("r1", "h1")

    def test_neighbors_sorted(self):
        t = line_topology()
        assert t.neighbors("r1") == ["h1", "h3", "r2"]

    def test_validate_connected(self):
        t = line_topology()
        t.validate()  # no raise

    def test_validate_detects_disconnection(self):
        t = line_topology()
        t.add_host("island")
        with pytest.raises(NetworkError):
            t.validate()

    def test_unknown_node_lookup(self):
        t = line_topology()
        with pytest.raises(NetworkError):
            t.node("nope")


class TestLinkContract:
    """What the flow engine's index leans on: ``key`` is stored, and nothing
    else about ``Link`` moved when it stopped being a property."""

    def test_constructor_canonicalises_endpoints(self):
        link = Link("b", "a", 5e6)
        assert (link.a, link.b, link.capacity) == ("a", "b", 5e6)
        assert link.key == ("a", "b")
        assert Link(a="a", b="b", capacity=5e6) == link

    def test_key_is_not_a_field(self):
        assert [f.name for f in dataclasses.fields(Link)] == ["a", "b", "capacity"]
        with pytest.raises(TypeError):
            Link("a", "b", 5e6, ("a", "b"))

    def test_equality_includes_capacity(self):
        assert Link("a", "b", 1e6) == Link("b", "a", 1e6)
        assert Link("a", "b", 1e6) != Link("a", "b", 2e6)
        link = Link("a", "b", 1e6)
        link.capacity = 2e6  # tests and experiments mutate it
        assert link == Link("a", "b", 2e6) and link.key == ("a", "b")


class TestRouting:
    def test_shortest_path(self):
        t = line_topology()
        r = RoutingTable(t)
        assert r.path("h1", "h2") == ["h1", "r1", "r2", "h2"]
        assert r.hop_count("h1", "h2") == 3

    def test_self_path(self):
        t = line_topology()
        r = RoutingTable(t)
        assert r.path("h1", "h1") == ["h1"]
        assert r.links_on_path("h1", "h1") == []

    def test_links_on_path(self):
        t = line_topology()
        r = RoutingTable(t)
        links = r.links_on_path("h1", "h3")
        assert [link.key for link in links] == [("h1", "r1"), ("h3", "r1")]

    def test_links_on_path_returns_a_list_the_caller_may_mutate(self):
        t = line_topology()
        r = RoutingTable(t)
        links = r.links_on_path("h1", "h2")
        assert type(links) is list and len(links) == 3
        links.clear()
        again = r.links_on_path("h1", "h2")
        assert [link.key for link in again] == [
            ("h1", "r1"),
            ("r1", "r2"),
            ("h2", "r2"),
        ]
        assert all(link is t.link(*link.key) for link in again)
        local = r.links_on_path("h1", "h1")
        local.append("scribble")
        assert r.links_on_path("h1", "h1") == []

    def test_remembered_links_are_dropped_when_a_link_is_added(self):
        t = line_topology()
        r = RoutingTable(t)
        assert len(r.links_on_path("h1", "h2")) == 3
        t.add_link("h1", "h2", 1e6)  # a shortcut
        assert [link.key for link in r.links_on_path("h1", "h2")] == [("h1", "h2")]
        assert r.hop_count("h1", "h2") == 1

    def test_unknown_node_is_refused_every_time(self):
        r = RoutingTable(line_topology())
        for _ in range(2):
            with pytest.raises(NetworkError):
                r.links_on_path("h1", "nope")

    def test_no_route_raises(self):
        t = line_topology()
        t.add_host("island")
        r = RoutingTable(t)
        with pytest.raises(NoRouteError):
            r.path("h1", "island")

    def test_routes_refresh_on_topology_change(self):
        t = line_topology()
        r = RoutingTable(t)
        t.add_host("island")
        with pytest.raises(NoRouteError):
            r.path("h1", "island")
        t.add_link("island", "r2", 1e6)
        assert r.path("h1", "island") == ["h1", "r1", "r2", "island"]

    def test_deterministic_tie_break(self):
        # Two equal-length routes a-x-b and a-y-b: BFS explores sorted
        # neighbors, so the path through "x" is always chosen.
        t = Topology()
        for n in ("a", "b"):
            t.add_host(n)
        for n in ("x", "y"):
            t.add_router(n)
        t.add_link("a", "y", 1e6)
        t.add_link("a", "x", 1e6)
        t.add_link("x", "b", 1e6)
        t.add_link("y", "b", 1e6)
        assert RoutingTable(t).path("a", "b") == ["a", "x", "b"]
