"""Hop-count shortest-path routing with seeded uniform tie-breaking.

When several minimal-hop paths exist, one is chosen by walking back from the
destination and picking uniformly at random among equal-cost predecessors,
with a dedicated RNG stream per (seed, flow). A walk reads nothing but the
neighbour lists, its endpoints, the seed and the flow index, so each path is
walked once and memoized under those five. An exhaustive enumerator over
small graphs serves as the correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .nettopo import FlowSet, Graph, validate_flows
from .seeding import make_rng

#: node-count guard for exhaustive path enumeration
ENUMERATION_NODE_LIMIT = 12

#: most paths the routing memo keeps, least recently used dropped first
PATH_MEMO_SIZE = 4096


class RoutingError(ValueError):
    """Raised when a routing request cannot be served."""


@dataclass(frozen=True)
class Path:
    """A path as the ordered directed links it traverses. It checks nothing
    itself: validate_table is the one check of a route."""

    flow_index: int
    links: tuple[tuple[int, int], ...]

    @property
    def source(self) -> int:
        return self.links[0][0]

    @property
    def destination(self) -> int:
        return self.links[-1][1]

    def __len__(self) -> int:
        return len(self.links)


@dataclass(frozen=True)
class RoutingTable:
    """One path per flow, plus the tie-break seed that produced them."""

    paths: tuple[Path, ...]
    seed: int


@dataclass(frozen=True)
class Violation:
    """A structured routing-table defect; validate_table never raises."""

    flow_index: int
    kind: str
    detail: str


def bfs_distances(neighbors: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop count from source to every node; -1 where it is unreachable."""
    dist = [-1] * len(neighbors)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for v in neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@lru_cache(maxsize=PATH_MEMO_SIZE, typed=True)
def _route_one(
    neighbors: tuple[tuple[int, ...], ...],
    source: int,
    dest: int,
    seed: int,
    flow_index: int,
) -> Path:
    # a pure function of its arguments, so a memo hit is the path a fresh
    # walk would draw; typed keys keep 1 and 1.0 apart, and a call that
    # raises is not stored
    dist = bfs_distances(neighbors, source)
    if dist[dest] < 0:
        raise RoutingError(
            f"flow {flow_index}: destination {dest} unreachable from {source}"
        )
    rng = make_rng(seed, "routing", flow_index)
    nodes = [dest]
    current = dest
    while current != source:
        preds = [u for u in neighbors[current] if dist[u] == dist[current] - 1]
        current = preds[int(rng.integers(len(preds)))]
        nodes.append(current)
    nodes.reverse()
    return Path(flow_index, tuple(zip(nodes, nodes[1:])))


def shortest_paths(graph: Graph, flows: FlowSet, seed: int) -> RoutingTable:
    """Minimal-hop path per flow; ties broken uniformly from the seed.

    Equal (neighbour lists, endpoints, seed, flow index) give the identical
    ``Path`` object, computed on first use.
    """
    validate_flows(flows, graph)
    neighbors = graph.neighbors
    paths = tuple(
        _route_one(neighbors, s, d, seed, f) for f, (s, d) in enumerate(flows.pairs)
    )
    return RoutingTable(paths, seed)


def enumerate_shortest_paths(
    graph: Graph, source: int, dest: int
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All simple minimal-hop paths source -> dest, as link sequences.

    Exhaustive oracle, guarded to small graphs. Returns () when dest is
    unreachable. Paths come out in a deterministic lexicographic node order.
    """
    n = graph.n_nodes
    if n > ENUMERATION_NODE_LIMIT:
        raise RoutingError(
            f"exhaustive enumeration capped at {ENUMERATION_NODE_LIMIT} nodes, got {n}"
        )
    if not (0 <= source < n and 0 <= dest < n):
        raise RoutingError(f"endpoints ({source}, {dest}) out of range")
    if source == dest:
        raise RoutingError("source and destination coincide")
    dist = bfs_distances(graph.neighbors, source)
    if dist[dest] < 0:
        return ()
    suffixes: dict[int, list[tuple[int, ...]]] = {dest: [(dest,)]}

    def suffixes_from(v: int) -> list[tuple[int, ...]]:
        # node sequences v -> dest along strictly increasing BFS layers
        if v in suffixes:
            return suffixes[v]
        out: list[tuple[int, ...]] = []
        for w in graph.neighbors[v]:
            if dist[w] == dist[v] + 1 and dist[dest] - dist[w] >= 0:
                out.extend((v,) + tail for tail in suffixes_from(w))
        suffixes[v] = out
        return out

    paths = []
    for node_seq in sorted(suffixes_from(source)):
        if node_seq[-1] == dest:
            paths.append(tuple(zip(node_seq, node_seq[1:])))
    return tuple(paths)


def validate_table(
    table,
    graph: Graph,
    flows: FlowSet,
    l_max: int | None = None,
) -> list[Violation]:
    """Collect structural defects of a routing table; empty list means valid.

    Accepts a RoutingTable or a raw list of per-flow link sequences (as read
    from a dataset file), and never raises on malformed content: a raw link
    entry that is no pair of integer node ids is a ``malformed-link``.
    """
    typed = isinstance(table, RoutingTable)
    routes = [path.links for path in table.paths] if typed else table
    violations: list[Violation] = []
    if len(routes) != len(flows):
        violations.append(
            Violation(
                -1,
                "count-mismatch",
                f"table has {len(routes)} paths for {len(flows)} flows",
            )
        )
    link_index = graph.link_index
    for f, entries in enumerate(routes[: len(flows)]):
        if typed:  # a Path's links are int pairs already
            links = entries
        else:
            try:
                links = [_node_pair(entry) for entry in entries]
            except (TypeError, ValueError):
                violations.append(
                    Violation(
                        f,
                        "malformed-link",
                        f"{entries!r} holds a link that is no [i, j] pair",
                    )
                )
                continue
        s, d = flows.sources[f], flows.destinations[f]
        if not links:
            violations.append(Violation(f, "empty-path", "no links"))
            continue
        for (a, b), (c, _) in zip(links, links[1:]):
            if b != c:
                violations.append(
                    Violation(f, "broken-chain", f"link ({a},{b}) then ({c},...)")
                )
        if links[0][0] != s or links[-1][1] != d:
            violations.append(
                Violation(
                    f,
                    "endpoint-mismatch",
                    f"path runs {links[0][0]}->{links[-1][1]}, flow is {s}->{d}",
                )
            )
        nodes = [links[0][0]] + [j for _, j in links]
        if len(set(nodes)) != len(nodes):
            violations.append(Violation(f, "not-simple", "path revisits a node"))
        for link in links:
            # link_index holds exactly the (i, j) with adjacency[i, j] > 0
            if link not in link_index:
                violations.append(
                    Violation(f, "missing-link", f"({link[0]},{link[1]}) not in the graph")
                )
        if l_max is not None and len(links) > l_max:
            violations.append(
                Violation(f, "path-too-long", f"{len(links)} links exceeds {l_max}")
            )
    return violations


def _node_pair(entry) -> tuple[int, int]:
    """A raw link entry as (i, j); raises unless it holds two JSON integers."""
    i, j = entry
    if type(i) is not int or type(j) is not int:
        raise ValueError(f"link {entry!r} has a node id that is no integer")
    return i, j


def table_from_routes(routes: list, seed: int) -> RoutingTable:
    """Raw per-flow link sequences (as read from a dataset file) as a table,
    for validate_table to check. An entry that is no pair of integers raises
    TypeError or ValueError."""
    return RoutingTable(
        tuple(Path(f, tuple(map(_node_pair, links))) for f, links in enumerate(routes)),
        seed,
    )
