"""Shortest-path routing against an exhaustive enumeration oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nettwin import routing
from nettwin.fileio import SchemaError, check_json
from nettwin.nettopo import FlowSet, Graph
from nettwin.pipeline import RECORD
from nettwin.routing import (
    ENUMERATION_NODE_LIMIT,
    PATH_MEMO_SIZE,
    Path,
    RoutingError,
    RoutingTable,
    enumerate_shortest_paths,
    shortest_paths,
    table_from_routes,
    validate_table,
)

from conftest import wired_graph
from oracles import (
    minimal_node_paths,
    random_connected_adjacency,
    reference_shortest_paths,
)


def path_nodes(links):
    return (links[0][0],) + tuple(j for _, j in links)


class TestPathDataclass:
    def test_valid_chain(self):
        p = Path(0, ((0, 1), (1, 2)))
        assert p.source == 0
        assert p.destination == 2
        assert len(p) == 2


class TestShortestPaths:
    def test_line_has_unique_path(self, line3):
        table = shortest_paths(line3, FlowSet((0,), (2,)), seed=0)
        assert table.paths[0].links == ((0, 1), (1, 2))

    def test_grid_diagonal_is_one_hop(self, reg44):
        # opposite corners of one lattice cell sit ~42.4 m apart, within range
        table = shortest_paths(reg44, FlowSet((0,), (5,)), seed=0)
        assert table.paths[0].links == ((0, 5),)

    def test_four_cycle_ties_cover_both_paths(self, cycle4):
        flows = FlowSet((0,), (2,))
        oracle = set(enumerate_shortest_paths(cycle4, 0, 2))
        assert oracle == {((0, 1), (1, 2)), ((0, 3), (3, 2))}
        seen = set()
        for seed in range(200):
            links = shortest_paths(cycle4, flows, seed).paths[0].links
            assert links in oracle
            seen.add(links)
        assert seen == oracle

    def test_deterministic_per_seed(self, reg44):
        flows = FlowSet((0, 3), (15, 12))
        a = shortest_paths(reg44, flows, seed=7)
        b = shortest_paths(reg44, flows, seed=7)
        assert a == b

    def test_unreachable_raises(self):
        g = wired_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(RoutingError, match="unreachable"):
            shortest_paths(g, FlowSet((0,), (3,)), seed=0)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_always_minimal_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = Graph(random_connected_adjacency(rng, n), None, wired=True)
        s = int(rng.integers(n))
        d = (s + 1 + int(rng.integers(n - 1))) % n
        table = shortest_paths(g, FlowSet((s,), (d,)), seed=seed)
        oracle = minimal_node_paths(g.adjacency, s, d)
        assert path_nodes(table.paths[0].links) in oracle


def random_flows(rng: np.random.Generator, n: int) -> FlowSet:
    codes = rng.choice(n * (n - 1), size=int(rng.integers(1, 6)), replace=False)
    sources = [int(c) // (n - 1) for c in codes]
    offsets = [int(c) % (n - 1) for c in codes]
    return FlowSet(sources, [r + (r >= s) for s, r in zip(sources, offsets)])


class TestPathMemo:
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_uncached_oracle(self, seed):
        # two graphs on the same nodes with different links share every
        # (endpoints, seed, flow) key but the neighbour lists; few tie seeds
        # and a repeated, shuffled call order make memo hits common
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        first = random_connected_adjacency(rng, n)
        second = random_connected_adjacency(rng, n)
        while np.array_equal(first, second):
            second = random_connected_adjacency(rng, n)
        graphs = [(Graph(a, None, wired=True), a) for a in (first, second)]
        calls = [
            (graph, adjacency, flows, int(rng.integers(3)))
            for flows in (random_flows(rng, n) for _ in range(4))
            for graph, adjacency in graphs
        ] * 2
        for k in rng.permutation(len(calls)):
            graph, adjacency, flows, tie = calls[k]
            table = shortest_paths(graph, flows, tie)
            want = reference_shortest_paths(adjacency, flows.pairs, tie)
            assert [p.links for p in table.paths] == want
            assert [p.flow_index for p in table.paths] == list(range(len(flows)))

    def test_equal_keys_share_one_path(self, reg44):
        twin = Graph(reg44.adjacency.copy(), reg44.positions, wired=False)
        flows = FlowSet((0, 3, 5), (15, 12, 10))
        a = shortest_paths(reg44, flows, seed=11)
        b = shortest_paths(twin, flows, seed=11)
        assert all(p is q for p, q in zip(a.paths, b.paths))
        # another tie seed, or the same pair as another flow, is another key
        c = shortest_paths(reg44, flows, seed=12)
        d = shortest_paths(reg44, FlowSet((3, 0), (12, 15)), seed=11)
        assert all(p is not q for p, q in zip(a.paths, c.paths))
        assert d.paths[0] is not a.paths[1]

    def test_unreachable_raises_every_time(self):
        g = wired_graph(4, [(0, 1), (2, 3)])
        flows = FlowSet((0, 0), (1, 3))
        for _ in range(2):
            with pytest.raises(RoutingError, match="flow 1: destination 3 unreachable"):
                shortest_paths(g, flows, seed=0)

    def test_memo_is_bounded(self, reg44):
        n = reg44.n_nodes
        flows = FlowSet(
            [s for s in range(n) for d in range(n) if s != d],
            [d for s in range(n) for d in range(n) if s != d],
        )
        for seed in range(PATH_MEMO_SIZE // len(flows) + 2):
            shortest_paths(reg44, flows, seed)
            assert routing._route_one.cache_info().currsize <= PATH_MEMO_SIZE
        assert routing._route_one.cache_info().currsize == PATH_MEMO_SIZE


class TestEnumeration:
    def test_line_single_path(self, line3):
        assert enumerate_shortest_paths(line3, 0, 2) == (((0, 1), (1, 2)),)

    def test_unreachable_is_empty(self):
        g = wired_graph(4, [(0, 1), (2, 3)])
        assert enumerate_shortest_paths(g, 0, 3) == ()

    def test_rejects_large_graphs(self):
        n = ENUMERATION_NODE_LIMIT + 1
        g = wired_graph(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(RoutingError, match="capped"):
            enumerate_shortest_paths(g, 0, n - 1)

    def test_rejects_degenerate_endpoints(self, line3):
        with pytest.raises(RoutingError):
            enumerate_shortest_paths(line3, 1, 1)
        with pytest.raises(RoutingError):
            enumerate_shortest_paths(line3, 0, 5)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_oracle_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        g = Graph(random_connected_adjacency(rng, n), None, wired=True)
        s = int(rng.integers(n))
        d = (s + 1 + int(rng.integers(n - 1))) % n
        got = {path_nodes(links) for links in enumerate_shortest_paths(g, s, d)}
        assert got == minimal_node_paths(g.adjacency, s, d)


def check_raw(raw, graph, flows, l_max=None):
    """validate_table of raw per-flow link sequences, as a dataset file holds them."""
    return validate_table(table_from_routes(raw, 0), graph, flows, l_max)


def check_paths(paths):
    """The record schema's check of a record's paths, one per flow."""
    paths = json.loads(json.dumps(paths))  # as read from a file: tuples become lists
    check_json(
        {"paths": RECORD["paths"]}, {"paths": paths}, "train.jsonl line 1",
        {"n_flows": len(paths)},
    )


class TestValidateTable:
    def test_valid_table(self, cycle4):
        flows = FlowSet((0, 1), (2, 3))
        table = shortest_paths(cycle4, flows, seed=1)
        assert validate_table(table, cycle4, flows) == []

    def test_broken_chain_flagged(self, line3):
        raw = [[(0, 1), (2, 1)]]
        kinds = {v.kind for v in check_raw(raw, line3, FlowSet((0,), (2,)))}
        assert "broken-chain" in kinds
        # the endpoints 0 -> 1 also disagree with the flow 0 -> 2
        assert "endpoint-mismatch" in kinds

    def test_path_too_long(self, line3):
        raw = [[(0, 1), (1, 2)]]
        flows = FlowSet((0,), (2,))
        assert check_raw(raw, line3, flows, l_max=2) == []
        kinds = [v.kind for v in check_raw(raw, line3, flows, l_max=1)]
        assert kinds == ["path-too-long"]

    def test_missing_link(self, line3):
        raw = [[(0, 2)]]
        kinds = [v.kind for v in check_raw(raw, line3, FlowSet((0,), (2,)))]
        assert kinds == ["missing-link"]

    def test_count_mismatch_and_empty(self, line3):
        flows = FlowSet((0, 2), (2, 0))
        out = check_raw([[]], line3, flows)
        kinds = {(v.flow_index, v.kind) for v in out}
        assert (-1, "count-mismatch") in kinds
        assert (0, "empty-path") in kinds

    def test_not_simple(self, cycle4):
        raw = [[(0, 1), (1, 2), (2, 3), (3, 0)]]
        kinds = {v.kind for v in check_raw(raw, cycle4, FlowSet((0,), (3,)))}
        assert "not-simple" in kinds
        assert "endpoint-mismatch" in kinds

    @pytest.mark.parametrize(
        "entry",
        [
            (0, 1, 2), ("a", 1), (0,), None, 5, (float("nan"), 1), (float("inf"), 1),
            (0.9, 1), ("1", 2), (True, 1),
        ],
        ids=[
            "triple", "letter", "single", "null", "number", "nan", "inf",
            "float", "digit-string", "bool",
        ],
    )
    def test_malformed_link_entry(self, entry):
        # a raw link entry that is no [i, j] pair of integers fails the record
        # schema as the dataset loads, so validate_table never sees one
        check_paths([[(0, 1), (1, 2)]])
        with pytest.raises(SchemaError, match=r"^train.jsonl line 1: 'paths\[1\]\[0\]"):
            check_paths([[(0, 1), (1, 2)], [entry]])

    def test_path_that_is_no_list(self):
        with pytest.raises(SchemaError, match=r"'paths\[0\]' must be a list, not 5$"):
            check_paths([5])

    def test_missing_link_out_of_range_or_negative(self, line3):
        # negative ids would wrap around in an adjacency lookup
        flows = FlowSet((0,), (2,))
        for links in ([(0, -2), (-2, 2)], [(0, 3), (3, 2)]):
            kinds = [v.kind for v in check_raw([links], line3, flows)]
            assert kinds == ["missing-link", "missing-link"]

    def test_never_raises_on_garbage(self, line3):
        out = check_raw([[(7, 9)], [(1, 0)]], line3, FlowSet((0,), (2,)))
        assert all(isinstance(v.kind, str) for v in out)


def test_routing_table_is_frozen(line3):
    table = shortest_paths(line3, FlowSet((0,), (2,)), seed=0)
    assert isinstance(table, RoutingTable)
    with pytest.raises(AttributeError):
        table.seed = 1
