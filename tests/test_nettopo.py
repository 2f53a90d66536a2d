"""Topology construction: backbone data, lattices, wireless weights, flows."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nettwin import nettopo
from nettwin.nettopo import (
    CONNECTIVITY_RADIUS_M,
    FlowSet,
    Graph,
    TopologyError,
    build_nsfnet,
    build_pert_grid,
    build_reg_grid,
    degree_vector,
    load_topology,
    sample_flows,
    save_topology,
    validate_flows,
    wireless_adjacency,
)

from conftest import wired_graph


class TestGraphValidation:
    def test_rejects_non_square(self):
        with pytest.raises(TopologyError, match="square"):
            Graph(np.zeros((2, 3)), None, wired=True)

    def test_rejects_asymmetric(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(TopologyError, match="symmetric"):
            Graph(a, None, wired=True)

    def test_rejects_self_links(self):
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TopologyError, match="diagonal"):
            Graph(a, None, wired=True)

    def test_rejects_negative_weights(self):
        a = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(TopologyError, match="non-negative"):
            Graph(a, None, wired=True)

    def test_rejects_non_finite(self):
        a = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(TopologyError, match="non-finite"):
            Graph(a, None, wired=True)

    def test_wired_requires_unit_weights(self):
        a = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(TopologyError, match="unit"):
            Graph(a, None, wired=True)
        # the same weights are fine for a wireless graph
        Graph(a, None, wired=False)

    def test_rejects_position_shape_mismatch(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TopologyError, match="positions"):
            Graph(a, np.zeros((3, 2)), wired=True)

    def test_links_row_major_with_index(self):
        g = wired_graph(3, [(0, 1), (1, 2)])
        assert g.links == ((0, 1), (1, 0), (1, 2), (2, 1))
        assert g.link_index[(1, 2)] == 2
        assert g.neighbors[1] == (0, 2)


class TestNsfnet:
    def test_size(self):
        g = build_nsfnet()
        assert g.n_nodes == 14
        assert len(g.links) == 42
        assert g.wired

    def test_symmetric_unit_weights(self):
        a = build_nsfnet().adjacency
        assert np.array_equal(a, a.T)
        assert np.all(a[a > 0] == 1.0)

    def test_degree_sum_is_twice_edge_count(self):
        # 21 undirected edges, so the weighted degrees sum to 42 and each
        # D_ii equals the row sum for this symmetric unit-weight graph.
        g = build_nsfnet()
        deg = degree_vector(g)
        assert math.isclose(deg.sum(), 42.0, abs_tol=1e-12)
        assert np.allclose(deg, g.adjacency.sum(axis=1), atol=1e-12)

    def test_connected(self):
        from oracles import hop_distances

        g = build_nsfnet()
        assert all(d >= 0 for d in hop_distances(g.adjacency, 0))


class TestWirelessAdjacency:
    def test_weight_formula_at_grid_spacing(self):
        pos = np.array([[0.0, 0.0], [30.0, 0.0]])
        a = wireless_adjacency(pos)
        assert a[0, 1] == pytest.approx(1.0 / math.log(901.0), abs=0.0)
        assert a[0, 1] == pytest.approx(0.146984, abs=2e-6)
        assert a[1, 0] == a[0, 1]

    def test_diagonal_neighbor_is_weaker(self):
        d_diag = 30.0 * math.sqrt(2.0)
        pos = np.array([[0.0, 0.0], [30.0, 30.0]])
        a = wireless_adjacency(pos)
        assert a[0, 1] == pytest.approx(1.0 / math.log1p(d_diag * d_diag), abs=0.0)
        assert a[0, 1] == pytest.approx(0.1334, abs=1e-3)
        assert a[0, 1] < 1.0 / math.log(901.0)

    def test_cutoff_beyond_radius(self):
        pos = np.array([[0.0, 0.0], [45.0, 0.0], [45.1, 0.0]])
        a = wireless_adjacency(pos)
        assert a[0, 1] > 0  # exactly at the radius still connects
        assert a[0, 2] == 0.0  # 45.1 m is out of range
        assert a[1, 2] > 0

    def test_rejects_coincident_nodes(self):
        pos = np.array([[3.0, 4.0], [3.0, 4.0]])
        with pytest.raises(TopologyError, match="coincident"):
            wireless_adjacency(pos)

    @given(
        st.floats(min_value=1.0, max_value=44.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_weight_decreases_with_distance(self, d, shrink):
        closer = d * shrink
        w = lambda dist: wireless_adjacency(np.array([[0.0, 0.0], [dist, 0.0]]))[0, 1]
        assert w(closer) >= w(d)
        if closer < d:
            assert w(closer) > w(d)


class TestGrids:
    def test_reg_grid_shape(self, reg44):
        assert reg44.n_nodes == 16
        assert not reg44.wired
        # node index is row * cols + col
        assert np.allclose(reg44.positions[5], [30.0, 30.0])

    def test_reg_grid_single_edge(self):
        g = build_reg_grid(1, 2)
        assert g.n_nodes == 2
        assert len(g.links) == 2  # one undirected edge

    def test_corner_has_three_neighbors(self, reg44):
        # adjacent lattice points at 30 m plus the diagonal at ~42.4 m
        assert len(reg44.neighbors[0]) == 3
        assert set(reg44.neighbors[0]) == {1, 4, 5}

    def test_interior_has_eight_neighbors(self, reg44):
        assert len(reg44.neighbors[5]) == 8

    def test_pert_grid_zero_radius_matches_reg_grid(self, reg44):
        g = build_pert_grid(4, 4, radius=0.0, seed=17)
        assert np.array_equal(g.adjacency, reg44.adjacency)
        assert np.array_equal(g.positions, reg44.positions)

    def test_pert_grid_offsets_within_radius(self, reg44):
        for seed in range(5):
            g = build_pert_grid(4, 4, radius=10.0, seed=seed)
            offsets = np.linalg.norm(g.positions - reg44.positions, axis=1)
            assert np.all(offsets <= 10.0 + 1e-12)

    def test_pert_grid_deterministic(self):
        a = build_pert_grid(4, 4, seed=9)
        b = build_pert_grid(4, 4, seed=9)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_pert_grid_seeds_mostly_differ(self):
        blobs = [
            build_pert_grid(4, 4, radius=10.0, seed=s).adjacency.tobytes()
            for s in range(100)
        ]
        same = sum(
            1
            for i in range(len(blobs))
            for j in range(i + 1, len(blobs))
            if blobs[i] == blobs[j]
        )
        total = len(blobs) * (len(blobs) - 1) // 2
        assert 1.0 - same / total > 0.9

    def test_grid_argument_validation(self):
        with pytest.raises(ValueError):
            build_reg_grid(0, 4)
        with pytest.raises(ValueError):
            build_pert_grid(4, 4, radius=-1.0)


class TestFlows:
    def test_flowset_validation(self):
        with pytest.raises(TopologyError, match="length"):
            FlowSet((0, 1), (1,))
        with pytest.raises(TopologyError, match="at least one"):
            FlowSet((), ())
        with pytest.raises(TopologyError, match="identical endpoints"):
            FlowSet((0, 2), (1, 2))
        with pytest.raises(TopologyError, match="duplicate"):
            FlowSet((0, 0), (1, 1))

    def test_validate_flows_range(self, line3):
        validate_flows(FlowSet((0,), (2,)), line3)
        with pytest.raises(TopologyError, match="out of range"):
            validate_flows(FlowSet((0,), (3,)), line3)

    def test_two_node_graph_yields_both_pairs(self):
        g = wired_graph(2, [(0, 1)])
        flows = sample_flows(g, 2, seed=0)
        assert set(flows.pairs) == {(0, 1), (1, 0)}

    def test_sample_deterministic(self, reg44):
        a = sample_flows(reg44, 10, seed=4)
        b = sample_flows(reg44, 10, seed=4)
        assert a.pairs == b.pairs

    def test_sample_count_bounds(self, line3):
        with pytest.raises(ValueError):
            sample_flows(line3, 7, seed=0)  # only 6 ordered pairs exist
        with pytest.raises(ValueError):
            sample_flows(line3, 0, seed=0)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
    def test_sampled_flows_are_valid(self, seed, n_flows):
        g = build_reg_grid(2, 2)
        flows = sample_flows(g, n_flows, seed=seed)
        assert len(flows) == n_flows
        assert len(set(flows.pairs)) == n_flows
        for s, d in flows.pairs:
            assert s != d
            assert 0 <= s < 4 and 0 <= d < 4


class TestTopologyIo:
    def test_round_trip(self, tmp_path):
        g = build_nsfnet()
        path = tmp_path / "net.json"
        save_topology(g, path)
        loaded = load_topology(path)
        assert np.array_equal(loaded.adjacency, g.adjacency)
        assert loaded.wired == g.wired
        if g.positions is None:
            assert loaded.positions is None
        else:
            assert np.array_equal(loaded.positions, g.positions)

    def test_round_trip_wireless(self, tmp_path, reg44):
        path = tmp_path / "grid.json"
        save_topology(reg44, path)
        loaded = load_topology(path)
        assert np.array_equal(loaded.adjacency, reg44.adjacency)
        assert np.array_equal(loaded.positions, reg44.positions)
        assert not loaded.wired

    def test_save_is_byte_deterministic(self, tmp_path, reg44):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_topology(reg44, p1)
        save_topology(reg44, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_malformed_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"nodes": 2}), encoding="utf-8")
        with pytest.raises(TopologyError):
            load_topology(path)

    def test_constants(self):
        assert CONNECTIVITY_RADIUS_M == 45.0
        assert nettopo.GRID_SPACING_M == 30.0
        assert nettopo.PERTURB_RADIUS_M == 10.0
