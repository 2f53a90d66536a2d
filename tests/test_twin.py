"""Twin models: input prep, the three forwards, symmetry properties, sizing."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nettwin.autodiff import Tape
from nettwin.nettopo import FlowSet, Graph, build_reg_grid, sym_normalized_operator
from nettwin.pipeline import SPLITS, load_dataset
from nettwin.routing import Path, RoutingTable, shortest_paths
from nettwin.simulator import TASKS, TrafficParams, default_sim_config, link_capacities
from nettwin.twin import (
    COMPACT,
    LARGE,
    GlanceDims,
    GnnDims,
    TwinError,
    TwinModel,
    batch_inputs,
    init_embeddings,
    make_model,
    prepare_twin_input,
)

from conftest import (
    BATCH_DIMS,
    FAMILY_SCENARIOS,
    TINY_DIMS,
    embedding_names,
    kind_dims,
    mixed_samples,
    wired_graph,
)
from oracles import random_connected_adjacency, reference_twin_input

WEE_DIMS = GlanceDims(
    d_node=2, d_link=2, d_path=4, t_layers=1, l_max=2,
    link_hidden=(4,), readout_hidden=(4,),
)


def line_input(line3, flows=None, traffic=None, caps=None):
    flows = flows or FlowSet((0,), (2,))
    traffic = traffic or TrafficParams((10.0,) * len(flows), (1.0,) * len(flows))
    table = shortest_paths(line3, flows, seed=0)
    config = default_sim_config(wired=True)
    capacities = link_capacities(line3, config) if caps is None else caps
    return prepare_twin_input(line3, table, traffic, capacities)


def stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSymNormalizedOperator:
    def test_single_node(self):
        assert np.array_equal(sym_normalized_operator(np.zeros((1, 1))), [[1.0]])

    def test_two_node_hand_value(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(sym_normalized_operator(a), 0.5, atol=1e-15)

    def test_weighted_hand_value(self):
        a = np.array([[0.0, 2.0], [2.0, 0.0]])
        s = sym_normalized_operator(a)
        assert np.allclose(s, [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-15)

    def test_symmetry(self, reg44):
        s = sym_normalized_operator(reg44.adjacency)
        assert np.allclose(s, s.T, atol=1e-15)


class TestTwinInput:
    def test_index_layout_two_flows(self, line3):
        # caller order (1->2), (0->2); canonical order sorts the pairs
        flows = FlowSet((1, 0), (2, 2))
        traffic = TrafficParams((5.0, 11.0), (7.0, 13.0))
        inp = line_input(line3, flows, traffic)
        assert np.array_equal(inp.order, [1, 0])
        assert np.array_equal(inp.inv_order, [1, 0])
        # line3 links: (0,1)=0 (1,0)=1 (1,2)=2 (2,1)=3; padding slots are 4
        assert np.array_equal(inp.link_ids, [[0, 2], [2, 4]])
        assert np.array_equal(inp.tail_ids, [[0, 1], [1, 0]])
        assert np.array_equal(inp.step_mask, [[1.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(inp.seg_ids, [0, 2, 2, 4])
        assert np.array_equal(inp.degrees, [1.0, 2.0, 1.0])

    def test_rejects_overlong_path(self, line3):
        # the input takes any path; a path model rejects one over its l_max
        inp = line_input(line3)
        assert inp.max_steps == 2
        for kind in ("glance", "routenet"):
            make_model(kind, TASKS, seed=0, dims=WEE_DIMS).predict(inp)
            short = make_model(kind, TASKS, seed=0, dims=replace(WEE_DIMS, l_max=1))
            with pytest.raises(TwinError, match="2 links, exceeding l_max=1"):
                short.predict(inp)

    def test_rejects_capacity_shape(self, line3):
        with pytest.raises(TwinError, match="capacities"):
            line_input(line3, caps=np.ones(3))

    def test_rejects_traffic_mismatch(self, line3):
        with pytest.raises(TwinError, match="traffic"):
            line_input(line3, traffic=TrafficParams((1.0, 1.0), (1.0, 1.0)))

    def test_rejects_foreign_link(self, line3):
        table = RoutingTable((Path(0, ((0, 2),)),), seed=0)
        caps = link_capacities(line3, default_sim_config(wired=True))
        with pytest.raises(TwinError, match="not in the graph"):
            prepare_twin_input(line3, table, TrafficParams((1.0,), (1.0,)), caps)

    def test_gnn_features(self, line3):
        flows = FlowSet((0,), (1,))
        traffic = TrafficParams((10.0,), (3.0,))
        table = shortest_paths(line3, flows, seed=0)
        caps = link_capacities(line3, default_sim_config(wired=True))
        inp = prepare_twin_input(line3, table, traffic, caps)
        feats = inp.gnn_features
        assert np.array_equal(feats[0], [10.0, 3.0])
        assert np.array_equal(feats[1], [10.0, 3.0])
        assert np.array_equal(feats[2], [0.0, 0.0])  # node 2 is on no path


def assert_same_input(got, want):
    """Every field of two inputs, arrays byte for byte with dtype and shape."""
    assert vars(got).keys() == vars(want).keys()
    for name, w in vars(want).items():
        g = getattr(got, name)
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape) == (w.dtype, w.shape), name
            assert g.tobytes() == w.tobytes(), name
        else:
            assert type(g) is type(w) and g == w, name


def random_simple_path(rng, graph, source, dest):
    """A simple source -> dest path by randomized depth-first search."""
    stack = [[source]]
    while stack:
        nodes = stack.pop()
        if nodes[-1] == dest:
            return tuple(zip(nodes, nodes[1:]))
        nexts = [v for v in graph.neighbors[nodes[-1]] if v not in nodes]
        rng.shuffle(nexts)
        stack.extend(nodes + [v] for v in nexts)
    raise AssertionError("graph is connected")


class TestInputOracle:
    """The index-array layout against the per-cell builder in oracles.py."""

    @pytest.mark.parametrize("scenario", FAMILY_SCENARIOS)
    def test_toy_sets(self, family_dataset_dirs, scenario):
        ds = load_dataset(family_dataset_dirs[scenario])
        samples = [s for split in SPLITS for s in ds.splits[split]]
        args = [(s.graph, s.table, s.traffic, s.capacities) for s in samples]
        got = [prepare_twin_input(*a) for a in args]
        want = [reference_twin_input(*a) for a in args]
        for g, w in zip(got, want):
            assert_same_input(g, w)
        assert_same_input(batch_inputs(got), batch_inputs(want))

    @given(st.integers(min_value=0, max_value=10**6))
    def test_random_routes(self, seed):
        rng = np.random.default_rng(seed)
        graph = Graph(random_connected_adjacency(rng, int(rng.integers(2, 9))), None, True)
        n = graph.n_nodes
        inputs = []
        for _ in range(3):
            pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
            picks = rng.choice(len(pairs), size=int(rng.integers(1, min(6, len(pairs)) + 1)),
                               replace=False)
            flows = [pairs[int(k)] for k in picks]
            table = RoutingTable(
                tuple(Path(f, random_simple_path(rng, graph, s, d))
                      for f, (s, d) in enumerate(flows)),
                seed=0,
            )
            traffic = TrafficParams(
                tuple(rng.uniform(1, 20, len(flows))), tuple(rng.uniform(1, 20, len(flows)))
            )
            caps = rng.uniform(1e5, 1e6, len(graph.links))
            got = prepare_twin_input(graph, table, traffic, caps)
            want = reference_twin_input(graph, table, traffic, caps)
            assert_same_input(got, want)
            inputs.append((got, want))
        assert_same_input(
            batch_inputs([g for g, _ in inputs]), batch_inputs([w for _, w in inputs])
        )

    @given(st.integers(min_value=0, max_value=10**6))
    def test_foreign_link_message(self, seed):
        # a path over a pair the graph does not link fails alike in both
        rng = np.random.default_rng(seed)
        graph = Graph(random_connected_adjacency(rng, int(rng.integers(3, 9))), None, True)
        n = graph.n_nodes
        absent = [(i, j) for i in range(n) for j in range(n)
                  if i != j and (i, j) not in graph.link_index]
        if not absent:
            return
        s, d = absent[int(rng.integers(len(absent)))]
        other = next((a, b) for a, b in graph.links if (a, b) != (s, d))
        table = RoutingTable((Path(0, (other,)), Path(1, ((s, d),))), seed=0)
        traffic = TrafficParams((1.0, 2.0), (3.0, 4.0))
        caps = np.ones(len(graph.links))
        with pytest.raises(TwinError) as want:
            reference_twin_input(graph, table, traffic, caps)
        with pytest.raises(TwinError, match=f"^{re.escape(str(want.value))}$"):
            prepare_twin_input(graph, table, traffic, caps)


class TestInitEmbeddings:
    def test_feature_columns(self, line3):
        star = wired_graph(4, [(0, 1), (0, 2), (0, 3)])
        flows = FlowSet((1,), (2,))
        table = shortest_paths(star, flows, seed=0)
        caps = link_capacities(star, default_sim_config(wired=True))
        inp = prepare_twin_input(star, table, TrafficParams((10.0,), (1.0,)), caps)
        tape = Tape()
        h_p, h_l, h_n = init_embeddings(tape, inp, WEE_DIMS)
        assert np.array_equal(h_p.value, [[10.0, 1.0, 0.0, 0.0]])
        assert np.array_equal(h_l.value[0], [1.0, 0.0])  # 1e6 capacity scaled
        assert np.array_equal(h_n.value[0], [3.0, 0.0])  # hub degree
        assert np.array_equal(h_n.value[1], [1.0, 0.0])

    def test_tau_override_reorders_to_canonical(self, line3):
        flows = FlowSet((1, 0), (2, 2))
        inp = line_input(line3, flows, TrafficParams((5.0, 11.0), (7.0, 13.0)))
        tape = Tape()
        tau = tape.leaf([[50.0, 70.0], [110.0, 130.0]])
        h_p, _, _ = init_embeddings(tape, inp, WEE_DIMS, tau)
        # canonical order is (0,2) then (1,2), i.e. caller flows 1 then 0
        assert np.array_equal(h_p.value[:, :2], [[110.0, 130.0], [50.0, 70.0]])


class TestGlanceForward:
    def test_matches_manual_composition(self, line3):
        # one message-passing layer replayed step by step in plain numpy
        flows = FlowSet((1, 0), (2, 2))
        traffic = TrafficParams((5.0, 11.0), (7.0, 13.0))
        inp = line_input(line3, flows, traffic)
        model = make_model("glance", ("delay", "drops"), seed=3, dims=WEE_DIMS)
        got = model.predict(inp)

        p = model.params
        tau_can = np.array([[11.0, 13.0], [5.0, 7.0]])
        h_p = np.concatenate([tau_can, np.zeros((2, 2))], axis=1)
        h_l = np.concatenate([np.ones((4, 1)), np.zeros((4, 1))], axis=1)
        h_n = np.concatenate(
            [np.array([[1.0], [2.0], [1.0]]), np.zeros((3, 1))], axis=1
        )
        link_ids = np.array([[0, 2], [2, 4]])
        tail_ids = np.array([[0, 1], [1, 0]])
        masks = [
            np.repeat(np.array([[1.0], [1.0]]), 4, axis=1),
            np.repeat(np.array([[1.0], [0.0]]), 4, axis=1),
        ]

        def gru(x, h):
            z = stable_sigmoid((x @ p["gru/w_z"] + h @ p["gru/u_z"]) + p["gru/b_z"])
            r = stable_sigmoid((x @ p["gru/w_r"] + h @ p["gru/u_r"]) + p["gru/b_r"])
            cand = np.tanh((x @ p["gru/w_h"] + (r * h) @ p["gru/u_h"]) + p["gru/b_h"])
            return h + z * (cand - h)

        h_l_ext = np.concatenate([h_l, np.zeros((1, 2))], axis=0)
        h = h_p
        m_parts = []
        for s in range(2):
            x = np.concatenate([h_l_ext[link_ids[:, s]], h_n[tail_ids[:, s]]], axis=1)
            h = h + masks[s] * (gru(x, h) - h)
            m_parts.append(h * masks[s])
        h_p = h
        seg = np.zeros((5, 4))
        np.add.at(seg, [0, 2, 2, 4], np.concatenate(m_parts, axis=0))
        link_sums = seg[:4]
        tails = np.array([0, 1, 1, 2])
        x = np.concatenate([h_l, h_n[tails], link_sums], axis=1)
        hidden = np.where(x @ p["link/w0"] + p["link/b0"] > 0,
                          x @ p["link/w0"] + p["link/b0"], 0.0)
        h_l = hidden @ p["link/proj_w"] + p["link/proj_b"]
        out_sums = np.zeros((3, 2))
        np.add.at(out_sums, tails, h_l)
        pre = sym_normalized_operator(line3.adjacency) @ (
            np.concatenate([h_n, out_sums], axis=1) @ p["egc/w"]
        )
        h_n = np.where(pre > 0, pre, 0.0)

        cols = []
        for task in ("delay", "drops"):
            a = h_p @ p[f"readout/{task}/w0"] + p[f"readout/{task}/b0"]
            r = np.where(a > 0, a, 0.0)
            cols.append(r @ p[f"readout/{task}/out_w"] + p[f"readout/{task}/out_b"])
        want = np.concatenate(cols, axis=1)[[1, 0]]
        assert got.tobytes() == want.tobytes()

    def test_zero_weights_predict_readout_bias(self, line3):
        flows = FlowSet((0, 2), (2, 0))
        inp = line_input(line3, flows, TrafficParams((1.0, 9.0), (2.0, 4.0)))
        for kind in ("glance", "routenet"):
            model = make_model(kind, TASKS, seed=0, dims=TINY_DIMS)
            for name in model.params.names():
                model.params[name] = np.zeros_like(model.params[name])
            model.params["readout/jitter/out_b"] = np.array([2.5])
            preds = model.predict(inp)
            assert np.array_equal(preds[:, 0], [0.0, 0.0])
            assert np.array_equal(preds[:, 1], [2.5, 2.5])

    def test_link_feature_order_matters(self, line3):
        # swapping the capacities of the two along-path links changes the
        # path GRU's input sequence, so the prediction must move
        model = make_model("glance", ("delay",), seed=5, dims=TINY_DIMS)
        caps = link_capacities(line3, default_sim_config(wired=True))
        caps_a, caps_b = caps.copy(), caps.copy()
        caps_a[0], caps_a[2] = 1.2e6, 0.6e6  # links (0,1) and (1,2)
        caps_b[0], caps_b[2] = 0.6e6, 1.2e6
        pred_a = model.predict(line_input(line3, caps=caps_a))
        pred_b = model.predict(line_input(line3, caps=caps_b))
        assert not np.allclose(pred_a, pred_b, atol=1e-9)

    def test_node_relabeling_invariance(self, reg44):
        rng = np.random.default_rng(0)
        perm = rng.permutation(reg44.n_nodes)
        a2 = np.zeros_like(reg44.adjacency)
        a2[np.ix_(perm, perm)] = reg44.adjacency
        pos2 = np.empty_like(reg44.positions)
        pos2[perm] = reg44.positions
        g2 = Graph(a2, pos2, wired=False)

        flows = FlowSet((0, 3, 9), (5, 1, 14))
        traffic = TrafficParams((4.0, 9.0, 16.0), (2.0, 5.0, 1.0))
        table = shortest_paths(reg44, flows, seed=2)
        table2 = RoutingTable(
            tuple(
                Path(f, tuple((int(perm[i]), int(perm[j])) for i, j in path.links))
                for f, path in enumerate(table.paths)
            ),
            seed=2,
        )
        config = default_sim_config(wired=False)
        inp1 = prepare_twin_input(
            reg44, table, traffic, link_capacities(reg44, config)
        )
        inp2 = prepare_twin_input(g2, table2, traffic, link_capacities(g2, config))
        for kind in ("glance", "routenet"):
            model = make_model(kind, TASKS, seed=7, dims=TINY_DIMS)
            p1, p2 = model.predict(inp1), model.predict(inp2)
            assert np.max(np.abs(p1 - p2)) < 1e-9

    def test_flow_permutation_equivariance_exact(self, reg44):
        flows = FlowSet((0, 3, 9, 12), (5, 1, 14, 2))
        traffic = TrafficParams((4.0, 9.0, 16.0, 2.0), (2.0, 5.0, 1.0, 8.0))
        table = shortest_paths(reg44, flows, seed=4)
        sigma = [2, 0, 3, 1]
        traffic2 = TrafficParams(
            tuple(traffic.tau_on[f] for f in sigma),
            tuple(traffic.tau_off[f] for f in sigma),
        )
        table2 = RoutingTable(
            tuple(Path(i, table.paths[f].links) for i, f in enumerate(sigma)),
            seed=4,
        )
        config = default_sim_config(wired=False)
        caps = link_capacities(reg44, config)
        inp1 = prepare_twin_input(reg44, table, traffic, caps)
        inp2 = prepare_twin_input(reg44, table2, traffic2, caps)
        for kind in ("glance", "routenet"):
            model = make_model(kind, TASKS, seed=8, dims=BATCH_DIMS)
            p1, p2 = model.predict(inp1), model.predict(inp2)
            assert p2.tobytes() == p1[sigma].tobytes()

    def test_position_changes_without_topology_changes_are_invisible(self):
        g1 = wired_graph(4, [(0, 1), (1, 2), (2, 3)])
        a = g1.adjacency.copy()
        g2 = Graph(a, np.array([[0.0, 0.0], [5.0, 1.0], [9.0, 9.0], [3.0, 7.0]]), True)
        flows = FlowSet((0,), (3,))
        traffic = TrafficParams((3.0,), (4.0,))
        config = default_sim_config(wired=True)
        for kind in ("glance", "routenet"):
            model = make_model(kind, TASKS, seed=1, dims=BATCH_DIMS)
            preds = []
            for g in (g1, g2):
                table = shortest_paths(g, flows, seed=0)
                inp = prepare_twin_input(g, table, traffic, link_capacities(g, config))
                preds.append(model.predict(inp))
            assert preds[0].tobytes() == preds[1].tobytes()


class TestRoutenetEquivalence:
    def test_glance_with_node_paths_severed_matches_routenet(self, line3):
        dims = TINY_DIMS
        tasks = ("delay", "throughput")
        glance = make_model("glance", tasks, seed=11, dims=dims)
        routenet = make_model("routenet", tasks, seed=12, dims=dims)

        d_l, d_n = dims.d_link, dims.d_node
        gp, rp = glance.params, routenet.params
        # cut everything the node embeddings feed, then share the rest
        for gate in ("z", "r", "h"):
            w = gp[f"gru/w_{gate}"].copy()
            w[d_l:, :] = 0.0
            gp[f"gru/w_{gate}"] = w
            rp[f"gru/w_{gate}"] = w[:d_l]
            rp[f"gru/u_{gate}"] = gp[f"gru/u_{gate}"]
            rp[f"gru/b_{gate}"] = gp[f"gru/b_{gate}"]
        w0 = gp["link/w0"].copy()
        w0[d_l : d_l + d_n, :] = 0.0
        gp["link/w0"] = w0
        rp["link/w0"] = np.concatenate([w0[:d_l], w0[d_l + d_n :]], axis=0)
        for name in rp.names():
            if name.startswith(("link/", "readout/")) and name != "link/w0":
                rp[name] = gp[name]

        flows = FlowSet((1, 0), (2, 2))
        inp = line_input(line3, flows, TrafficParams((5.0, 11.0), (7.0, 13.0)))
        assert np.max(np.abs(glance.predict(inp) - routenet.predict(inp))) < 1e-10


class TestGnnForward:
    def make_inp(self, line3, tau_on=(10.0, 4.0), tau_off=(3.0, 6.0)):
        flows = FlowSet((0, 2), (1, 0))
        table = shortest_paths(line3, flows, seed=0)
        caps = link_capacities(line3, default_sim_config(wired=True))
        return prepare_twin_input(line3, table, TrafficParams(tau_on, tau_off), caps)

    def test_zero_weights_predict_per_flow_bias(self, line3):
        inp = self.make_inp(line3)
        model = make_model("gnn", ("delay", "jitter"), seed=0, dims=GnnDims(n_flows=2))
        for name in model.params.names():
            model.params[name] = np.zeros_like(model.params[name])
        model.params["readout/delay/b"] = np.array([1.5, -2.5])
        preds = model.predict(inp)
        assert np.array_equal(preds[:, 0], [1.5, -2.5])
        assert np.array_equal(preds[:, 1], [0.0, 0.0])

    def test_flow_swap_changes_output(self, line3):
        model = make_model("gnn", TASKS, seed=3, dims=GnnDims(n_flows=2))
        inp1 = self.make_inp(line3, (10.0, 4.0), (3.0, 6.0))
        flows2 = FlowSet((2, 0), (0, 1))
        table2 = shortest_paths(line3, flows2, seed=0)
        caps = link_capacities(line3, default_sim_config(wired=True))
        inp2 = prepare_twin_input(
            line3, table2, TrafficParams((4.0, 10.0), (6.0, 3.0)), caps
        )
        p1, p2 = model.predict(inp1), model.predict(inp2)
        # the feature columns are tied to flow slots, so swapping flows is
        # not a permutation of the output: the baseline is order-sensitive
        assert not np.allclose(p2, p1[[1, 0]], atol=1e-9)

    def test_rejects_flow_count_mismatch(self, line3):
        model = make_model("gnn", TASKS, seed=0, dims=GnnDims(n_flows=3))
        with pytest.raises(TwinError, match="flows"):
            model.predict(self.make_inp(line3))



class TestModelContainer:
    def test_param_counts_frozen(self):
        assert make_model("glance", TASKS, seed=0, dims=COMPACT).params.count() == 47332
        assert make_model("routenet", TASKS, seed=0, dims=COMPACT).params.count() == 44260
        gnn = make_model("gnn", TASKS, seed=0, dims=GnnDims(n_flows=10))
        assert gnn.params.count() == 24520

    def test_large_dims_bigger(self):
        small = make_model("glance", TASKS, seed=0, dims=COMPACT)
        large = make_model("glance", TASKS, seed=0, dims=LARGE)
        assert large.params.count() > small.params.count()

    def test_param_count_deterministic(self):
        a = make_model("glance", TASKS, seed=0, dims=COMPACT).params.count()
        b = make_model("glance", TASKS, seed=99, dims=COMPACT).params.count()
        assert a == b

    def test_name_partitions(self):
        model = make_model("glance", ("delay", "drops"), seed=0, dims=TINY_DIMS)
        emb = set(embedding_names(model))
        ro = set(model.readout_names())
        assert emb.isdisjoint(ro)
        assert emb | ro == set(model.params.names())
        assert all(n.startswith("readout/") for n in ro)

    def test_l2_map_targets(self):
        model = make_model("glance", ("delay",), seed=0, dims=TINY_DIMS)
        l2 = model.l2_map(0.1, 0.01)
        assert l2["link/w0"] == 0.1
        assert l2["readout/delay/out_w"] == 0.01
        assert "gru/w_z" not in l2
        assert "egc/w" not in l2
        assert model.l2_map(0.0, 0.0) == {}
        gnn = make_model("gnn", ("delay",), seed=0, dims=GnnDims(n_flows=2))
        assert gnn.l2_map(0.2, 0.0)["gcn/w0"] == 0.2

    def test_validation(self):
        with pytest.raises(TwinError, match="kind"):
            make_model("mlp", TASKS, seed=0, dims=COMPACT)
        with pytest.raises(TwinError, match="task"):
            make_model("glance", ("latency",), seed=0, dims=TINY_DIMS)
        params = make_model("glance", TASKS, 0, dims=TINY_DIMS).params
        with pytest.raises(TwinError):
            TwinModel("glance", (), params, TINY_DIMS)

    def test_dims_validation(self):
        with pytest.raises(TwinError):
            GlanceDims(d_path=1)
        with pytest.raises(TwinError):
            GlanceDims(t_layers=0)
        with pytest.raises(TwinError):
            GlanceDims(link_hidden=())
        for hidden in ((8, 0), (-1,)):  # each a width no layer can have
            with pytest.raises(TwinError, match="hidden sizes must be >= 1"):
                GlanceDims(readout_hidden=hidden)
        with pytest.raises(TwinError):
            GnnDims(n_flows=0)

    def test_init_is_seeded(self):
        a = make_model("glance", TASKS, seed=4, dims=TINY_DIMS)
        b = make_model("glance", TASKS, seed=4, dims=TINY_DIMS)
        c = make_model("glance", TASKS, seed=5, dims=TINY_DIMS)
        assert all(
            a.params[n].tobytes() == b.params[n].tobytes() for n in a.params.names()
        )
        assert any(
            a.params[n].tobytes() != c.params[n].tobytes() for n in a.params.names()
        )

    @pytest.mark.parametrize(
        "kind, digest",
        [
            ("glance", "32d7eb4cae1a44e15212f120a058938bda1ced0424dbf011e28d4b496ebcbcc4"),
            ("routenet", "2047637a2a805e1116c8091ebd2a42c5cfc723cf54757e446ba11099e59e7a0a"),
        ],
    )
    def test_init_bytes_pinned(self, kind, digest):
        # PCG64 uniform draws are platform-independent, so these hold anywhere;
        # a change to the draw order or a stream name moves them
        h = hashlib.sha256()
        for name, arr in make_model(kind, TASKS, seed=0, dims=COMPACT).params.items():
            h.update(name.encode())
            h.update(np.asarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest() == digest

    def test_compact_forward_tape_size(self, reg44):
        # one node per GRU step and per dense layer (the node convolution
        # included), link sums taken straight from segment_sum, and one
        # constant per initial embedding; composed from elementwise
        # primitives, the glance forward recorded 412 nodes
        flows = FlowSet((0, 1, 2, 4, 5, 6, 8, 9, 10, 0), (5, 6, 7, 9, 10, 11, 13, 14, 15, 3))
        traffic = TrafficParams((10.0,) * 10, (1.0,) * 10)
        caps = link_capacities(reg44, default_sim_config(wired=False))
        inp = prepare_twin_input(
            reg44, shortest_paths(reg44, flows, seed=0), traffic, caps
        )
        assert (inp.n_flows, inp.max_steps) == (10, 3)
        nodes = {}
        for kind in ("glance", "routenet", "gnn"):
            model = make_model(kind, TASKS, seed=0, dims=kind_dims(kind, COMPACT, 10))
            tape = Tape()
            nodes[kind] = model.forward(tape, model.params.bind(tape), inp).node_id + 1
        assert nodes == {"glance": 149, "routenet": 113, "gnn": 33}

    def test_predict_matches_bound_forward(self, line3):
        model = make_model("glance", TASKS, seed=6, dims=TINY_DIMS)
        inp = line_input(line3)
        tape = Tape()
        bound = model.params.bind(tape)
        out = model.forward(tape, bound, inp)
        assert out.value.tobytes() == model.predict(inp).tobytes()


class TestBatchInputs:
    """Disjoint-union batches against per-sample forwards."""

    def model(self, kind, seed=4):
        return make_model(kind, TASKS, seed, dims=kind_dims(kind, BATCH_DIMS, 2))

    def inputs(self, samples=None):
        return [s.twin_input for s in samples or mixed_samples()]

    def test_index_layout(self, line3):
        cycle4 = wired_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        caps = link_capacities(cycle4, default_sim_config(wired=True))
        # cycle4 links: (0,1)=0 (0,3)=1 (1,0)=2 (1,2)=3 (2,1)=4 (2,3)=5 ...
        flows = FlowSet((2, 0), (3, 1))
        table = shortest_paths(cycle4, flows, seed=0)
        one = line_input(line3)  # flow 0->2 over links 0 and 2 of 4
        two = prepare_twin_input(
            cycle4, table, TrafficParams((3.0, 4.0), (5.0, 6.0)), caps
        )
        inp = batch_inputs([one, two])
        assert (inp.n_flows, inp.n_links, inp.n_nodes, inp.max_steps) == (3, 12, 7, 2)
        assert np.array_equal(inp.flow_offsets, [0, 1, 3])
        assert np.array_equal(inp.node_offsets, [0, 3, 7])
        # every padding slot points at the one dummy link, 12
        assert np.array_equal(inp.link_ids, [[0, 2], [4, 12], [9, 12]])
        assert np.array_equal(inp.step_mask, [[1.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(inp.seg_ids, inp.link_ids.T.reshape(-1))
        assert np.array_equal(inp.tail_ids[:, 0], [0, 3, 5])
        # the second sample's flows are out of canonical order
        assert np.array_equal(inp.order, [0, 2, 1])
        assert np.array_equal(inp.inv_order, [0, 2, 1])
        assert np.array_equal(inp.tau_feat, [[10.0, 1.0], [3.0, 5.0], [4.0, 6.0]])
        assert np.array_equal(inp.link_tails[4:], [3, 3, 4, 4, 5, 5, 6, 6])
        assert np.array_equal(inp.s_norm[:3, :3], one.s_norm)
        assert np.array_equal(inp.s_norm[3:, 3:], two.s_norm)
        assert not inp.s_norm[:3, 3:].any() and not inp.s_norm[3:, :3].any()

    def test_batch_of_one_is_the_input(self):
        inp = self.inputs()[1]
        assert batch_inputs([inp]) is inp
        for kind in ("glance", "routenet", "gnn"):
            model = self.model(kind)
            assert model.predict(batch_inputs([inp])).tobytes() == model.predict(inp).tobytes()

    @pytest.mark.parametrize("kind", ["glance", "routenet", "gnn"])
    def test_predict_matches_recording_forward(self, kind):
        # predict runs on a tape that records nothing, with the values of a
        # recording tape's forward over constant-bound parameters
        inputs = self.inputs()
        model = self.model(kind)
        for inp in [*inputs, batch_inputs(inputs)]:
            tape = Tape()
            bound = {name: tape.constant(arr) for name, arr in model.params.items()}
            want = model.forward(tape, bound, inp).value
            assert model.predict(inp).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["glance", "routenet", "gnn"])
    def test_batched_predictions_match_per_sample(self, kind):
        inputs = self.inputs()
        assert len({inp.max_steps for inp in inputs}) == 3
        model = self.model(kind)
        batch = batch_inputs(inputs)
        got = np.split(model.predict(batch), batch.flow_offsets[1:-1])
        for inp, rows in zip(inputs, got):
            want = model.predict(inp)
            assert rows.shape == want.shape
            assert np.max(np.abs(rows - want)) < 1e-12

    def test_member_flow_permutation_moves_only_its_rows(self):
        samples = mixed_samples()
        mid = samples[1]
        sigma = [1, 0]
        flows = FlowSet(
            tuple(mid.flows.sources[f] for f in sigma),
            tuple(mid.flows.destinations[f] for f in sigma),
        )
        traffic = TrafficParams(
            tuple(mid.traffic.tau_on[f] for f in sigma),
            tuple(mid.traffic.tau_off[f] for f in sigma),
        )
        table = RoutingTable(
            tuple(Path(i, mid.table.paths[f].links) for i, f in enumerate(sigma)),
            seed=mid.table.seed,
        )
        swapped = prepare_twin_input(mid.graph, table, traffic, mid.capacities)
        inputs = self.inputs(samples)
        for kind in ("glance", "routenet"):
            model = self.model(kind, seed=9)
            base = batch_inputs(inputs)
            a = np.split(model.predict(base), base.flow_offsets[1:-1])
            b = np.split(
                model.predict(batch_inputs([inputs[0], swapped, inputs[2]])),
                base.flow_offsets[1:-1],
            )
            assert b[0].tobytes() == a[0].tobytes()
            assert b[1].tobytes() == a[1][sigma].tobytes()
            assert b[2].tobytes() == a[2].tobytes()

    def test_rejections(self, line3):
        with pytest.raises(TwinError, match="at least one"):
            batch_inputs([])
        # a gnn reads a fixed flow count from every sample
        two_flows = self.inputs()[0]
        one_flow = line_input(line3)
        model = self.model("gnn")
        with pytest.raises(TwinError, match="gnn built for 2 flows"):
            model.predict(batch_inputs([two_flows, one_flow]))
