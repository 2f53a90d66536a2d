"""Twin-driven management: objective, both solvers, simulator evaluation."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_array_equal

from conftest import BATCH_DIMS, TINY_DIMS, kind_dims
from nettwin import manage
from nettwin.autodiff import DivergenceError, Tape
from nettwin.manage import (
    GD_REL_TOL,
    HINGE_UPPER,
    TRAFFIC_BOUNDS,
    ManageError,
    ManageResult,
    NetworkInput,
    TargetProfile,
    evaluate_management,
    gd_traffic,
    hillclimb_destinations,
    hinge_failure_ratio,
    trajectory_csv,
    twin_objective,
)
from nettwin.nettopo import FlowSet, build_nsfnet, build_reg_grid
from nettwin.routing import shortest_paths
from nettwin.seeding import derive_seed
from nettwin.simulator import TASKS, TrafficParams, default_sim_config, link_capacities
from nettwin.twin import (
    EVAL_CHUNK,
    GnnDims,
    TwinInput,
    TwinModel,
    make_model,
    prepare_twin_input,
    stack_tables,
)
from oracles import (
    reference_gd_traffic,
    reference_hillclimb,
    reference_objective_arrays,
)

UNIT_IQR = np.ones(4)


def glance(tasks=TASKS, seed=2):
    return make_model("glance", tasks, seed, dims=TINY_DIMS)


def zeroed(model):
    for name in model.params.names():
        model.params[name] = np.zeros_like(model.params[name])
    return model


def capacities(graph):
    return link_capacities(graph, default_sim_config(graph.wired))


def line_state(graph, tau=(100.0, 100.0)):
    """Single 0 -> 2 flow on the 3-node line with its twin input."""
    flows = FlowSet((0,), (2,))
    traffic = TrafficParams((tau[0],), (tau[1],))
    table = shortest_paths(graph, flows, 0)
    return prepare_twin_input(graph, table, traffic, capacities(graph))


class TestTargetProfile:
    def test_shape_and_mask_validation(self):
        with pytest.raises(ManageError, match="target KPIs must be"):
            TargetProfile(np.ones((2, 3)), UNIT_IQR)
        with pytest.raises(ManageError, match="at least one KPI"):
            TargetProfile(np.ones((2, 4)), UNIT_IQR, ())
        with pytest.raises(ManageError, match="positive scales"):
            TargetProfile(np.ones((2, 4)), np.array([1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(ManageError, match="positive scales"):
            TargetProfile(np.ones((2, 4)), np.ones(3))

    def test_masked_cells_must_exist(self):
        k = np.array([[math.nan, 5.0, 5.0, 5.0]])
        with pytest.raises(ManageError, match="no finite cell"):
            TargetProfile(k, UNIT_IQR, ("delay",))
        # the same matrix is fine once the objective scores a finite column
        profile = TargetProfile(k, UNIT_IQR, ("delay", "jitter"))
        assert profile.n_flows == 1

    def test_from_raw_normalizes(self):
        iqr = np.array([2.0, 4.0, 8.0, 16.0])
        profile = TargetProfile(np.array([[2.0, 4.0, 8.0, 16.0]]), iqr)
        assert_array_equal(profile.k_targ, np.ones((1, 4)))
        assert profile.task_mask == (True, True, True, True)
        assert profile.tasks == TASKS
        assert_array_equal(profile.iqr, iqr)

    def test_from_raw_task_subset(self):
        profile = TargetProfile(np.ones((2, 4)), UNIT_IQR, ("drops", "delay"))
        assert profile.task_mask == (True, False, False, True)
        with pytest.raises(ManageError, match="unknown objective tasks"):
            TargetProfile(np.ones((2, 4)), UNIT_IQR, ("latency",))

    @given(
        raw=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.just(len(TASKS))),
            elements=st.one_of(st.just(math.nan), st.floats(-1e3, 1e3)),
        ),
        iqr=hnp.arrays(np.float64, len(TASKS), elements=st.floats(1e-3, 1e3)),
        scored=st.lists(st.sampled_from(TASKS), min_size=1, max_size=4, unique=True),
        extra=st.lists(st.sampled_from(TASKS), max_size=4, unique=True),
        order=st.randoms(use_true_random=False),
    )
    def test_layout_matches_column_by_column_oracle(self, raw, iqr, scored, extra, order):
        # the model predicts the scored tasks and maybe more, in any order
        try:
            profile = TargetProfile(raw, iqr, tuple(scored))
        except ManageError as exc:
            assert "no finite cell" in str(exc)
            return
        model_tasks = list(dict.fromkeys(scored + extra))
        order.shuffle(model_tasks)
        model = SimpleNamespace(tasks=tuple(model_tasks))
        want = reference_objective_arrays(profile, model)
        got = profile.layout(model.tasks)
        assert [a.shape for a in got] == [a.shape for a in want]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestTwinObjective:
    def test_zero_model_closed_form(self, line3):
        # zero weights predict zero, so J is the mean |target| over finite cells
        model = zeroed(glance())
        inp = line_state(line3)
        k = np.array([[1.0, 2.0, math.nan, 4.0]])
        profile = TargetProfile(k, UNIT_IQR)
        assert twin_objective(model, inp, profile) == pytest.approx(7.0 / 3.0, rel=1e-12)

    def test_mask_restricts_pooling(self, line3):
        model = zeroed(glance())
        inp = line_state(line3)
        k = np.array([[1.0, 2.0, 6.0, 4.0]])
        profile = TargetProfile(k, UNIT_IQR, ("delay", "throughput"))
        assert twin_objective(model, inp, profile) == pytest.approx(3.5, rel=1e-12)

    def test_iqr_scales_predictions(self, line3):
        model = zeroed(glance())
        inp = line_state(line3)
        profile = TargetProfile(np.array([[2.0, 2.0, 2.0, 2.0]]), np.full(4, 2.0))
        # predictions are divided by iqr before the comparison; zeros stay zeros
        assert twin_objective(model, inp, profile) == pytest.approx(1.0, rel=1e-12)

    def test_tau_override_changes_objective(self, line3):
        model = glance()
        profile = TargetProfile(np.full((1, 4), 0.5), UNIT_IQR)
        j_base = twin_objective(model, line_state(line3), profile)
        j_alt = twin_objective(model, line_state(line3, tau=(5.0, 15.0)), profile)
        assert j_base != j_alt

    def test_model_must_cover_masked_tasks(self, line3):
        model = glance(tasks=("delay", "jitter"))
        inp = line_state(line3)
        profile = TargetProfile(np.ones((1, 4)), UNIT_IQR, ("delay", "jitter", "throughput"))
        with pytest.raises(ManageError, match="does not predict"):
            twin_objective(model, inp, profile)


class TestGdTraffic:
    def setup_case(self, graph, seed=2):
        model = glance(seed=seed)
        flows = FlowSet((0,), (2,))
        table = shortest_paths(graph, flows, 0)
        return model, table, capacities(graph)

    def test_gnn_has_no_traffic_gradient(self, line3):
        model = make_model("gnn", TASKS, 0, dims=GnnDims(n_flows=1))
        table = shortest_paths(line3, FlowSet((0,), (2,)), 0)
        profile = TargetProfile(np.ones((1, 4)), UNIT_IQR)
        with pytest.raises(ManageError, match="gnn"):
            gd_traffic(
                model, line3, table, profile, np.array([[5.0, 5.0]]), capacities(line3)
            )

    def test_tau0_validation(self, line3):
        model, table, caps = self.setup_case(line3)
        profile = TargetProfile(np.ones((1, 4)), UNIT_IQR)
        with pytest.raises(ManageError, match="tau0 must be"):
            gd_traffic(model, line3, table, profile, np.ones((2, 2)), capacities=caps)
        with pytest.raises(ManageError, match="outside the projection bounds"):
            gd_traffic(model, line3, table, profile, np.array([[0.5, 5.0]]), capacities=caps)

    def test_perfect_target_stops_at_start(self, line3):
        # aiming at the model's own prediction leaves nothing to improve
        model, table, caps = self.setup_case(line3)
        tau0 = np.array([[5.0, 9.0]])
        traffic = TrafficParams((5.0,), (9.0,))
        inp = prepare_twin_input(line3, table, traffic, caps)
        profile = TargetProfile(model.predict(inp), UNIT_IQR)
        result = gd_traffic(model, line3, table, profile, tau0, capacities=caps)
        assert result.kind == "traffic"
        assert result.converged
        assert result.iterations == 1
        assert result.trajectory == [0.0]
        assert_array_equal(result.optimized_traffic, tau0)
        assert result.optimized_destinations is None

    def test_trajectory_strictly_improves(self, line3):
        model, table, caps = self.setup_case(line3)
        # target drawn at a different operating point than the start
        star = prepare_twin_input(
            line3, table, TrafficParams((4.0,), (16.0,)), caps
        )
        profile = TargetProfile(model.predict(star), UNIT_IQR)
        result = gd_traffic(
            model, line3, table, profile, np.array([[15.0, 3.0]]), capacities=caps
        )
        assert len(result.trajectory) > 1
        assert np.all(np.diff(result.trajectory) < 0)
        assert result.objective == result.trajectory[-1]
        assert result.trajectory[-1] < 0.5 * result.trajectory[0]

    def test_iterates_stay_inside_bounds(self, line3):
        model, table, caps = self.setup_case(line3)
        # the target's operating point lies below the box on both means
        star = prepare_twin_input(
            line3, table, TrafficParams((0.5,), (0.5,)), caps
        )
        profile = TargetProfile(model.predict(star), UNIT_IQR)
        result = gd_traffic(
            model, line3, table, profile, np.array([[1.2, 1.2]]), capacities=caps
        )
        lo, hi = TRAFFIC_BOUNDS
        assert np.all(result.optimized_traffic >= lo)
        assert np.all(result.optimized_traffic <= hi)
        assert result.optimized_traffic.min() == lo  # the projection acted

    def test_deterministic(self, line3):
        model, table, caps = self.setup_case(line3)
        profile = TargetProfile(np.full((1, 4), 0.3), UNIT_IQR)
        r1 = gd_traffic(model, line3, table, profile, np.array([[10.0, 10.0]]), capacities=caps)
        r2 = gd_traffic(model, line3, table, profile, np.array([[10.0, 10.0]]), capacities=caps)
        assert r1.to_jsonable() == r2.to_jsonable()

    def test_broken_model_raises(self, line3):
        model, table, caps = self.setup_case(line3)
        name = model.params.names()[0]
        bad = model.params[name].copy()
        bad[...] = math.nan
        model.params[name] = bad
        profile = TargetProfile(np.ones((1, 4)), UNIT_IQR)
        with pytest.raises(DivergenceError, match="non-finite gradient"):
            gd_traffic(model, line3, table, profile, np.array([[5.0, 5.0]]), capacities=caps)

    def test_default_bounds(self):
        assert TRAFFIC_BOUNDS == (1.0, 20.0)


class TestHillclimb:
    def case(self, graph, sources=(0, 1), seed=6):
        model = glance(seed=seed)
        traffic = TrafficParams((8.0, 3.0), (6.0, 12.0))
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.5, 2.0, size=(2, 4))
        profile = TargetProfile(raw, UNIT_IQR)
        return model, traffic, profile

    def all_assignments(self, graph, sources):
        n = graph.n_nodes
        out = []
        for d0 in range(n):
            for d1 in range(n):
                if d0 == sources[0] or d1 == sources[1]:
                    continue
                if (sources[0], d0) == (sources[1], d1):
                    continue
                out.append((d0, d1))
        return out

    def exhaustive_best(self, model, graph, sources, traffic, profile, rng_seed):
        # brute force must route exactly as the solver does: one tie seed
        tie_seed = derive_seed(rng_seed, "ties")
        caps = link_capacities(graph, default_sim_config(graph.wired))
        best = math.inf
        for dests in self.all_assignments(graph, sources):
            flows = FlowSet(sources, dests)
            table = shortest_paths(graph, flows, tie_seed)
            inp = prepare_twin_input(graph, table, traffic, caps)
            best = min(best, twin_objective(model, inp, profile))
        return best

    def test_matches_exhaustive_minimum(self, diamond4):
        sources = (0, 1)
        model, traffic, profile = self.case(diamond4)
        result = hillclimb_destinations(
            model, diamond4, sources, traffic, profile, capacities(diamond4),
            n_init=20, n_rand=2, rng_seed=3,
        )
        brute = self.exhaustive_best(model, diamond4, sources, traffic, profile, rng_seed=3)
        assert result.objective == pytest.approx(brute, abs=1e-12)
        assert result.kind == "destinations"
        assert result.converged
        assert result.seed == 3
        assert result.restart_best in (0, 1)
        assert result.iterations == len(result.trajectory) - 1
        assert result.optimized_traffic is None
        assert len(result.optimized_destinations) == 2

    def test_returned_vector_is_single_move_optimal(self, diamond4):
        sources = (0, 1)
        model, traffic, profile = self.case(diamond4, seed=9)
        result = hillclimb_destinations(
            model, diamond4, sources, traffic, profile, capacities(diamond4),
            n_init=4, n_rand=1, rng_seed=1,
        )
        dests = result.optimized_destinations
        tie_seed = derive_seed(1, "ties")
        caps = link_capacities(diamond4, default_sim_config(diamond4.wired))

        def j_of(vec):
            table = shortest_paths(diamond4, FlowSet(sources, vec), tie_seed)
            inp = prepare_twin_input(diamond4, table, traffic, caps)
            return twin_objective(model, inp, profile)

        j_best = j_of(dests)
        assert j_best == pytest.approx(result.objective, abs=1e-12)
        for f in range(2):
            for n in range(diamond4.n_nodes):
                trial = dests[:f] + (n,) + dests[f + 1:]
                if trial not in self.all_assignments(diamond4, sources) or trial == dests:
                    continue
                assert j_of(trial) >= j_best - 1e-12

    def test_trajectory_strictly_improves(self, diamond4):
        model, traffic, profile = self.case(diamond4)
        result = hillclimb_destinations(
            model, diamond4, (0, 1), traffic, profile, capacities(diamond4),
            n_init=2, n_rand=3, rng_seed=0,
        )
        assert np.all(np.diff(result.trajectory) < 0)

    def test_deterministic(self, diamond4):
        model, traffic, profile = self.case(diamond4)
        kw = dict(capacities=capacities(diamond4), n_init=5, n_rand=2, rng_seed=7)
        r1 = hillclimb_destinations(model, diamond4, (0, 1), traffic, profile, **kw)
        r2 = hillclimb_destinations(model, diamond4, (0, 1), traffic, profile, **kw)
        assert r1.optimized_destinations == r2.optimized_destinations
        assert r1.trajectory == r2.trajectory
        assert r1.restart_best == r2.restart_best

    def test_destinations_never_collide_with_sources(self, diamond4):
        model, _, _ = self.case(diamond4)
        traffic = TrafficParams((5.0,) * 3, (5.0,) * 3)
        profile = TargetProfile(np.full((3, 4), 2.0), UNIT_IQR)
        result = hillclimb_destinations(
            model, diamond4, (0, 1, 0), traffic, profile, capacities(diamond4),
            n_init=3, n_rand=1, rng_seed=2,
        )
        dests = result.optimized_destinations
        sources = (0, 1, 0)
        assert all(d != s for d, s in zip(dests, sources))
        assert len(set(zip(sources, dests))) == 3

    def test_input_validation(self, diamond4):
        model, traffic, profile = self.case(diamond4)
        with pytest.raises(ManageError, match="flow count"):
            hillclimb_destinations(model, diamond4, (0,), traffic, profile, capacities(diamond4))
        with pytest.raises(ManageError, match="must be positive"):
            hillclimb_destinations(
                model, diamond4, (0, 1), traffic, profile, capacities(diamond4), n_init=0
            )


GRAPHS = {"nsfnet": build_nsfnet(), "reggrid": build_reg_grid()}


def random_state(topology: str, kind: str, seed: int, n_flows: int):
    """A random twin, flow sources, traffic and target on a named graph."""
    graph = GRAPHS[topology]
    rng = np.random.default_rng(seed)
    model = make_model(kind, TASKS, seed, dims=kind_dims(kind, BATCH_DIMS, n_flows))
    sources = tuple(int(s) for s in rng.integers(graph.n_nodes, size=n_flows))
    traffic = TrafficParams(
        tuple(rng.uniform(1.0, 20.0, n_flows)), tuple(rng.uniform(1.0, 20.0, n_flows))
    )
    profile = TargetProfile(rng.uniform(0.5, 2.0, (n_flows, 4)), UNIT_IQR)
    return graph, model, sources, traffic, profile, rng


def random_destinations(rng, graph, sources) -> tuple[int, ...]:
    """A destination per flow, never its source, with no pair repeated."""
    while True:
        draws = rng.integers(graph.n_nodes - 1, size=len(sources))
        dests = tuple(int(d) + (int(d) >= s) for s, d in zip(sources, draws))
        if len(set(zip(sources, dests))) == len(sources):
            return dests


class TestBatchedScoring:
    """The hill-climb scores candidate sets in stacked forwards, whose J
    values are those of single-tape forwards, bit for bit."""

    @pytest.mark.parametrize("kind", ["glance", "routenet", "gnn"])
    @pytest.mark.parametrize("topology", ["nsfnet", "reggrid"])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_flows=st.integers(1, 10),
        size=st.integers(2, 16),
    )
    def test_batched_j_matches_single_tape(self, topology, kind, seed, n_flows, size):
        graph, model, sources, traffic, profile, rng = random_state(
            topology, kind, seed, n_flows
        )
        caps = link_capacities(graph, default_sim_config(graph.wired))
        tables = [
            shortest_paths(graph, FlowSet(sources, random_destinations(rng, graph, sources)), 0)
            for _ in range(size)
        ]
        batched = manage._batch_objective(
            model,
            stack_tables(graph, tables, traffic, caps),
            profile.layout(model.tasks),
        )
        for t, b in zip(tables, batched):
            exact = twin_objective(model, prepare_twin_input(graph, t, traffic, caps), profile)
            assert b == exact

    def routed(self, monkeypatch) -> list:
        calls = []
        real = manage.shortest_paths

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(manage, "shortest_paths", counted)
        return calls

    @pytest.mark.parametrize(
        "topology, kind, seed",
        [("nsfnet", "glance", 1), ("nsfnet", "routenet", 2),
         ("reggrid", "glance", 3), ("reggrid", "routenet", 4)],
    )
    def test_hillclimb_matches_one_tape_per_candidate(
        self, monkeypatch, topology, kind, seed
    ):
        graph, model, sources, traffic, profile, _ = random_state(topology, kind, seed, 5)
        kw = dict(n_init=12, n_rand=3, rng_seed=seed)
        dests, trajectory, restart, n_vectors = reference_hillclimb(
            model, graph, sources, traffic, profile, **kw
        )
        calls = self.routed(monkeypatch)
        result = hillclimb_destinations(
            model, graph, sources, traffic, profile, capacities(graph), **kw
        )
        assert result.optimized_destinations == dests
        assert result.trajectory == trajectory
        assert result.restart_best == restart
        # one route per distinct vector, as when each was scored alone
        assert len(calls) == n_vectors
        assert len({f.destinations for f in calls}) == n_vectors

    def test_gnn_hillclimb_matches_one_tape_per_candidate(self):
        graph, model, sources, traffic, profile, _ = random_state("nsfnet", "gnn", 5, 4)
        kw = dict(n_init=12, n_rand=2, rng_seed=5)
        dests, trajectory, restart, _ = reference_hillclimb(
            model, graph, sources, traffic, profile, **kw
        )
        result = hillclimb_destinations(
            model, graph, sources, traffic, profile, capacities(graph), **kw
        )
        assert len(trajectory) > 2
        assert (result.optimized_destinations, result.trajectory, result.restart_best) == (
            dests, trajectory, restart
        )

    @pytest.mark.parametrize("target", [1.0, 1e5], ids=["near", "far"])
    def test_batched_values_only_rule_candidates_out(self, monkeypatch, target):
        # stacked value-only J alone decides every move, with no lone
        # rescoring; a far target puts many candidates' J close together,
        # so any J off from its lone forward would change a decision
        graph, model, sources, traffic, profile, _ = random_state("nsfnet", "glance", 5, 6)
        profile = TargetProfile(profile.k_targ * target, UNIT_IQR)
        kw = dict(n_init=10, n_rand=2, rng_seed=8)
        dests, trajectory, restart, _ = reference_hillclimb(
            model, graph, sources, traffic, profile, **kw
        )

        def lone(*args):
            raise AssertionError("a J was rescored on a lone forward")

        monkeypatch.setattr(manage, "twin_objective", lone)
        result = hillclimb_destinations(
            model, graph, sources, traffic, profile, capacities(graph), **kw
        )
        assert len(trajectory) > 3
        assert (result.optimized_destinations, result.trajectory, result.restart_best) == (
            dests, trajectory, restart
        )

    def test_one_forward_per_scored_chunk(self, monkeypatch):
        # every J comes from a stacked forward of at most one flow's
        # candidates or EVAL_CHUNK starts, laid out straight from their
        # routing tables; none is scored again alone, and no candidate
        # gets a TwinInput of its own
        graph, model, sources, traffic, profile, _ = random_state("nsfnet", "glance", 5, 6)
        kw = dict(n_init=25, n_rand=2, rng_seed=8)
        _, trajectory, _, n_vectors = reference_hillclimb(
            model, graph, sources, traffic, profile, **kw
        )
        chunks, forwards = [], []
        stack, predict = manage.stack_tables, TwinModel.predict

        def stack_noting_size(graph, tables, traffic, caps):
            chunks.append(len(tables))
            return stack(graph, tables, traffic, caps)

        def predict_noting_blocks(self, inp):
            forwards.append(inp.blocks)
            return predict(self, inp)

        def lone(*args):
            raise AssertionError("a J was rescored on a lone forward")

        def built(*args):
            raise AssertionError("a candidate built a TwinInput")

        monkeypatch.setattr(manage, "stack_tables", stack_noting_size)
        monkeypatch.setattr(TwinModel, "predict", predict_noting_blocks)
        monkeypatch.setattr(manage, "twin_objective", lone)
        monkeypatch.setattr(TwinInput, "__init__", built)
        calls = self.routed(monkeypatch)
        result = hillclimb_destinations(
            model, graph, sources, traffic, profile, capacities(graph), **kw
        )
        assert result.trajectory == trajectory and len(trajectory) > 3
        assert len(calls) == len({f.destinations for f in calls}) == n_vectors
        assert forwards == chunks
        assert sum(chunks) == n_vectors
        assert EVAL_CHUNK in chunks
        assert all(c <= max(EVAL_CHUNK, graph.n_nodes - 2) for c in chunks)


class TestGdEvaluations:
    def case(self, topology, kind, seed):
        graph, model, sources, traffic, profile, rng = random_state(topology, kind, seed, 4)
        table = shortest_paths(
            graph, FlowSet(sources, random_destinations(rng, graph, sources)), seed
        )
        caps = link_capacities(graph, default_sim_config(graph.wired))
        inp = prepare_twin_input(graph, table, traffic, caps)
        tau0 = np.stack([traffic.tau_on, traffic.tau_off], axis=1)
        # aim at the twin's own KPIs at other traffic, so descent has a way to go
        star = TrafficParams(traffic.tau_off, traffic.tau_on)
        profile = TargetProfile(
            model.predict(prepare_twin_input(graph, table, star, caps)),
            UNIT_IQR,
        )
        return graph, model, table, inp, profile, tau0

    @pytest.mark.parametrize(
        "topology, kind, seed", [("nsfnet", "glance", 1), ("reggrid", "routenet", 2)]
    )
    def test_matches_two_forward_reference(self, topology, kind, seed):
        graph, model, table, inp, profile, tau0 = self.case(topology, kind, seed)
        result = gd_traffic(
            model, graph, table, profile, tau0, capacities(graph), max_iters=40
        )
        tau, trajectory = reference_gd_traffic(
            model, inp, profile, tau0, 0.1, 40, TRAFFIC_BOUNDS, GD_REL_TOL
        )
        assert len(trajectory) > 5
        assert result.trajectory == trajectory
        assert result.optimized_traffic.tobytes() == tau.tobytes()

    def test_one_forward_per_j_and_one_backward_per_iteration(self, monkeypatch):
        graph, model, table, _, profile, tau0 = self.case("nsfnet", "glance", 3)
        counts = {"forward": 0, "backward": 0, "j": 0, "layout": 0}
        forward, backward, on_tape = TwinModel.forward, Tape.backward, manage._objective_on_tape
        layout = TargetProfile.layout

        def count(key, fn):
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        outputs, loss_gaps = {}, []

        def forward_noting_output(self, tape, *args, **kwargs):
            out = forward(self, tape, *args, **kwargs)
            outputs[tape] = out.node_id
            return out

        def backward_noting_loss(self, loss):
            loss_gaps.append(loss.node_id - outputs[self])
            return backward(self, loss)

        monkeypatch.setattr(TwinModel, "forward", count("forward", forward_noting_output))
        monkeypatch.setattr(Tape, "backward", count("backward", backward_noting_loss))
        monkeypatch.setattr(manage, "_objective_on_tape", count("j", on_tape))
        monkeypatch.setattr(TargetProfile, "layout", count("layout", layout))
        result = gd_traffic(
            model, graph, table, profile, tau0, capacities(graph), max_iters=15
        )
        assert len(result.trajectory) > 5
        assert counts["layout"] == 1  # the objective is laid out once per solve
        assert counts["forward"] == counts["j"]
        assert counts["backward"] == result.iterations
        # the loss is one node, recorded right after the forward's output
        assert loss_gaps == [1] * result.iterations


class TestHingeRatio:
    def test_directions(self):
        targ = np.ones((1, 4))
        above = np.full((1, 4), 2.0)
        below = np.zeros((1, 4))
        assert hinge_failure_ratio(above, targ) == {
            "delay": 1.0, "jitter": 1.0, "throughput": 0.0, "drops": 1.0,
        }
        assert hinge_failure_ratio(below, targ) == {
            "delay": 0.0, "jitter": 0.0, "throughput": 1.0, "drops": 0.0,
        }
        # a cell missing from either matrix drops out of its KPI's ratio
        gaps = np.array([[2.0, 1.0, 1.0, 1.0], [math.nan, 1.0, 1.0, 1.0]])
        out = hinge_failure_ratio(gaps, np.ones((2, 4)))
        assert out["delay"] == 1.0 and out["jitter"] == 0.0

    def test_equality_passes(self):
        targ = np.ones((2, 4))
        assert all(v == 0.0 for v in hinge_failure_ratio(targ.copy(), targ).values())

    def test_direction_table(self):
        assert HINGE_UPPER == {
            "delay": True, "jitter": True, "throughput": False, "drops": True,
        }


class TestEvaluateManagement:
    def states(self):
        orig = NetworkInput(FlowSet((0,), (2,)), TrafficParams((100.0,), (100.0,)))
        gen = NetworkInput(FlowSet((0,), (1,)), TrafficParams((100.0,), (100.0,)))
        return orig, gen

    @staticmethod
    def shell():
        return ManageResult(
            kind="traffic", optimized_traffic=np.array([[5.0, 5.0]]),
            optimized_destinations=None, trajectory=[1.0, 0.5],
            iterations=1, converged=True,
        )

    def test_seed_validation(self, line3):
        orig, gen = self.states()
        config = default_sim_config(True, t_gen=2.0)
        for seeds, iqr, message in (
            (list(range(8)), UNIT_IQR, "nine distinct seeds"),
            ([1] * 9, UNIT_IQR, "nine distinct seeds"),
            (list(range(9)), np.zeros(4), "positive scales"),
        ):
            with pytest.raises(ManageError, match=message):
                evaluate_management(line3, orig, gen, config, seeds, iqr, self.shell())

    def test_protocol_averages_and_errors(self, line3):
        orig, gen = self.states()
        config = default_sim_config(True, t_gen=2.0)
        seeds = list(range(9))
        result = evaluate_management(
            line3, orig, gen, config, seeds, UNIT_IQR, self.shell()
        )
        assert result.k_targ.shape == (1, 4)
        # the uncontended line delivers every packet in exactly two hops
        assert result.k_targ[0, 0] == pytest.approx(3.36, abs=1e-9)
        assert result.k_bm[0, 0] == pytest.approx(3.36, abs=1e-9)
        assert result.eps_bm["per_task"]["delay"] == pytest.approx(0.0, abs=1e-9)
        # the proposal only crosses one hop, so its delay drops well below
        assert result.k_gen[0, 0] == pytest.approx(1.68, abs=1e-9)
        assert result.eps_gen["per_task"]["delay"] == pytest.approx(1.68, abs=1e-9)
        assert result.eps_gen["pooled"] > 0.0
        # a shorter delay sits on the allowed side of the target
        assert result.hinge_failures["delay"] == 0.0
        assert set(result.hinge_failures) == set(TASKS)
        assert set(result.r2) == {"pooled", "per_task"}

    def test_fills_existing_result(self, line3):
        orig, gen = self.states()
        config = default_sim_config(True, t_gen=2.0)
        shell = self.shell()
        result = evaluate_management(
            line3, orig, gen, config, list(range(9)), UNIT_IQR, result=shell
        )
        assert result is shell
        assert shell.kind == "traffic"
        assert shell.trajectory == [1.0, 0.5]
        assert shell.eps_gen is not None and shell.eps_bm is not None

    def test_deterministic(self, line3):
        orig, gen = self.states()
        config = default_sim_config(True, t_gen=2.0)
        seeds = [3, 1, 4, 15, 9, 2, 6, 5, 35]
        r1 = evaluate_management(line3, orig, gen, config, seeds, UNIT_IQR, self.shell())
        r2 = evaluate_management(line3, orig, gen, config, seeds, UNIT_IQR, self.shell())
        assert r1.to_jsonable() == r2.to_jsonable()


class TestResultPlumbing:
    def test_trajectory_csv(self):
        result = ManageResult(
            kind="traffic", optimized_traffic=None, optimized_destinations=None,
            trajectory=[1.0, 0.5, 0.25], iterations=2, converged=True,
        )
        assert trajectory_csv(result) == "step,objective\n0,1\n1,0.5\n2,0.25\n"

    def test_jsonable_replaces_gaps(self):
        result = ManageResult(
            kind="evaluation", optimized_traffic=None, optimized_destinations=None,
            trajectory=[], iterations=0, converged=True,
            k_targ=np.array([[1.0, math.nan, 3.0, 4.0]]),
        )
        payload = result.to_jsonable()
        assert payload["k_targ"] == [[1.0, None, 3.0, 4.0]]
        assert payload["optimized_traffic"] is None

    def test_network_input_validation(self):
        with pytest.raises(ManageError, match="flow count"):
            NetworkInput(FlowSet((0, 1), (2, 3)), TrafficParams((5.0,), (5.0,)))
