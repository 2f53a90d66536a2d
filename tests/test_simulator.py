"""Discrete-event simulator: traffic, queueing KPIs, repeated-run estimators."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nettwin import simulator
from nettwin.manage import NetworkInput, mean_runs
from nettwin.nettopo import (
    FlowSet,
    Graph,
    build_nsfnet,
    build_pert_grid,
    build_reg_grid,
    sample_flows,
)
from nettwin.routing import Path, RoutingTable, shortest_paths
from nettwin.seeding import derive_seed, make_rng
from nettwin.simulator import (
    ATTEN_REF,
    TASKS,
    KpiRecord,
    SimConfig,
    SimulationError,
    TrafficParams,
    benchmark_run_seeds,
    default_sim_config,
    link_capacities,
    run_benchmarks,
    run_sim,
    sample_traffic_params,
)

from oracles import random_connected_adjacency, reference_run_sim, simbase_estimate

DELAY, JITTER, THROUGHPUT, DROPS = range(4)


class TestTrafficParams:
    def test_validation(self):
        with pytest.raises(SimulationError, match="length"):
            TrafficParams((1.0, 2.0), (1.0,))
        with pytest.raises(SimulationError, match="at least one"):
            TrafficParams((), ())
        with pytest.raises(SimulationError, match="positive"):
            TrafficParams((0.0,), (1.0,))
        with pytest.raises(SimulationError, match="positive"):
            TrafficParams((1.0,), (math.nan,))

    def test_discrete_support(self):
        t = sample_traffic_params(500, "discrete", seed=1)
        assert set(t.tau_on) <= {1.0, 10.0, 20.0}
        assert set(t.tau_off) <= {1.0, 10.0, 20.0}

    def test_discrete_frequencies_within_three_sigma(self):
        n = 10_000
        t = sample_traffic_params(n, "discrete", seed=2)
        margin = 3.0 * math.sqrt((1 / 3) * (2 / 3) / n)
        for draws in (t.tau_on, t.tau_off):
            for value in (1.0, 10.0, 20.0):
                freq = sum(1 for x in draws if x == value) / n
                assert abs(freq - 1 / 3) < margin

    def test_continuous_range_and_mean(self):
        n = 10_000
        t = sample_traffic_params(n, "continuous", seed=3)
        on = np.array(t.tau_on)
        assert on.min() >= 1.0 and on.max() <= 20.0
        # U(1, 20): mean 10.5, sd 19/sqrt(12)
        assert abs(on.mean() - 10.5) < 3.0 * (19 / math.sqrt(12)) / math.sqrt(n)

    def test_deterministic_and_mode_checked(self):
        a = sample_traffic_params(5, "discrete", seed=4)
        b = sample_traffic_params(5, "discrete", seed=4)
        assert a == b
        with pytest.raises(SimulationError, match="mode"):
            sample_traffic_params(5, "poisson", seed=0)
        with pytest.raises(SimulationError):
            sample_traffic_params(0, "discrete", seed=0)


class TestSimConfig:
    def test_defaults_by_medium(self):
        wired = default_sim_config(wired=True)
        assert wired.cbr_rate == 100_000.0
        assert not wired.wireless_contention
        wireless = default_sim_config(wired=False, t_gen=30.0)
        assert wireless.cbr_rate == 50_000.0
        assert wireless.wireless_contention
        assert wireless.t_gen == 30.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            SimConfig(t_gen=0.0)
        with pytest.raises(SimulationError):
            SimConfig(queue_buffer_pkts=0)
        with pytest.raises(SimulationError):
            SimConfig(cbr_rate=-1.0)

    @pytest.mark.parametrize(
        "field", ["t_gen", "t_prep", "cbr_rate", "link_capacity_default"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_settings_rejected(self, field, value):
        # an infinite t_gen would make the emission loop run without end
        with pytest.raises(SimulationError, match="finite"):
            SimConfig(**{field: value})

    def test_link_capacities(self, reg44, line3):
        config = default_sim_config(wired=False)
        caps = link_capacities(reg44, config)
        r_near = reg44.link_index[(0, 1)]
        r_diag = reg44.link_index[(0, 5)]
        # 30 m reference link gets the default; the longer diagonal gets less
        assert caps[r_near] == pytest.approx(1e6, rel=1e-12)
        assert caps[r_diag] == pytest.approx(1e6 * math.log(901.0) / math.log(1801.0), rel=1e-12)
        assert caps[r_diag] < caps[r_near]
        wired_caps = link_capacities(line3, default_sim_config(wired=True))
        assert np.all(wired_caps == 1e6)

    def test_atten_ref_value(self):
        assert ATTEN_REF == pytest.approx(1.0 / math.log(901.0), abs=0.0)


class TestRunSim:
    def test_two_hop_pipeline_latency(self, line3):
        # idle 1 Mb/s line: each hop takes 1680 bits / 1e6 = 1.68 ms and the
        # single flow never queues, so every delivered packet sees 3.36 ms
        table = shortest_paths(line3, FlowSet((0,), (2,)), seed=0)
        traffic = TrafficParams((5.0,), (5.0,))
        config = default_sim_config(wired=True, t_gen=20.0)
        rec = run_sim(line3, table, traffic, config, seed=1)
        gen, delivered, overflow, in_flight = rec.counts[0]
        assert delivered > 10
        assert rec.kpis[0, DELAY] == pytest.approx(3.36, abs=1e-9)
        assert rec.kpis[0, JITTER] == pytest.approx(0.0, abs=1e-12)
        assert overflow == 0
        assert rec.kpis[0, THROUGHPUT] == pytest.approx(
            delivered * 1680 / 20.0 / 1000.0, abs=1e-12
        )
        assert rec.kpis[0, DROPS] == overflow + in_flight

    def test_conservation_and_offered_load_cap(self):
        cases = [
            (build_reg_grid(), False, 4, "discrete"),
            (build_nsfnet(), True, 6, "continuous"),
        ]
        for graph, wired, n_flows, mode in cases:
            from nettwin.nettopo import sample_flows

            flows = sample_flows(graph, n_flows, seed=8)
            traffic = sample_traffic_params(n_flows, mode, seed=9)
            config = default_sim_config(wired=wired, t_gen=10.0)
            table = shortest_paths(graph, flows, seed=10)
            rec = run_sim(graph, table, traffic, config, seed=11)
            gen = rec.counts[:, 0]
            assert np.array_equal(gen, rec.counts[:, 1:].sum(axis=1))
            assert np.all(rec.kpis[:, THROUGHPUT] <= config.cbr_rate / 1000.0 + 1e-9)
            assert np.array_equal(
                rec.kpis[:, DROPS], (rec.counts[:, 2] + rec.counts[:, 3]).astype(float)
            )

    def test_saturated_shared_link(self, line3):
        # two always-on 100 kb/s flows share one 100 kb/s link
        flows = FlowSet((0, 1), (2, 2))
        table = shortest_paths(line3, flows, seed=0)
        traffic = TrafficParams((20.0, 20.0), (0.001, 0.001))
        config = SimConfig(
            t_gen=30.0,
            cbr_rate=100_000.0,
            link_capacity_default=100_000.0,
            wireless_contention=False,
        )
        rec = run_sim(line3, table, traffic, config, seed=3)
        assert rec.kpis[:, THROUGHPUT].sum() <= 100.0 + 1e-9
        assert np.all(rec.kpis[:, DROPS] > 0)

    def test_deterministic_given_seed(self, line3):
        table = shortest_paths(line3, FlowSet((0, 2), (2, 0)), seed=0)
        traffic = TrafficParams((2.0, 1.0), (1.0, 3.0))
        config = default_sim_config(wired=True, t_gen=15.0)
        a = run_sim(line3, table, traffic, config, seed=7)
        b = run_sim(line3, table, traffic, config, seed=7)
        assert a.kpis.tobytes() == b.kpis.tobytes()
        assert np.array_equal(a.counts, b.counts)

    def test_flow_count_mismatch(self, line3):
        table = shortest_paths(line3, FlowSet((0,), (2,)), seed=0)
        with pytest.raises(SimulationError):
            run_sim(line3, table, TrafficParams((1.0, 1.0), (1.0, 1.0)),
                    default_sim_config(True), seed=0)

    def test_path_crossing_a_link_twice(self, line3):
        # each link keeps one next hop per flow, so a flow may cross it once
        table = RoutingTable(
            (
                Path(0, ((0, 1), (1, 2))),
                Path(1, ((0, 1), (1, 0), (0, 1), (1, 2))),
            ),
            seed=0,
        )
        with pytest.raises(SimulationError, match=r"flow 1 crosses link \(0, 1\) twice"):
            run_sim(line3, table, TrafficParams((1.0, 1.0), (1.0, 1.0)),
                    default_sim_config(True), seed=0)


class TestKpiRecord:
    def test_jsonable_round_trip(self):
        kpis = np.array([[1.5, math.nan, 3.0, 0.0]])
        rows = KpiRecord(kpis).to_jsonable()
        assert rows == [[1.5, None, 3.0, 0.0]]
        back = KpiRecord.from_jsonable(rows)
        assert np.array_equal(np.isnan(back.kpis), np.isnan(kpis))
        assert back.kpis[0, 0] == 1.5

    def test_shape_checked(self):
        with pytest.raises(SimulationError):
            KpiRecord(np.zeros((2, 3)))

    @given(st.lists(
        st.lists(st.one_of(st.none(), st.floats(allow_nan=False), st.integers(-10**6, 10**6)),
                 min_size=4, max_size=4),
        min_size=1, max_size=5,
    ))
    @example([[None, 1.5, 2, -0.0]])
    def test_from_jsonable_matches_cell_by_cell(self, rows):
        # one numpy conversion gives the bytes of float() per cell, and a
        # null cell the bits of math.nan
        want = np.array([[math.nan if x is None else float(x) for x in row] for row in rows])
        got = KpiRecord.from_jsonable(rows).kpis
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


class TestBenchmarks:
    def test_single_run_is_reference_only(self, line3):
        runset = run_benchmarks(
            line3, FlowSet((0,), (2,)), TrafficParams((2.0,), (2.0,)),
            default_sim_config(True, t_gen=5.0), n_runs=1, seed=0,
        )
        assert len(runset.records) == 1
        assert len(runset.seeds) == 1
        assert runset.reference_table is not None

    def test_seed_bookkeeping_matches_helper(self, line3):
        runset = run_benchmarks(
            line3, FlowSet((0,), (2,)), TrafficParams((2.0,), (2.0,)),
            default_sim_config(True, t_gen=5.0), n_runs=3, seed=42,
        )
        for r, entry in enumerate(runset.seeds):
            routing_seed, sim_seed = benchmark_run_seeds(42, r)
            assert entry == {"routing": routing_seed, "sim": sim_seed}

    def test_bit_identical_replay(self, reg44):
        from nettwin.nettopo import sample_flows

        flows = sample_flows(reg44, 3, seed=1)
        traffic = sample_traffic_params(3, "discrete", seed=2)
        config = default_sim_config(wired=False, t_gen=5.0)
        a = run_benchmarks(reg44, flows, traffic, config, n_runs=2, seed=6)
        b = run_benchmarks(reg44, flows, traffic, config, n_runs=2, seed=6)
        for ra, rb in zip(a.records, b.records):
            assert ra.kpis.tobytes() == rb.kpis.tobytes()
        assert a.seeds == b.seeds

    def test_reroute_witnessed_across_instances(self, reg44):
        # flow (0, 2) has two minimal routes, via node 1 or node 5; with
        # per-run routing seeds some benchmark run must pick the other one
        flows = FlowSet((0,), (2,))
        traffic = TrafficParams((5.0,), (5.0,))
        config = default_sim_config(wired=False, t_gen=2.0)
        witnessed = 0
        for base_seed in range(100):
            runset = run_benchmarks(reg44, flows, traffic, config, n_runs=4, seed=base_seed)
            ref = runset.reference_table.paths[0].links
            tables = [
                shortest_paths(reg44, flows, runset.seeds[r]["routing"]).paths[0].links
                for r in range(1, 4)
            ]
            if any(t != ref for t in tables):
                witnessed += 1
        assert witnessed >= 1

    def test_needs_at_least_one_run(self, line3):
        with pytest.raises(SimulationError):
            run_benchmarks(line3, FlowSet((0,), (2,)), TrafficParams((1.0,), (1.0,)),
                           default_sim_config(True), n_runs=0, seed=0)


class TestSimbaseEstimate:
    """The per-sample repeat-average oracle that simbase_rows is checked against."""

    def runs(self, *rows):
        return [np.array([row], dtype=np.float64) for row in rows]

    def test_mean_of_first_n_benchmarks(self):
        runs = self.runs([2, 2, 2, 2], [4, 4, 4, 4], [9, 9, 9, 9])
        assert np.array_equal(simbase_estimate(runs, 2), [[3.0, 3.0, 3.0, 3.0]])

    def test_n_equal_one_is_verbatim(self):
        runs = self.runs([2, math.nan, 2, 2], [4, 4, 4, 4])
        est = simbase_estimate(runs, 1)
        assert est[0, 0] == 2.0
        assert math.isnan(est[0, 1])

    def test_missing_cell_averages_available_runs(self):
        runs = self.runs([2, 2, 2, 2], [4, math.nan, 4, 4])
        est = simbase_estimate(runs, 2)
        assert est[0, 1] == 2.0  # only run 1 has the cell
        assert est[0, 0] == 3.0

    def test_n_bounds(self):
        runs = self.runs([2, 2, 2, 2])
        with pytest.raises(ValueError):
            simbase_estimate(runs, 0)
        with pytest.raises(ValueError):
            simbase_estimate(runs, 2)


class TestManagementRuns:
    def test_constant_kpis_agree_and_replay(self, line3):
        flows = FlowSet((0,), (2,))
        traffic = TrafficParams((5.0,), (5.0,))
        config = default_sim_config(wired=True, t_gen=10.0)
        seeds = [derive_seed(100, "mg", k) for k in range(6)]
        state = NetworkInput(flows, traffic)
        k_a = mean_runs(line3, state, config, seeds[:3])
        k_b = mean_runs(line3, state, config, seeds[3:])
        # per-packet latency is structurally constant here, so both
        # averages land on the same value; jitter is identically zero
        assert k_a[0, DELAY] == pytest.approx(3.36, abs=1e-9)
        assert k_b[0, DELAY] == pytest.approx(3.36, abs=1e-9)
        assert k_a[0, JITTER] == pytest.approx(0.0, abs=1e-12)
        assert k_b[0, JITTER] == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(k_a, mean_runs(line3, state, config, seeds[:3]))
        assert np.array_equal(k_b, mean_runs(line3, state, config, seeds[3:]))

    def test_averages_converge_with_longer_runs(self):
        # the two 3-run averages estimate the same state, so their gap
        # shrinks as the generation window grows
        graph = build_reg_grid(2, 2)
        flows = FlowSet((0, 3), (3, 1))
        gaps = {}
        for t_gen in (15.0, 60.0):
            config = default_sim_config(wired=False, t_gen=t_gen)
            diffs = []
            for inst in range(16):
                traffic = sample_traffic_params(2, "continuous", seed=inst)
                seeds = [derive_seed(inst, "conv", int(t_gen), k) for k in range(6)]
                state = NetworkInput(flows, traffic)
                k_a = mean_runs(graph, state, config, seeds[:3])
                k_b = mean_runs(graph, state, config, seeds[3:])
                diffs.append(np.abs(k_a - k_b))
            pooled = np.stack(diffs)
            with np.errstate(invalid="ignore"):
                gaps[t_gen] = (
                    np.nanmean(pooled[:, :, DELAY]),
                    np.nanmean(pooled[:, :, THROUGHPUT]),
                )
        assert gaps[60.0][0] < gaps[15.0][0]
        assert gaps[60.0][1] < gaps[15.0][1]


def test_tasks_tuple():
    assert TASKS == ("delay", "jitter", "throughput", "drops")


def _case_runs(graph, n_runs, n_flows, mode, seed):
    """n_runs (table, traffic, sim seed) triples drawn from one base seed."""
    runs = []
    for k in range(n_runs):
        flows = sample_flows(graph, n_flows, seed=derive_seed(seed, "flows", k))
        traffic = sample_traffic_params(n_flows, mode, seed=derive_seed(seed, "traffic", k))
        table = shortest_paths(graph, flows, seed=derive_seed(seed, "routing", k))
        runs.append((table, traffic, derive_seed(seed, "sim", k)))
    return runs


def _sim_case(name):
    wired = default_sim_config(wired=True, t_gen=20.0)
    wireless = default_sim_config(wired=False, t_gen=20.0)
    return {
        "nsfnet": (build_nsfnet(), wired),
        "reggrid": (build_reg_grid(), wireless),
        "pertgrid": (build_pert_grid(seed=3), wireless),
        "reggrid-no-contention": (
            build_reg_grid(), replace(wireless, wireless_contention=False)
        ),
        # 100 kb/s sources fill the two-packet buffers, so packets overflow
        "reggrid-buffer2": (
            build_reg_grid(), replace(wireless, queue_buffer_pkts=2, cbr_rate=100_000.0)
        ),
        # wired links serve their own queues; 500 kb/s sources overflow them
        "nsfnet-buffer2": (
            build_nsfnet(),
            replace(wired, queue_buffer_pkts=2, cbr_rate=500_000.0),
        ),
        # tx_time equals the packet interval, so emissions and TX ends fall
        # on the same float times and the emission stream's tie rule decides
        "nsfnet-tx-eq-interval": (
            build_nsfnet(), replace(wired, link_capacity_default=wired.cbr_rate)
        ),
        # now + tx_time == now: every hop ends at its packet's emission time
        "nsfnet-absorbed": (build_nsfnet(), replace(wired, link_capacity_default=1e300)),
    }[name]


class TestAgainstReferenceLoop:
    """run_sim against the plain event loop of tests/oracles.py, byte for byte."""

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize(
        "name",
        [
            "nsfnet", "reggrid", "pertgrid", "reggrid-no-contention",
            "reggrid-buffer2", "nsfnet-buffer2", "nsfnet-tx-eq-interval",
            "nsfnet-absorbed",
        ],
    )
    def test_bytes_match(self, name, mode):
        graph, config = _sim_case(name)
        ties = blocks = overflow = 0
        for table, traffic, sim_seed in _case_runs(graph, 3, 10, mode, seed=5):
            got = run_sim(graph, table, traffic, config, sim_seed)
            want, n_ties, n_blocks = reference_run_sim(
                graph, table, traffic, config, sim_seed
            )
            assert got.kpis.tobytes() == want.kpis.tobytes()
            assert got.counts.tobytes() == want.counts.tobytes()
            ties += n_ties
            blocks += n_blocks
            overflow += int(want.counts[:, 2].sum())
        # same-time events occur, so the tie-break order is compared, not assumed
        assert ties > 0
        if name in ("reggrid", "pertgrid", "reggrid-buffer2"):
            # a grant stops a later pending link, so the grant order is compared too
            assert blocks > 0
        if name.endswith("-buffer2"):
            assert overflow > 0

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=1, max_value=8),
        st.booleans(),
        st.sampled_from(["discrete", "continuous"]),
    )
    def test_random_graphs(self, seed, n_nodes, n_flows, wired, mode):
        a = random_connected_adjacency(make_rng(seed, "oracle-graph"), n_nodes)
        graph = Graph(a, None, wired=wired)
        config = default_sim_config(wired=wired, t_gen=5.0)
        n_flows = min(n_flows, n_nodes * (n_nodes - 1))
        for table, traffic, sim_seed in _case_runs(graph, 1, n_flows, mode, seed):
            got = run_sim(graph, table, traffic, config, sim_seed)
            want, _, _ = reference_run_sim(graph, table, traffic, config, sim_seed)
            assert got.kpis.tobytes() == want.kpis.tobytes()
            assert got.counts.tobytes() == want.counts.tobytes()


@pytest.mark.parametrize(
    "name, digest",
    [
        ("nsfnet", "5dd996dff31f54f3a237037864ba8083463f8c9d89e5011653d24d95cba32690"),
        ("reggrid", "3e221befc834aeb5944e2f402f42951c519e4009f0f35858438bf7c00bab7d11"),
    ],
    ids=["nsfnet", "reggrid"],
)
def test_run_sim_bytes_pinned(name, digest):
    # RNG streams, event order and the KPI arithmetic all feed these digests;
    # a change that moves any of them moves a digest
    graph, config = _sim_case(name)
    h = hashlib.sha256()
    for mode in ("discrete", "continuous"):
        for table, traffic, sim_seed in _case_runs(graph, 4, 10, mode, seed=17):
            rec = run_sim(graph, table, traffic, config, sim_seed)
            h.update(rec.kpis.tobytes() + rec.counts.tobytes())
    assert h.hexdigest() == digest


def test_kpi_bytes_do_not_depend_on_sum(monkeypatch):
    # Python 3.12's sum adds plain floats with compensation, so a KPI mean
    # taken with sum would move bits between Pythons; shadowing it with fsum
    # shows that no reduction in the module calls it
    def digests():
        out = []
        for name in ("nsfnet", "reggrid"):
            graph, config = _sim_case(name)
            for mode in ("discrete", "continuous"):
                for table, traffic, sim_seed in _case_runs(graph, 2, 10, mode, seed=17):
                    rec = run_sim(graph, table, traffic, config, sim_seed)
                    out.append(rec.kpis.tobytes() + rec.counts.tobytes())
        return out

    plain = digests()
    monkeypatch.setattr(simulator, "sum", math.fsum, raising=False)
    assert digests() == plain
