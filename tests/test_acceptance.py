"""Release gate: nine end-to-end checks, one printed verdict per check.

Each check wraps its assertions in `verdict`, which reports PASS or FAIL on
the real stdout (visible despite pytest's capture) and enforces the stated
runtime budget. Checks 5 and 6 generate their own datasets and train real
models, so the full file takes several minutes.
"""

from __future__ import annotations

import math
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from conftest import embedding_names, wired_graph
from nettwin.autodiff import Tape
from nettwin.manage import (
    TRAFFIC_BOUNDS,
    TargetProfile,
    gd_traffic,
    hillclimb_destinations,
    twin_objective,
)
from nettwin.nettopo import FlowSet, Graph, build_pert_grid, build_reg_grid, sample_flows
from nettwin.pipeline import (
    GenConfig,
    IQR_EPS,
    TrainConfig,
    clean_test_samples,
    clean_train_samples,
    evaluate_model,
    fit_normalizer,
    generate_dataset,
    load_dataset,
    loss_values,
    map_jobs,
    naive_rows,
    run_strategy,
    train_model,
    training_defaults,
    transfer_model,
)
from nettwin.routing import Path as RoutePath
from nettwin.routing import RoutingTable, shortest_paths
from nettwin.seeding import derive_seed
from nettwin.simulator import (
    TASKS,
    TrafficParams,
    default_sim_config,
    link_capacities,
    run_sim,
    sample_traffic_params,
)
from nettwin.twin import COMPACT, GlanceDims, GnnDims, make_model, prepare_twin_input
from oracles import (
    ComposedTape,
    bootstrap_mean_diff_ci,
    fd_gradient,
    max_rel_err,
    minimal_node_paths,
    random_connected_adjacency,
)

#: 4/4/8 with two message-passing layers, the size the gradient check runs at
SMALL_DIMS = GlanceDims(
    d_node=4, d_link=4, d_path=8, t_layers=2, l_max=2,
    link_hidden=(8,), readout_hidden=(8,),
)


@contextmanager
def verdict(capsys, index: int, label: str, budget_s: float | None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        took = time.perf_counter() - t0
        if budget_s is not None:
            assert took < budget_s, f"took {took:.1f}s, budget {budget_s:.0f}s"
        ok = True
    finally:
        took = time.perf_counter() - t0
        with capsys.disabled():
            state = "PASS" if ok else "FAIL"
            print(f"acceptance {index} ({label}): {state} ({took:.1f}s)")


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def path_nodes(path: RoutePath) -> tuple[int, ...]:
    return (path.links[0][0],) + tuple(j for _, j in path.links)


def test_1_gradient_oracle(capsys):
    """Every parameter gradient matches central finite differences."""
    with verdict(capsys, 1, "gradient oracle", 60.0):
        graph = wired_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        flows = FlowSet((0, 3), (3, 0))
        table = shortest_paths(graph, flows, seed=1)
        traffic = TrafficParams((10.0, 4.0), (2.0, 8.0))
        caps = link_capacities(graph, default_sim_config(wired=True))
        inp = prepare_twin_input(graph, table, traffic, caps)
        model = make_model("glance", TASKS, 3, dims=SMALL_DIMS)
        w = np.linspace(0.5, 2.0, 2 * len(TASKS)).reshape(2, len(TASKS))

        tape = ComposedTape()
        bound = model.params.bind(tape)
        preds = model.forward(tape, bound, inp)
        loss = tape.total_sum(tape.mul(preds, tape.constant(w)))
        grads = tape.backward(loss)

        def loss_value(_buf: np.ndarray) -> float:
            t = Tape()
            p = model.forward(t, model.params.bind(t), inp)
            return float((p.value * w).sum())

        worst = 0.0
        for name in model.params.names():
            want = fd_gradient(loss_value, model.params[name])
            worst = max(worst, max_rel_err(grads[bound[name]], want))
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


def test_2_equivariance_suite(capsys):
    """Node relabeling changes nothing, flow order commutes, the gnn does not."""
    with verdict(capsys, 2, "equivariance suite", 10.0):
        dims = GlanceDims(
            d_node=4, d_link=4, d_path=8, t_layers=2, l_max=4,
            link_hidden=(8,), readout_hidden=(8,),
        )
        g = build_pert_grid(2, 3, seed=7)
        config = default_sim_config(wired=False)
        flows = FlowSet((0, 5, 1), (5, 0, 3))
        traffic = TrafficParams((10.0, 3.0, 6.0), (2.0, 8.0, 14.0))
        table = shortest_paths(g, flows, seed=2)
        caps = link_capacities(g, config)
        model = make_model("glance", TASKS, 11, dims=dims)
        base = model.predict(prepare_twin_input(g, table, traffic, caps))

        # relabel the nodes: new index u holds old node perm[u]
        perm = np.array([3, 0, 5, 1, 4, 2])
        inv = np.argsort(perm)
        g2 = Graph(g.adjacency[np.ix_(perm, perm)], g.positions[perm], wired=False)
        paths2 = tuple(
            RoutePath(p.flow_index, tuple((int(inv[i]), int(inv[j])) for i, j in p.links))
            for p in table.paths
        )
        inp2 = prepare_twin_input(
            g2, RoutingTable(paths2, table.seed), traffic,
            link_capacities(g2, config),
        )
        assert np.abs(model.predict(inp2) - base).max() <= 1e-9

        # permute the flows: position k now carries old flow sigma[k]
        sigma = (2, 0, 1)
        paths_s = tuple(
            RoutePath(k, table.paths[f].links) for k, f in enumerate(sigma)
        )
        traffic_s = TrafficParams(
            tuple(traffic.tau_on[f] for f in sigma),
            tuple(traffic.tau_off[f] for f in sigma),
        )
        inp_s = prepare_twin_input(
            g, RoutingTable(paths_s, table.seed), traffic_s, caps
        )
        assert np.array_equal(model.predict(inp_s), base[list(sigma)])

        # the fixed-width baseline is order-sensitive: same permutation, new output
        gnn = make_model("gnn", TASKS, 5, dims=GnnDims(n_flows=3))
        gnn_base = gnn.predict(prepare_twin_input(g, table, traffic, caps))
        gnn_perm = gnn.predict(inp_s)
        assert np.abs(gnn_perm - gnn_base[list(sigma)]).max() > 1e-6


def test_3_routing_oracle(capsys):
    """Routed paths are always minimal; cycle ties fall both ways."""
    with verdict(capsys, 3, "routing oracle", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(2, 11))
            adj = random_connected_adjacency(rng, n)
            graph = Graph(adj, None, wired=True)
            s, d = (int(x) for x in rng.choice(n, size=2, replace=False))
            table = shortest_paths(
                graph, FlowSet((s,), (d,)), int(rng.integers(2**31))
            )
            assert path_nodes(table.paths[0]) in minimal_node_paths(adj, s, d)

        cyc = wired_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        seen = set()
        for seed in range(200):
            table = shortest_paths(cyc, FlowSet((0,), (2,)), seed)
            seen.add(path_nodes(table.paths[0]))
        assert seen == {(0, 1, 2), (0, 3, 2)}


def test_4_simulator_conservation(capsys):
    """Packet counters balance exactly and throughput never beats the source."""
    with verdict(capsys, 4, "simulator conservation", 120.0):
        grid = build_reg_grid()
        config = default_sim_config(wired=False, t_gen=30.0)
        offered_kbps = config.cbr_rate / 1000.0
        thr_col = TASKS.index("throughput")
        rng = np.random.default_rng(7)
        for trial in range(200):
            n_flows = int(rng.integers(1, 11))
            mode = "discrete" if trial % 2 == 0 else "continuous"
            seed = int(rng.integers(2**31))
            flows = sample_flows(grid, n_flows, derive_seed(seed, "flows"))
            traffic = sample_traffic_params(n_flows, mode, derive_seed(seed, "traffic"))
            table = shortest_paths(grid, flows, derive_seed(seed, "routing"))
            rec = run_sim(grid, table, traffic, config, derive_seed(seed, "sim"))
            gen, delivered, overflow, in_flight = rec.counts.T
            assert np.array_equal(gen, delivered + overflow + in_flight)
            assert np.all(rec.kpis[:, thr_col] <= offered_kbps + 1e-9)


def stacked_mean(stack: np.ndarray) -> np.ndarray:
    """Mean over axis 0 ignoring NaNs; all-NaN cells stay NaN, silently."""
    finite = np.isfinite(stack)
    count = finite.sum(axis=0)
    total = np.where(finite, stack, 0.0).sum(axis=0)
    out = np.full(stack.shape[1:], np.nan)
    np.divide(total, count, out=out, where=count > 0)
    return out


def test_5_repeat_average_trend(capsys, tmp_path):
    """Averaging more benchmark runs tracks the reference monotonically better."""
    with verdict(capsys, 5, "repeat-average trend", 600.0):
        # perturbed 4x4 grids rarely keep hop diameter 3, so allow 4-hop paths
        config = GenConfig(
            scenario="pertgrid-randtopo", n_train=0, n_val=0, n_test=200,
            n_r_test=4, t_gen=30.0, l_max=4, seed=0,
        )
        generate_dataset(config, tmp_path / "ds", jobs=4)
        samples = load_dataset(tmp_path / "ds").splits["test"]
        norm = fit_normalizer(samples)
        live = norm.iqr > IQR_EPS  # degenerate columns carry no signal

        budgets = (1, 2, 3)
        errs: dict[int, list[float]] = {n: [] for n in budgets}
        for s in samples:
            bench = np.stack(s.bench_runs)
            rows = {}
            for n in budgets:
                diff = np.abs(stacked_mean(bench[:n]) - s.labels) / norm.iqr
                cells = diff[:, live]
                cells = cells[np.isfinite(cells)]
                if cells.size:
                    rows[n] = float(cells.mean())
            if len(rows) == len(budgets):  # keep the per-sample pairing intact
                for n, v in rows.items():
                    errs[n].append(v)

        e1, e2, e3 = (np.array(errs[n]) for n in budgets)
        assert len(e1) >= 200
        means = [e.mean() for e in (e1, e2, e3)]
        assert means[1] <= means[0], f"mean rose from n=1 to n=2: {means}"
        assert means[2] <= means[1], f"mean rose from n=2 to n=3: {means}"
        lo, hi = bootstrap_mean_diff_ci(e3, e1, seed=0)
        assert hi < 0.0, f"n=3 vs n=1 CI [{lo:.4f}, {hi:.4f}] touches zero"


def _mtl_test_row(seed: int, data: tuple) -> dict[str, float]:
    """One check-6 multi-task run: its best snapshot's test NMAE row."""
    train, val, test, norm = data
    defaults = training_defaults("reggrid-fixed")
    cfg = TrainConfig(strategy="mtl", epochs=30, seed=seed, **defaults)
    outcome = run_strategy(train, val, cfg, n_flows=10, normalizer=norm)
    outcome.model.params = outcome.result.best_params
    return evaluate_model(outcome.model, test, norm)


def _delay_val_loss(model, val, norm) -> float:  # model has the delay head alone
    total = 0.0
    for s in val:
        total += loss_values(model, [s], norm)[0][0]
    return total / len(val)


def _transfer_run(seed: int, data: tuple) -> tuple[float, bool]:
    """One check-6 transfer seed: the starting delay-loss gap of warm
    embeddings over scratch, and whether a frozen fine-tune kept them."""
    train, val, _, norm = data
    defaults = training_defaults("reggrid-fixed")
    reg = dict(
        batch_size=10, lr=defaults["lr"],
        l2_link=defaults["l2_link"], l2_readout=defaults["l2_readout"],
    )
    pre_tasks = tuple(t for t in TASKS if t != "delay")
    pre_model = make_model(
        "glance", pre_tasks, derive_seed(seed, "pre-init"), dims=COMPACT
    )
    pre = train_model(
        pre_model, train, val, norm,
        epochs=20, seed=derive_seed(seed, "pre-train"), **reg,
    )
    pre_model.params = pre.best_params.copy()
    tl_model = transfer_model(pre_model, ("delay",), derive_seed(seed, "tl-readout"))
    stl_model = make_model("glance", ("delay",), derive_seed(seed, "init"), dims=COMPACT)
    diff = _delay_val_loss(tl_model, val, norm) - _delay_val_loss(stl_model, val, norm)

    source = {n: pre.best_params[n].tobytes() for n in embedding_names(tl_model)}
    train_model(
        tl_model, train, val, norm,
        epochs=2, seed=derive_seed(seed, "tl-train"),
        freeze_embeddings=True, **reg,
    )
    frozen = all(
        tl_model.params[n].tobytes() == source[n] for n in embedding_names(tl_model)
    )
    return diff, frozen


def _seed_run(run, seed: int, data: tuple):
    """A map_jobs task: one of check 6's seeded runs."""
    return run(seed, data)


def test_6_learning_smoke(capsys, tmp_path):
    """Trained twins beat the naive constant; transfer starts no worse.

    Its ten seeded runs are independent, so they train two at a time."""
    with verdict(capsys, 6, "learning smoke test", 1800.0):
        config = GenConfig(
            scenario="reggrid-fixed", n_train=200, n_val=50, n_test=50,
            n_r_test=2, t_gen=30.0, seed=11,
        )
        generate_dataset(config, tmp_path / "ds", jobs=4)
        ds = load_dataset(tmp_path / "ds")
        train, _ = clean_train_samples(ds.splits["train"])
        val, _ = clean_train_samples(ds.splits["val"])
        test, _ = clean_test_samples(ds.splits["test"])
        norm = fit_normalizer(train)
        live = norm.iqr > IQR_EPS

        def summed(row: dict[str, float]) -> float:
            return sum(row[t] for k, t in enumerate(TASKS) if live[k])

        naive_sum = summed(naive_rows(test, norm)["naive_median"])
        data = (train, val, test, norm)
        # multi-task seeds, then transfer ones: warm embeddings, fresh delay
        # head, frozen fine-tune
        kinds = (_mtl_test_row, _transfer_run)
        done = map_jobs(_seed_run, [(run, seed, data) for run in kinds for seed in range(5)], 2)
        rows, transfers = done[:5], done[5:]
        wins = sum(summed(row) < naive_sum for row in rows)
        assert wins >= 4, f"multi-task beat the naive row in only {wins}/5 seeds"
        frozen_ok = sum(frozen for _, frozen in transfers)
        assert frozen_ok == 5, f"embeddings moved under freezing in {5 - frozen_ok} seeds"
        median = float(np.median([diff for diff, _ in transfers]))
        assert median <= 0.0, f"median starting-loss gap {median:+.4f} favors scratch"


def tau_off_blind(model) -> None:
    """Cut every route the off means take into the network.

    The off mean only enters as path-state coordinate 1, so zeroing the rows
    that read that coordinate (GRU recurrences, the aggregated-state slot of
    the link net, the readout first layers) makes predictions depend on the
    on means alone.
    """
    dims = model.dims
    for gate in ("z", "r", "h"):
        model.params[f"gru/u_{gate}"][1, :] = 0.0
    model.params["link/w0"][dims.d_link + dims.d_node + 1, :] = 0.0
    for task in model.tasks:
        model.params[f"readout/{task}/w0"][1, :] = 0.0


def test_7_management_optimizers(capsys):
    """Descent never backslides, hits the 1-D optimum, and the hill climber
    agrees with brute force."""
    with verdict(capsys, 7, "management optimizers", 600.0):
        # (a) non-increasing trajectories across assorted descent runs
        diamond = wired_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        d_flows = FlowSet((0, 1), (3, 2))
        d_table = shortest_paths(diamond, d_flows, seed=4)
        d_caps = link_capacities(diamond, default_sim_config(wired=True))
        for k in range(6):
            rng = np.random.default_rng(100 + k)
            m = make_model("glance", TASKS, int(rng.integers(1000)), dims=SMALL_DIMS)
            prof = TargetProfile(rng.uniform(0.2, 3.0, size=(2, 4)), np.ones(4))
            tau0 = rng.uniform(2.0, 19.0, size=(2, 2))
            res = gd_traffic(
                m, diamond, d_table, prof, tau0, capacities=d_caps, max_iters=60
            )
            assert np.all(np.diff(res.trajectory) <= 0.0)

        # (b) one knob, known answer: match a dense grid search
        line = wired_graph(3, [(0, 1), (1, 2)])
        model = make_model("glance", TASKS, 0, dims=SMALL_DIMS)
        tau_off_blind(model)
        table = shortest_paths(line, FlowSet((0,), (2,)), seed=0)
        caps = link_capacities(line, default_sim_config(wired=True))
        off0 = 5.0

        def state(tau_on: float, tau_off: float = off0):
            traffic = TrafficParams((tau_on,), (tau_off,))
            return prepare_twin_input(line, table, traffic, caps)

        profile = TargetProfile(model.predict(state(7.37)), np.ones(4))
        j_lo = twin_objective(model, state(9.0, 2.0), profile)
        j_hi = twin_objective(model, state(9.0, 17.0), profile)
        assert j_lo == j_hi  # the surgery really blinded the off mean

        grid = np.linspace(*TRAFFIC_BOUNDS, 381)
        j_grid = [twin_objective(model, state(float(g)), profile) for g in grid]
        tau_grid = float(grid[int(np.argmin(j_grid))])
        res = gd_traffic(
            model, line, table, profile, np.array([[15.0, off0]]), capacities=caps
        )
        assert np.all(np.diff(res.trajectory) <= 0.0)
        tau_hat = float(res.optimized_traffic[0, 0])
        width = TRAFFIC_BOUNDS[1] - TRAFFIC_BOUNDS[0]
        assert abs(tau_hat - tau_grid) <= 0.05 * width, (
            f"descent stopped at {tau_hat:.3f}, grid optimum {tau_grid:.3f}"
        )

        # (c) destination search vs exhaustive assignment enumeration
        hc_dims = GlanceDims(
            d_node=4, d_link=4, d_path=8, t_layers=1, l_max=4,
            link_hidden=(8,), readout_hidden=(8,),
        )
        hc_model = make_model("glance", TASKS, 2, dims=hc_dims)
        sources = (0, 2)
        matches = 0
        for trial in range(50):
            rng = np.random.default_rng(trial)
            adj = random_connected_adjacency(rng, 5)
            graph = Graph(adj, None, wired=True)
            traffic = TrafficParams(
                tuple(rng.uniform(1.0, 20.0, 2)), tuple(rng.uniform(1.0, 20.0, 2))
            )
            profile = TargetProfile(
                rng.uniform(0.5, 2.0, size=(2, 4)), np.ones(4)
            )
            rng_seed = 1000 + trial
            g_caps = link_capacities(graph, default_sim_config(graph.wired))
            result = hillclimb_destinations(
                hc_model, graph, sources, traffic, profile, g_caps,
                n_init=16, n_rand=2, rng_seed=rng_seed,
            )
            # brute force must route exactly as the solver does: one tie seed
            tie_seed = derive_seed(rng_seed, "ties")
            brute = math.inf
            for d0 in range(5):
                if d0 == sources[0]:
                    continue
                for d1 in range(5):
                    if d1 == sources[1]:
                        continue
                    t = shortest_paths(graph, FlowSet(sources, (d0, d1)), tie_seed)
                    inp = prepare_twin_input(graph, t, traffic, g_caps)
                    brute = min(brute, twin_objective(hc_model, inp, profile))
            assert result.objective >= brute - 1e-12
            matches += abs(result.objective - brute) <= 1e-12
        assert matches >= 45, f"hill climber found the optimum in {matches}/50 trials"


def test_8_cli_reproducibility(capsys, tmp_path, run_cli):
    """Every command run twice from the same config leaves identical bytes."""
    with verdict(capsys, 8, "cli reproducibility", None):
        ds = tmp_path / "ds"
        gen_argv = [
            "gen-data", "--scenario", "reggrid-fixed",
            "--n-train", "6", "--n-val", "2", "--n-test", "2",
            "--n-r-test", "3", "--n-flows", "4", "--t-gen", "3.0",
            "--seed", "21", "--out", str(ds),
        ]
        assert run_cli(*gen_argv) == 0
        tree = read_tree(ds)
        shutil.rmtree(ds)
        assert run_cli(*gen_argv) == 0
        assert read_tree(ds) == tree

        ckpt = tmp_path / "twin.ckpt"
        train_argv = [
            "train", "--data", str(ds), "--out", str(ckpt),
            "--epochs", "2", "--batch-size", "4", "--seed", "1",
        ]
        assert run_cli(*train_argv) == 0
        state = ckpt.with_name(ckpt.name + ".state")
        snap = (ckpt.read_bytes(), state.read_bytes())
        assert run_cli(*train_argv) == 0
        assert (ckpt.read_bytes(), state.read_bytes()) == snap

        for argv, outputs in (
            (
                ["eval", "--data", str(ds), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "eval.json")],
                [tmp_path / "eval.json"],
            ),
            (
                ["benchmark", "--data", str(ds), "--out", str(tmp_path / "bench.json")],
                [tmp_path / "bench.json"],
            ),
            (
                ["manage-traffic", "--data", str(ds), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "mt.json"), "--max-iters", "4",
                 "--trajectory", str(tmp_path / "mt.csv")],
                [tmp_path / "mt.json", tmp_path / "mt.csv"],
            ),
            (
                ["manage-flows", "--data", str(ds), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "mf.json"), "--n-init", "2",
                 "--n-restarts", "1"],
                [tmp_path / "mf.json"],
            ),
        ):
            assert run_cli(*argv) == 0
            first = [p.read_bytes() for p in outputs]
            assert run_cli(*argv) == 0
            assert [p.read_bytes() for p in outputs] == first

        capsys.readouterr()  # drop everything the earlier commands printed
        assert run_cli("inspect", "--data", str(ds)) == 0
        data_once = capsys.readouterr().out
        assert run_cli("inspect", "--data", str(ds)) == 0
        assert capsys.readouterr().out == data_once
        assert run_cli("inspect", "--checkpoint", str(ckpt)) == 0
        ckpt_once = capsys.readouterr().out
        assert run_cli("inspect", "--checkpoint", str(ckpt)) == 0
        assert capsys.readouterr().out == ckpt_once


def test_9_capacity_sanity(capsys):
    """The compact twin's parameter count is fixed and mid-five-figures."""
    with verdict(capsys, 9, "capacity sanity", None):
        counts = {
            make_model("glance", TASKS, seed, dims=COMPACT).params.count()
            for seed in (0, 1, 123)
        }
        assert counts == {47332}
        assert 3e4 <= counts.pop() <= 6e4
