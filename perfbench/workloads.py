"""The three workloads, their correctness checks, and their metrics.

Each workload is one of the lab's user-facing jobs and does most of one
layer's work while bypassing another (see README.md for the table):

* ``grid-datagen`` simulates a wireless dataset; the twin is not used.
* ``grid-train`` trains and evaluates a twin on a dataset built in set-up;
  nothing is simulated in the timed part.
* ``nsfnet-manage`` lets a twin trained in set-up manage a wired network;
  the solvers query the twin, and ``--verify`` runs the simulator.

Every command goes through ``nettwin.cli.main`` in this process with its
stdout captured, so the benchmark's own result stays the last stdout line.
Its time is counted in scaled seconds (see ``hostclock.py``); a rate is the
run's total work over its total scaled seconds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import shutil
import statistics
import time
from pathlib import Path

from nettwin import cli, routing, simulator
from nettwin.pipeline import IQR_EPS, filter_and_impute, load_dataset
from nettwin.simulator import TASKS

from hostclock import HostClock
from spans import CLI_SPAN, SPAN_NAMES, CallCounter, Tracer

#: set-ups per run; set-up time is the median
SETUP_REPS = 3

#: per-sample flows: the simulator's and the twin's cost per sample depend on
#: where the flows run, and reggrid-fixed draws one flow set per seed, so a
#: run would measure one placement; per-sample draws average over many
GRID_SCENARIO = "reggrid-randflows"

#: seed of the network nsfnet-manage manages: its twin's training data and
#: the pool of network states the workload seed draws from
NETWORK_SEED = 0

#: the timed loop always runs at least this many passes, so one can be
#: compared byte for byte with another
MIN_PASSES = 2


class Checks:
    """Correctness checks attempted and failed, with the failures' text."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def digest(paths: list[Path]) -> str:
    """SHA-256 over the named files' names and bytes, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def timing(values: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n, "tail": None, "tail_pct": None}
    if n >= 11:
        k = n - 11
        out["tail"] = ordered[k]
        out["tail_pct"] = round(100.0 * (k + 1) / n, 1)
    return out


def total(passes: list[dict[str, list[float]]], kind: str) -> float:
    """Scaled seconds of every command of one kind over the run's passes."""
    return sum(t for p in passes for t in p[kind])


def live_sum(row: dict, iqr: dict) -> float:
    """NMAE summed over the KPIs whose IQR did not collapse to IQR_EPS."""
    return sum(row[t] for t in TASKS if iqr[t] > IQR_EPS)


def read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Set-up, one pass of timed commands, and the numbers they give."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.seed = seed
        self.size = self.sizes["smoke" if smoke else "full"]
        self.checks = Checks()
        self._main = cli.main
        self.data = work / "data"
        self.clock = HostClock()
        self.spent = 0.0  # scaled seconds of every command so far

    # -- commands ---------------------------------------------------------

    def command(self, argv: list) -> float:
        """Run one nettwin command with its stdout captured; return its scaled seconds."""
        with self.clock.measure() as scaled, contextlib.redirect_stdout(io.StringIO()):
            code = self._main([str(a) for a in argv])
        took = scaled[0]
        self.spent += took
        self.checks(code == 0, f"{argv[0]} exited with {code}")
        if code != 0:
            raise RuntimeError(f"nettwin {' '.join(map(str, argv))} exited with {code}")
        return took

    def gen_data(self, out: Path, seed: int | None = None, **flags) -> float:
        seed = self.seed if seed is None else seed
        argv = ["gen-data", "--seed", seed, "--jobs", 1, "--out", out]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), value]
        return self.command(argv)

    # -- to be provided by each workload ------------------------------------

    def setup(self) -> dict:
        """Build the timed part's inputs; return what set-up measured."""
        raise NotImplementedError

    def artifacts(self) -> list[Path]:
        """Files one pass writes; set-up artifacts are the data directory."""
        raise NotImplementedError

    def run_pass(self) -> dict[str, list[float]]:
        """Run the timed commands once; scaled seconds per command kind."""
        raise NotImplementedError

    def summarise(self, passes: list[dict[str, list[float]]]) -> tuple[dict, dict]:
        """The end-to-end metrics, and the per-command numbers behind them."""
        raise NotImplementedError

    # -- running ---------------------------------------------------------------

    def data_digest(self) -> str:
        return digest(sorted(p for p in self.data.rglob("*") if p.is_file()))

    def measure(self, seconds: float) -> dict:
        setup_s, setup_info, setup_digests = [], [], []
        for _ in range(SETUP_REPS):
            shutil.rmtree(self.data, ignore_errors=True)  # build from nothing
            spent = self.spent
            setup_info.append(self.setup())
            setup_s.append(self.spent - spent)
            setup_digests.append(self.data_digest())
        for rep, d in enumerate(setup_digests[1:], 1):
            self.checks(d == setup_digests[0], f"set-up {rep} data differ from set-up 0")
        self.after_setup()

        passes, digests = [], []
        first_sample = len(self.clock.samples)
        t0 = time.perf_counter()
        # a pass starts only if at least half of it is due to fit in the
        # run's seconds, so runs last about --seconds on average
        while len(passes) < MIN_PASSES or (
            (time.perf_counter() - t0) * (len(passes) + 0.5) / len(passes) <= seconds
        ):
            self.clear_artifacts()
            passes.append(self.run_pass())
            digests.append(digest(self.artifacts()))
        for rep, d in enumerate(digests[1:], 1):
            self.checks(d == digests[0], f"pass {rep} artifacts differ from pass 0")
        self.first_digest = digests[0]

        metrics, detail = self.summarise(passes)
        pass_s = [sum(sum(v) for v in p.values()) for p in passes]
        kinds = sorted({k for p in passes for k in p})
        wall_s, probe_s = zip(*self.clock.samples[first_sample:])
        return {
            "setup_s": timing(setup_s),
            "setup": setup_info,
            "pass_s": timing(pass_s),
            "loop_wall_s": timing(list(wall_s)),
            "loop_probe_s": timing(list(probe_s)),
            "command_s": {k: timing([t for p in passes for t in p.get(k, [])]) for k in kinds},
            "passes": passes,
            "digests": {"data": setup_digests[0], "artifacts": digests[0]},
            "e2e": metrics,
            "detail": detail,
        }

    def after_setup(self) -> None:
        """Bookkeeping on the set-up's output, outside every timed region."""

    def clear_artifacts(self) -> None:
        """Delete the last pass's files, so a file a pass fails to write is missed."""
        for path in self.artifacts():
            path.unlink(missing_ok=True)

    def traced_pass(self, tracer: Tracer) -> dict:
        """One more pass with spans recorded; per-layer numbers come from it."""
        self.clear_artifacts()
        tracer.install()
        self._main = tracer.wrap(CLI_SPAN, cli.main)
        self.clock.sampling = False  # no probes inside the spans
        spent = self.spent
        try:
            commands = self.run_pass()
        finally:
            scaled = self.spent - spent
            self.clock.sampling = True
            self._main = cli.main
            tracer.uninstall()
        self.checks(
            digest(self.artifacts()) == self.first_digest,
            "traced pass artifacts differ from pass 0",
        )
        spans = tracer.summary()
        for k, rec in enumerate(spans["simulator.run_sim"]["counts"]):
            self.checks(
                rec["conserved"],
                f"run_sim record {k}: generated != delivered + overflow + in flight",
            )
        return {"scaled_s": scaled, "commands": commands, "spans": spans}


# -- grid-datagen ---------------------------------------------------------------


class GridDatagen(Workload):
    """Wireless 4x4 grid dataset generation; the twin is not used.

    A pass generates the two kinds of data the lab uses: a training set, one
    run per sample, and a test set whose samples carry repeat runs for the
    repeat-average baseline.
    """

    name = "grid-datagen"
    sizes = {
        "full": dict(
            train=dict(n_train=24, n_val=6, n_test=0, t_gen=30.0, n_flows=10),
            # twenty flow placements at half the horizon: the cost of a
            # packet-hop moves with where the flows contend
            test=dict(n_train=0, n_val=0, n_test=20, n_r_test=4, t_gen=15.0, n_flows=10),
        ),
        "smoke": dict(
            train=dict(n_train=2, n_val=1, n_test=0, t_gen=5.0, n_flows=10),
            test=dict(n_train=0, n_val=0, n_test=1, n_r_test=4, t_gen=5.0, n_flows=10),
        ),
    }

    def setup(self) -> dict:
        # warm-up: a small dataset, so first-call costs stay out of the loop;
        # a dozen short samples, as one sample's cost moves with its traffic
        train = self.size["train"]
        gen = dict(train, n_train=12, n_val=0, t_gen=train["t_gen"] / 3)
        took = self.gen_data(self.data, scenario=GRID_SCENARIO, **gen)
        return {"gen_s": took}

    def artifacts(self) -> list[Path]:
        return sorted(p for p in (self.work / "ds").rglob("*") if p.is_file())

    def run_pass(self) -> dict[str, list[float]]:
        times, self.hops = {}, {}
        for kind, gen in self.size.items():
            with CallCounter(simulator, "run_sim", sim_packet_hops) as sims:
                times[kind] = [
                    self.gen_data(self.work / "ds" / kind, scenario=GRID_SCENARIO, **gen)
                ]
            self.hops[kind] = sims.total
        return times

    def summarise(self, passes) -> tuple[dict, dict]:
        # per simulated packet-hop: the traffic drawn for a sample sets how many
        # packets it simulates, so samples/s moves with the seed
        rates, detail = {}, {}
        for kind, hops in self.hops.items():
            rates[kind] = hops * len(passes) / total(passes, kind)
            detail[f"{kind}_set_packet_hops"] = hops
        n_samples = sum(g["n_train"] + g["n_val"] + g["n_test"] for g in self.size.values())
        detail["gen_samples_per_s"] = (
            n_samples * len(passes) / (total(passes, "train") + total(passes, "test"))
        )
        return {"primary_per_s": rates["train"], "secondary_per_s": rates["test"]}, detail


def sim_packet_hops(args, result) -> int:
    """Packet-hops of one run_sim call: each flow's packets times its path's links."""
    table = args[1]
    return sum(
        int(n) * len(path.links) for n, path in zip(result.counts[:, 0], table.paths)
    )


# -- grid-train -------------------------------------------------------------------


class GridTrain(Workload):
    """Twin training and evaluation on a wireless dataset built in set-up."""

    name = "grid-train"
    sizes = {
        "full": dict(
            gen=dict(n_train=40, n_val=10, n_test=20, n_r_test=2, t_gen=5.0, n_flows=10),
            epochs=3,
            evals=4,
        ),
        "smoke": dict(
            gen=dict(n_train=4, n_val=2, n_test=2, n_r_test=2, t_gen=5.0, n_flows=10),
            epochs=1,
            evals=1,
        ),
    }

    def setup(self) -> dict:
        took = self.gen_data(self.data, scenario=GRID_SCENARIO, **self.size["gen"])
        return {"gen_s": took}

    def after_setup(self) -> None:
        cleaned, _ = filter_and_impute(load_dataset(self.data))
        self.n_train = len(cleaned["train"])
        self.n_test = len(cleaned["test"])

    def artifacts(self) -> list[Path]:
        w = self.work
        return [w / "twin.ckpt", w / "twin.ckpt.state", w / "curves.csv", w / "eval.json"]

    def run_pass(self) -> dict[str, list[float]]:
        w = self.work
        train = self.command(
            [
                "train", "--data", self.data, "--epochs", self.size["epochs"],
                "--seed", self.seed, "--out", w / "twin.ckpt", "--curves", w / "curves.csv",
            ]
        )
        with open(w / "curves.csv", encoding="utf-8", newline="") as fh:
            losses = [
                float(v) for row in csv.DictReader(fh)
                for k, v in row.items() if k.startswith("loss_") and v
            ]
        self.checks(
            bool(losses) and all(math.isfinite(v) for v in losses),
            "train history holds a non-finite loss",
        )
        evals = []
        for _ in range(self.size["evals"]):
            took = self.command(
                ["eval", "--data", self.data, "--checkpoint", w / "twin.ckpt",
                 "--out", w / "eval.json"]
            )
            evals.append(took)
        return {"train": [train], "eval": evals}

    def summarise(self, passes) -> tuple[dict, dict]:
        report = read_json(self.work / "eval.json")
        twin = live_sum(report["rows"]["glance"], report["iqr"])
        naive = live_sum(report["rows"]["naive_median"], report["iqr"])
        per_pass = self.n_train * self.size["epochs"]
        metrics = {
            "primary_per_s": per_pass * len(passes) / total(passes, "train"),
            "secondary_per_s": (
                self.n_test * self.size["evals"] * len(passes) / total(passes, "eval")
            ),
        }
        detail = {
            "train_samples_per_s": metrics["primary_per_s"],
            "eval_samples_per_s": metrics["secondary_per_s"],
            "twin_nmae": twin,
            "naive_nmae": naive,
        }
        return metrics, detail


# -- nsfnet-manage ----------------------------------------------------------------


class NsfnetManage(Workload):
    """Twin-driven management of a wired backbone, verified in the simulator.

    The network is fixed, as a deployment's is: every run trains the same
    twin from NETWORK_SEED, and builds from it a pool of network states, the
    test samples of a second dataset, which share the twin's flows and differ
    in traffic. The workload seed draws the states that a pass manages.
    The flows set most of the cost of a state, so states with flows drawn
    per seed made the rates move with the seed by a quarter.
    """

    name = "nsfnet-manage"
    sizes = {
        "full": dict(
            twin_data=dict(n_train=30, n_val=10, n_test=0, t_gen=5.0, n_flows=10),
            epochs=5,
            states=dict(n_train=0, n_val=0, n_test=16, n_r_test=2, t_gen=5.0, n_flows=10),
            picks=4,
            max_iters=10,
            n_init=4,
        ),
        "smoke": dict(
            twin_data=dict(n_train=4, n_val=2, n_test=0, t_gen=1.0, n_flows=6),
            epochs=1,
            states=dict(n_train=0, n_val=0, n_test=2, n_r_test=2, t_gen=1.0, n_flows=6),
            picks=1,
            max_iters=2,
            n_init=1,
        ),
    }

    def setup(self) -> dict:
        twin_data = self.data / "twin-data"
        twin_gen = self.gen_data(
            twin_data, seed=NETWORK_SEED, scenario="nsfnet-fixed", **self.size["twin_data"]
        )
        train = self.command(
            ["train", "--data", twin_data, "--epochs", self.size["epochs"],
             "--seed", NETWORK_SEED, "--out", self.data / "twin.ckpt"]
        )
        states = self.gen_data(
            self.data / "states", seed=NETWORK_SEED, scenario="nsfnet-fixed",
            **self.size["states"],
        )
        return {"twin_gen_s": twin_gen, "train_s": train, "states_gen_s": states}

    def after_setup(self) -> None:
        # objective over the KPIs the twin's normalizer keeps alive, as the
        # learning checks do; a collapsed IQR would make J read ~1e9
        manifest = read_json(self.data / "twin.ckpt")["manifest"]
        iqr = manifest["normalizer"]["iqr"]
        self.kpi_flags = []
        for k, task in enumerate(TASKS):
            if iqr[k] > IQR_EPS:
                self.kpi_flags += ["--kpi", task]

    def samples(self) -> list[int]:
        pool = range(self.size["states"]["n_test"])
        return sorted(random.Random(self.seed).sample(pool, self.size["picks"]))

    def artifacts(self) -> list[Path]:
        return [self.work / f"{kind}{i}.json" for i in self.samples() for kind in ("mt", "mf")]

    def run_pass(self) -> dict[str, list[float]]:
        common = ["--data", self.data / "states", "--checkpoint", self.data / "twin.ckpt",
                  "--seed", self.seed, "--verify", *self.kpi_flags]
        traffic, flows = [], []
        self.routes = self.hops = 0
        for i in self.samples():
            with CallCounter(simulator, "run_sim", sim_packet_hops) as sims:
                took = self.command(
                    ["manage-traffic", *common, "--sample-index", i,
                     "--max-iters", self.size["max_iters"], "--out", self.work / f"mt{i}.json"]
                )
            traffic.append(took)
            self.hops += sims.total
            with CallCounter(routing, "shortest_paths") as routes:
                took = self.command(
                    ["manage-flows", *common, "--sample-index", i,
                     "--n-init", self.size["n_init"], "--n-restarts", 1,
                     "--out", self.work / f"mf{i}.json"]
                )
            flows.append(took)
            self.routes += routes.calls
            self.check_reports(i)
        return {"manage-traffic": traffic, "manage-flows": flows}

    def check_reports(self, i: int) -> None:
        mt = read_json(self.work / f"mt{i}.json")
        mf = read_json(self.work / f"mf{i}.json")
        traj = mt["trajectory"]
        self.checks(
            all(b <= a for a, b in zip(traj, traj[1:])),
            f"sample {i}: gd_traffic trajectory increases",
        )
        self.checks(
            mf["trajectory"][-1] <= mf["trajectory"][0],
            f"sample {i}: hill-climb ends above its first J",
        )
        for name, report in (("traffic", mt), ("flows", mf)):
            self.checks(
                math.isfinite(report["eps_gen"]["pooled"]),
                f"sample {i}: verified eps_gen of manage-{name} is not finite",
            )

    def summarise(self, passes) -> tuple[dict, dict]:
        mt = [read_json(self.work / f"mt{i}.json")["trajectory"] for i in self.samples()]
        mf = [read_json(self.work / f"mf{i}.json")["trajectory"] for i in self.samples()]
        metrics = {
            # per routed candidate: the hill-climb's number of candidates
            # varies twofold between network states
            "primary_per_s": self.routes * len(passes) / total(passes, "manage-flows"),
            # per simulated packet-hop: the verification runs are most of a
            # command, and the traffic of a state sets how many packets they move
            "secondary_per_s": self.hops * len(passes) / total(passes, "manage-traffic"),
        }
        detail = {
            "manage_traffic_s": statistics.median(t for p in passes for t in p["manage-traffic"]),
            "manage_flows_s": statistics.median(t for p in passes for t in p["manage-flows"]),
            "manage_traffic_j": statistics.mean(t[-1] for t in mt),
            "manage_flows_j": statistics.mean(t[-1] for t in mf),
            "routes_per_pass": self.routes,
            "traffic_packet_hops_per_pass": self.hops,
        }
        return metrics, detail


WORKLOADS = {w.name: w for w in (GridDatagen, GridTrain, NsfnetManage)}


# -- result metrics ----------------------------------------------------------------


def e2e_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of an untraced run, as (value, unit)."""
    out = {
        "setup_s": (report["setup_s"]["median"], "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    for key, value in report["e2e"].items():
        out[key] = (value, "1/s")
    return out


#: each command's numbers in its own units, from the untraced loop of a traced
#: run; 0 on a workload that does not run the command
COMMAND_METRICS = {
    "gen_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "twin_nmae": "nmae",
    "manage_traffic_s": "s",
    "manage_flows_s": "s",
    "manage_traffic_j": "J",
    "manage_flows_j": "J",
}


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def trace_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run, as (value, unit)."""
    trace = report["trace"]
    spans = trace["spans"]
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (spans[name]["calls"], "count")
        out[f"{name}.self_s"] = (spans[name]["self_s"], "s")

    sim = spans["simulator.run_sim"]
    generated = sum(c["generated"] for c in sim["counts"])
    dropped = sum(c["overflow"] + c["in_flight"] for c in sim["counts"])
    out["simulator.packets_generated"] = (generated, "count")
    out["simulator.packets_per_s"] = (_per(generated, sim["total_s"]), "1/s")
    out["simulator.drop_ratio"] = (_per(dropped, generated), "ratio")

    fwd, bwd = spans["twin.forward"], spans["autodiff.backward"]
    nodes = [c["tape_nodes"] for c in fwd["counts"]]
    out["twin.forward_ms"] = (_per(1000.0 * fwd["total_s"], fwd["calls"]), "ms")
    out["twin.tape_nodes"] = (statistics.median(nodes) if nodes else 0, "count")
    out["autodiff.backward_ms"] = (_per(1000.0 * bwd["total_s"], bwd["calls"]), "ms")
    out["autodiff.checkpoint_io_s"] = (
        spans["autodiff.load_checkpoint"]["total_s"]
        + spans["autodiff.save_checkpoint"]["total_s"],
        "s",
    )

    solver_s = spans["manage.gd_traffic"]["total_s"] + spans["manage.hillclimb"]["total_s"]
    out["manage.j_evals_per_s"] = (_per(spans["manage.twin_objective"]["calls"], solver_s), "1/s")
    for name in ("manage.gd_traffic", "manage.hillclimb"):
        out[f"{name}.iterations"] = (
            sum(c["iterations"] for c in spans[name]["counts"]), "count"
        )

    out["cli.total_s"] = (spans[CLI_SPAN]["total_s"], "s")
    for name, unit in COMMAND_METRICS.items():
        out[name] = (report["detail"].get(name, 0.0), unit)
    out["trace.slowdown"] = (trace["scaled_s"] / report["pass_s"]["median"], "ratio")
    out["ops_failed_ratio"] = (report["ops_failed_ratio"], "ratio")
    return out
