"""Dataset generation, cleaning, normalization, training, and evaluation.

A dataset directory holds one JSON-lines file per split (train/val/test),
the topology files, and a manifest. Train and val samples carry a single
simulation run whose KPIs are the labels; test samples carry the reference
run plus repeated benchmark runs used by the repeat-average estimator rows
and for imputation.

Cleaning: training samples with any flow beyond the delay/jitter limits or
with an undelivered flow are discarded. Test benchmark cells missing in one
run are imputed from the same cell in the other benchmark runs, never from
the reference; a test sample is discarded only when the reference itself has
a gap or a cell is missing in every benchmark run.

Losses and metrics are IQR-normalized mean absolute errors; the IQR comes
from the training fold alone.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from pathlib import Path, PurePath
from typing import Callable

import numpy as np

from .autodiff import AdamState, ParamSet, Tape, Tensor, adam_step
from .fileio import ListOf, MapOf, OneOf, check_json, dataclass_spec, open_fresh, write_json
from .nettopo import (
    FlowSet,
    Graph,
    TopologyError,
    build_nsfnet,
    build_pert_grid,
    build_reg_grid,
    load_topology,
    sample_flows,
    save_topology,
    topology_payload,
)
from .routing import RoutingTable, bfs_distances, table_from_routes, validate_table
from .seeding import derive_seed, make_rng
from .simulator import (
    TASKS,
    KpiRecord,
    SimConfig,
    SimulationError,
    TrafficParams,
    default_sim_config,
    link_capacities,
    quiet_nanmean,
    run_benchmarks,
    sample_traffic_params,
    simbase_estimate,
)
from .twin import (
    CAPACITY_SCALE,
    COMPACT,
    EVAL_CHUNK,
    LARGE,
    MODEL_KINDS,
    GlanceDims,
    GnnDims,
    TwinError,
    TwinInput,
    TwinModel,
    batch_inputs,
    make_model,
    prepare_twin_input,
)

DATASET_FORMAT = "nettwin-dataset"
DATASET_VERSION = 1

#: training-sample rejection thresholds (per flow, reference run)
DELAY_LIMIT_MS = 2000.0
JITTER_LIMIT_MS = 200.0

#: IQR floor that keeps constant KPI columns divisible
IQR_EPS = 1e-9

SPLITS = ("train", "val", "test")

STRATEGIES = ("stl", "mtl", "tl")


class DatasetError(ValueError):
    """Raised for malformed dataset files or impossible generation configs."""


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """What varies across samples and the training defaults that fit it."""

    name: str
    topology: str  # nsfnet | reggrid | pertgrid
    per_sample_topology: bool
    per_sample_flows: bool
    traffic_mode: str  # discrete | continuous
    lr: float
    l2_link: float
    l2_readout: float


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario("nsfnet-fixed", "nsfnet", False, False, "discrete", 1e-3, 1e-3, 1e-4),
        Scenario(
            "nsfnet-continuous", "nsfnet", False, False, "continuous", 1e-3, 1e-3, 1e-4
        ),
        Scenario("reggrid-fixed", "reggrid", False, False, "discrete", 5e-4, 1e-3, 1e-4),
        Scenario(
            "reggrid-randflows", "reggrid", False, True, "discrete", 5e-4, 1e-4, 1e-5
        ),
        Scenario(
            "pertgrid-randtopo", "pertgrid", True, False, "discrete", 5e-4, 1e-4, 1e-5
        ),
    )
}


def training_defaults(scenario: str) -> dict[str, float]:
    sc = SCENARIOS[scenario]
    return {"lr": sc.lr, "l2_link": sc.l2_link, "l2_readout": sc.l2_readout}


# -- generation --------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Everything generate_dataset needs; fully determines the output bytes."""

    scenario: str
    n_train: int = 200
    n_val: int = 50
    n_test: int = 50
    n_r_test: int = 4
    n_flows: int = 10
    t_gen: float = 180.0
    l_max: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise DatasetError(
                f"unknown scenario {self.scenario!r}; "
                f"choose from {sorted(SCENARIOS)}"
            )
        if min(self.n_train, self.n_val, self.n_test) < 0:
            raise DatasetError("split sizes must be non-negative")
        if self.n_train + self.n_val + self.n_test < 1:
            raise DatasetError("dataset must contain at least one sample")
        if self.n_r_test < 2:
            raise DatasetError("test samples need >= 2 runs (reference + benchmark)")
        if self.n_flows < 1 or self.l_max < 1 or not 0 < self.t_gen < math.inf:
            raise DatasetError("n_flows, l_max and t_gen must be positive, t_gen finite")

    def sim_config(self, wired: bool) -> SimConfig:
        return default_sim_config(wired, t_gen=self.t_gen)


def _base_graph(config: GenConfig) -> Graph:
    topo = SCENARIOS[config.scenario].topology
    if topo == "nsfnet":
        return build_nsfnet()
    if topo == "reggrid":
        return build_reg_grid()
    return build_pert_grid(seed=derive_seed(config.seed, "base-topology"))


def _hop_diameter(graph: Graph) -> int:
    worst = 0
    for source in range(graph.n_nodes):
        dist = bfs_distances(graph.neighbors, source)
        if min(dist) < 0:
            return graph.n_nodes + 1  # disconnected counts as over any l_max
        worst = max(worst, max(dist))
    return worst


def _sample_topology(config: GenConfig, sample_seed: int) -> Graph:
    """Perturbed grid for one sample, retried until every path fits l_max."""
    for attempt in range(100):
        graph = build_pert_grid(
            seed=derive_seed(sample_seed, "topology", attempt)
        )
        if _hop_diameter(graph) <= config.l_max:
            return graph
    raise DatasetError(
        f"no perturbed grid with hop diameter <= {config.l_max} in 100 attempts"
    )


def _generate_record(config: GenConfig, split: str, index: int) -> tuple[dict, dict | None]:
    """One sample: topology, flows, traffic, benchmark runs. Pure in its args."""
    scenario = SCENARIOS[config.scenario]
    sample_seed = derive_seed(config.seed, split, index)

    topo_payload = None
    if scenario.per_sample_topology:
        graph = _sample_topology(config, sample_seed)
        topo_payload = topology_payload(graph)
    else:
        graph = _base_graph(config)

    flows_seed = (
        derive_seed(sample_seed, "flows")
        if scenario.per_sample_flows
        else derive_seed(config.seed, "flows")
    )
    flows = sample_flows(graph, config.n_flows, flows_seed)
    traffic = sample_traffic_params(
        config.n_flows, scenario.traffic_mode, derive_seed(sample_seed, "traffic")
    )
    sim_config = config.sim_config(graph.wired)
    n_runs = config.n_r_test if split == "test" else 1
    runset = run_benchmarks(graph, flows, traffic, sim_config, n_runs, sample_seed)

    record = {
        "index": index,
        "sources": list(flows.sources),
        "destinations": list(flows.destinations),
        "tau_on": list(traffic.tau_on),
        "tau_off": list(traffic.tau_off),
        "paths": [
            [[int(i), int(j)] for i, j in path.links]
            for path in runset.reference_table.paths
        ],
        "routing_seed": runset.seeds[0]["routing"],
        "runs": [
            {"seeds": runset.seeds[r], "kpis": runset.records[r].to_jsonable()}
            for r in range(n_runs)
        ],
    }
    return record, topo_payload


def _gen_worker(args: tuple[GenConfig, str, int]) -> tuple[str, int, dict, dict | None]:
    config, split, index = args
    record, topo = _generate_record(config, split, index)
    return split, index, record, topo


def generate_dataset(config: GenConfig, out_dir: str | Path, jobs: int = 1) -> dict:
    """Write a dataset directory; byte-identical for a given config.

    Returns the manifest. jobs > 1 parallelizes over samples without
    changing any output byte (records are written in index order).
    """
    scenario = SCENARIOS[config.scenario]
    out = Path(out_dir)

    base = _base_graph(config)
    if not scenario.per_sample_topology and _hop_diameter(base) > config.l_max:
        raise DatasetError(
            f"{scenario.topology} hop diameter exceeds l_max={config.l_max}"
        )

    tasks = [
        (config, split, i)
        for split, n in zip(SPLITS, (config.n_train, config.n_val, config.n_test))
        for i in range(n)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_gen_worker, tasks, chunksize=4))
    else:
        results = [_gen_worker(t) for t in tasks]

    by_split: dict[str, list[tuple[int, dict, dict | None]]] = {s: [] for s in SPLITS}
    for split, index, record, topo in results:
        by_split[split].append((index, record, topo))

    # nothing is written until every sample is made, so a config that fails
    # (a negative seed, more flows than node pairs) leaves no files behind
    if not scenario.per_sample_topology:
        save_topology(base, out / "topology.json")

    counts = {}
    for split in SPLITS:
        rows = sorted(by_split[split])
        counts[split] = len(rows)
        with open_fresh(out / f"{split}.jsonl") as fh:
            for index, record, topo in rows:
                if topo is not None:
                    name = f"topologies/{split}_{index:05d}.json"
                    write_json(out / name, topo)
                    record = {**record, "topology": name}
                else:
                    record = {**record, "topology": "topology.json"}
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    sim_wired = base.wired
    sim_config = config.sim_config(sim_wired)
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "scenario": config.scenario,
        "seed": config.seed,
        "splits": counts,
        "n_runs_test": config.n_r_test,
        "n_flows": config.n_flows,
        "l_max": config.l_max,
        "wired": sim_wired,
        "sim_config": asdict(sim_config),
        "traffic_mode": scenario.traffic_mode,
        "filters": {"delay_limit_ms": DELAY_LIMIT_MS, "jitter_limit_ms": JITTER_LIMIT_MS},
        "capacity_scale": CAPACITY_SCALE,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


#: the manifest.json of a dataset directory
DATASET_MANIFEST = {
    "format": OneOf(DATASET_FORMAT),
    "version": OneOf(DATASET_VERSION),
    "scenario": OneOf(*SCENARIOS),
    "seed": int,
    "splits": {split: int for split in SPLITS},
    "n_runs_test": int,
    "n_flows": int,
    "l_max": int,
    "wired": bool,
    "sim_config": dataclass_spec(SimConfig),
    "traffic_mode": OneOf(*sorted({s.traffic_mode for s in SCENARIOS.values()})),
    "filters": {"delay_limit_ms": float, "jitter_limit_ms": float},
    "capacity_scale": float,
}

#: one line of a split's JSON-lines file; a test sample holds the manifest's
#: n_runs_test runs and any other sample one, and each KPI cell is a number
#: or null for a missing one
RECORD = {
    "index": int,
    "topology": str,
    "sources": ListOf(int, "n_flows"),
    "destinations": ListOf(int, "n_flows"),
    "tau_on": ListOf(float, "n_flows"),
    "tau_off": ListOf(float, "n_flows"),
    "paths": ListOf(ListOf([int, int]), "n_flows"),
    "routing_seed": int,
    "runs": ListOf(
        {
            "seeds": {"routing": int, "sim": int},
            "kpis": ListOf(ListOf((float, None), len(TASKS)), "n_flows"),
        },
        "n_runs",
    ),
}


#: the records of a split's JSON-lines file, one a line
SPLIT_FILE = ListOf(RECORD)


# -- loading -----------------------------------------------------------------


@dataclass
class Sample:
    """One network state with its labels and any repeat benchmark runs."""

    index: int
    split: str
    graph_id: str
    graph: Graph
    flows: FlowSet
    traffic: TrafficParams
    table: RoutingTable
    capacities: np.ndarray
    labels: np.ndarray  # reference-run KPIs, (F, 4)
    bench_runs: list[np.ndarray] = field(default_factory=list)

    @cached_property
    def twin_input(self) -> TwinInput:
        return prepare_twin_input(self.graph, self.table, self.traffic, self.capacities)


@dataclass
class Dataset:
    manifest: dict
    splits: dict[str, list[Sample]]
    sim_config: SimConfig  # the manifest's, built once at load

    @property
    def scenario(self) -> str:
        return self.manifest["scenario"]


def _sample_from_record(
    record: dict,
    split: str,
    l_max: int,
    topology: Callable[[str, str], tuple[Graph, np.ndarray]],
    line: str,
) -> Sample:
    """The sample of a record that fits RECORD, read from ``line`` of its
    split file; ``topology(graph_id, line)`` gives its graph and the
    capacities that every sample of that file shares."""
    graph_id = record["topology"]
    graph, capacities = topology(graph_id, line)
    try:
        flows = FlowSet(tuple(record["sources"]), tuple(record["destinations"]))
        traffic = TrafficParams(tuple(record["tau_on"]), tuple(record["tau_off"]))
    except (TopologyError, SimulationError, OverflowError) as exc:
        raise DatasetError(f"{line}: {exc}") from None
    table = table_from_routes(record["paths"], record["routing_seed"])
    violations = validate_table(table, graph, flows, l_max)
    if violations:
        v = violations[0]
        flow = "" if v.flow_index < 0 else f" flow {v.flow_index}"
        raise DatasetError(f"{line}:{flow} bad route, {v.kind}: {v.detail}")
    runs = []
    for r, run in enumerate(record["runs"]):
        try:
            runs.append(KpiRecord.from_jsonable(run["kpis"]).kpis)
        except OverflowError:  # an integer cell beyond the float range
            raise DatasetError(f"{line}: run {r} has a KPI cell beyond float range") from None
    return Sample(
        index=record["index"],
        split=split,
        graph_id=graph_id,
        graph=graph,
        flows=flows,
        traffic=traffic,
        table=table,
        capacities=capacities,
        labels=runs[0],
        bench_runs=runs[1:],
    )


def load_dataset(path: str | Path) -> Dataset:
    """The dataset directory at path. Each file is checked against its
    schema as it is read: the manifest against DATASET_MANIFEST, the records
    of a split file against RECORD, all at once, and each topology file
    against nettopo's TOPOLOGY."""
    root = Path(path)
    manifest_file = root / "manifest.json"
    if not manifest_file.exists():
        raise DatasetError(f"no manifest.json under {root}")
    with open(manifest_file, encoding="utf-8") as fh:
        manifest = json.load(fh)
    check_json(DATASET_MANIFEST, manifest, str(manifest_file), {})
    try:
        sim_config = SimConfig(**manifest["sim_config"])
    except SimulationError as exc:
        raise DatasetError(f"{manifest_file}: bad sim_config ({exc})") from None
    # one graph and one read-only capacities array per topology file
    topologies: dict[str, tuple[Graph, np.ndarray]] = {}

    def topology(graph_id: str, line: str) -> tuple[Graph, np.ndarray]:
        if graph_id not in topologies:
            name = PurePath(graph_id)
            if name.is_absolute() or ".." in name.parts:
                raise DatasetError(
                    f"{line}: topology {graph_id!r} names no file inside the dataset"
                )
            if not (root / graph_id).is_file():
                raise DatasetError(f"{line}: topology file {graph_id} not found")
            graph = load_topology(root / graph_id)
            capacities = link_capacities(graph, sim_config)
            capacities.flags.writeable = False
            topologies[graph_id] = graph, capacities
        return topologies[graph_id]

    splits: dict[str, list[Sample]] = {}
    for split in SPLITS:
        split_file = root / f"{split}.jsonl"
        lines, records = [], []
        if split_file.exists():
            with open(split_file, encoding="utf-8") as fh:
                for number, text in enumerate(fh, start=1):
                    if not text.strip():
                        continue
                    line = f"{split_file.name} line {number}"
                    try:
                        records.append(json.loads(text))
                    except json.JSONDecodeError as exc:
                        raise DatasetError(
                            f"{line}: truncated or invalid JSON ({exc.msg})"
                        ) from None
                    lines.append(line)
        n_runs = manifest["n_runs_test"] if split == "test" else 1
        sizes = {"n_flows": manifest["n_flows"], "n_runs": n_runs}
        check_json(SPLIT_FILE, records, lines, sizes)
        splits[split] = [
            _sample_from_record(record, split, manifest["l_max"], topology, line)
            for line, record in zip(lines, records)
        ]
    return Dataset(manifest, splits, sim_config)


# -- cleaning ----------------------------------------------------------------


def clean_train_samples(samples: list[Sample]) -> tuple[list[Sample], dict]:
    """Drop samples with any out-of-range or undelivered flow."""
    kept = []
    for s in samples:
        delay, jitter = s.labels[:, 0], s.labels[:, 1]
        bad = (
            np.any(~np.isfinite(s.labels))
            or np.any(delay > DELAY_LIMIT_MS)
            or np.any(jitter > JITTER_LIMIT_MS)
        )
        if not bad:
            kept.append(s)
    return kept, {"kept": len(kept), "discarded": len(samples) - len(kept)}


def clean_test_samples(samples: list[Sample]) -> tuple[list[Sample], dict]:
    """Impute benchmark gaps from sibling benchmark runs; never the reference.

    Discards a sample only when the reference run itself has a gap or some
    cell is missing in every benchmark run.
    """
    kept: list[Sample] = []
    imputed_cells = 0
    for s in samples:
        if not np.all(np.isfinite(s.labels)):
            continue
        if s.bench_runs:
            stack = np.stack(s.bench_runs)
            missing = ~np.isfinite(stack)
            if np.any(missing.all(axis=0)):
                continue
            if missing.any():
                fill = quiet_nanmean(stack, axis=0)
                imputed_cells += int(missing.sum())
                filled = [
                    np.where(missing[r], fill, stack[r])
                    for r in range(stack.shape[0])
                ]
                s = replace(s, bench_runs=filled)
        kept.append(s)
    return kept, {
        "kept": len(kept),
        "discarded": len(samples) - len(kept),
        "imputed_cells": imputed_cells,
    }


def filter_and_impute(dataset: Dataset) -> tuple[dict[str, list[Sample]], dict]:
    """Apply the split-appropriate cleaning to every split."""
    report: dict[str, dict] = {}
    cleaned: dict[str, list[Sample]] = {}
    for split in ("train", "val"):
        cleaned[split], report[split] = clean_train_samples(dataset.splits[split])
    cleaned["test"], report["test"] = clean_test_samples(dataset.splits["test"])
    return cleaned, report


# -- normalization -----------------------------------------------------------


class Normalizer:
    """Per-KPI interquartile ranges pooled over training flows and samples."""

    def __init__(self, iqr: np.ndarray, median: np.ndarray, mean: np.ndarray):
        self.iqr = np.asarray(iqr, dtype=np.float64)
        self.median = np.asarray(median, dtype=np.float64)
        self.mean = np.asarray(mean, dtype=np.float64)
        if self.iqr.shape != (len(TASKS),):
            raise DatasetError(f"iqr must have {len(TASKS)} entries")
        if not np.all((self.iqr > 0) & (self.iqr < math.inf)):  # NaN fails too
            raise DatasetError(f"iqr entries must be positive and finite, got {self.iqr}")

    def to_jsonable(self) -> dict:
        return {
            "iqr": self.iqr.tolist(),
            "median": self.median.tolist(),
            "mean": self.mean.tolist(),
        }


def fit_normalizer(train_samples: list[Sample]) -> Normalizer:
    if not train_samples:
        raise DatasetError("cannot fit a normalizer on an empty training fold")
    pooled = np.concatenate([s.labels for s in train_samples], axis=0)
    with np.errstate(invalid="ignore"):
        q1 = np.nanquantile(pooled, 0.25, axis=0)
        q3 = np.nanquantile(pooled, 0.75, axis=0)
        median = np.nanmedian(pooled, axis=0)
        mean = np.nanmean(pooled, axis=0)
    iqr = np.maximum(q3 - q1, IQR_EPS)
    return Normalizer(iqr, median, mean)


# -- training ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Training strategy and optimizer settings."""

    strategy: str = "mtl"  # stl | mtl | tl
    target_task: str | None = None  # required for stl and tl
    model_kind: str = "glance"
    size: str = "compact"  # compact | large
    epochs: int = 100
    batch_size: int = 10
    folds: int = 4
    lr: float = 1e-3
    l2_link: float = 1e-3
    l2_readout: float = 1e-4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise DatasetError(f"unknown strategy {self.strategy!r}")
        if self.strategy in ("stl", "tl"):
            if self.target_task not in TASKS:
                raise DatasetError(
                    f"strategy {self.strategy!r} needs target_task in {TASKS}"
                )
        if self.size not in ("compact", "large"):
            raise DatasetError(f"size must be compact or large, got {self.size!r}")
        if self.epochs < 1 or self.batch_size < 1 or self.folds < 1:
            raise DatasetError("epochs, batch_size and folds must be positive")
        if self.lr <= 0:
            raise DatasetError("lr must be positive")

    def active_tasks(self) -> tuple[str, ...]:
        if self.strategy == "mtl":
            return TASKS
        return (self.target_task,)

    def pretrain_tasks(self) -> tuple[str, ...]:
        return tuple(t for t in TASKS if t != self.target_task)

    def dims(self, n_flows: int) -> GlanceDims | GnnDims:
        """The dims of the model this run trains on n_flows-flow samples."""
        if self.model_kind == "gnn":
            return GnnDims(n_flows=n_flows)
        return LARGE if self.size == "large" else COMPACT


def loss_targets(
    model: TwinModel, sample: Sample, iqr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Targets with gaps zeroed, and weights making sum(|diff| * w) the loss.

    Both are in the model's task columns. Column k of the weights is
    1 / (iqr * n_valid) of its task on valid cells, so the weighted sum equals
    the per-task normalized MAE summed over tasks; masked cells contribute
    nothing to value or gradient.
    """
    cols = [TASKS.index(t) for t in model.tasks]
    picked = sample.labels[:, cols]
    finite = np.isfinite(picked)
    weights = np.zeros_like(picked)
    for k, col in enumerate(cols):
        n = int(finite[:, k].sum())
        if n:
            weights[finite[:, k], k] = 1.0 / (iqr[col] * n)
    return np.where(finite, picked, 0.0), weights


def batch_loss(
    model: TwinModel,
    tape: Tape,
    bound: dict[str, Tensor],
    batch: list[tuple[TwinInput, np.ndarray, np.ndarray]],
) -> tuple[Tensor, np.ndarray, TwinInput]:
    """Mean over a mini-batch of each sample's loss, on one tape.

    ``batch`` holds (input, targets, weights) per sample. The weights are
    scaled by 1/B, so the loss's gradient is the mean of the per-sample
    gradients. Also returns the unscaled weighted |error| per flow row, and
    the batch input whose ``flow_offsets`` split those rows by sample.
    """
    inp = batch_inputs([b[0] for b in batch])
    clean = np.concatenate([b[1] for b in batch])
    weights = np.concatenate([b[2] for b in batch])
    preds = model.forward(tape, bound, inp)
    loss = tape.weighted_l1(preds, clean, weights * (1.0 / len(batch)))
    return loss, np.abs(preds.value - clean) * weights, inp


def predict_samples(model: TwinModel, samples: list[Sample]) -> list[np.ndarray]:
    """Each sample's (F, len(model.tasks)) predictions.

    One forward covers a chunk of EVAL_CHUNK samples.
    """
    out: list[np.ndarray] = []
    for c0 in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[c0 : c0 + EVAL_CHUNK]
        inp = batch_inputs([s.twin_input for s in chunk])
        out += np.split(model.predict(inp), inp.flow_offsets[1:-1])
    return out


def loss_values(
    model: TwinModel, samples: list[Sample], normalizer: Normalizer
) -> list[tuple[float, np.ndarray]]:
    """Forward-only loss of each sample and its per-task components."""
    out = []
    for s, preds in zip(samples, predict_samples(model, samples)):
        clean, weights = loss_targets(model, s, normalizer.iqr)
        per_task = np.sum(np.abs(preds - clean) * weights, axis=0)
        out.append((float(per_task.sum()), per_task))
    return out


@dataclass
class TrainResult:
    best_params: ParamSet
    adam: AdamState
    history: list[dict]
    best_epoch: int
    best_val: float
    epochs_run: int


def train_model(
    model: TwinModel,
    train_samples: list[Sample],
    val_samples: list[Sample],
    normalizer: Normalizer,
    *,
    epochs: int,
    batch_size: int,
    lr: float,
    l2_link: float,
    l2_readout: float,
    seed: int,
    freeze_embeddings: bool = False,
    resume: TrainResult | None = None,
) -> TrainResult:
    """Adam on the masked normalized-MAE loss; keeps the best-val snapshot.

    Every head of the model is trained. freeze_embeddings leaves everything
    outside the readouts byte-identical, which is the transfer-learning mode.
    resume continues an earlier call from its result (optimizer state,
    history, best snapshot, epochs run) as if it had never stopped.
    """
    if not train_samples:
        raise DatasetError("training needs at least one sample")
    tasks = model.tasks
    update_only = frozenset(model.readout_names()) if freeze_embeddings else None
    l2 = model.l2_map(l2_link, l2_readout)
    if resume is None:
        adam = AdamState.zeros_like(model.params)
        start_epoch, history, best_val, best_params = 0, [], math.inf, None
    else:
        adam, start_epoch = resume.adam, resume.epochs_run
        history, best_val = list(resume.history), resume.best_val
        best_params = resume.best_params

    prepared = [
        (s.twin_input, *loss_targets(model, s, normalizer.iqr))
        for s in train_samples
    ]
    for epoch in range(start_epoch, epochs):
        order = make_rng(seed, "epoch", epoch).permutation(len(prepared))
        epoch_loss = 0.0
        epoch_per_task = np.zeros(len(tasks))
        for b0 in range(0, len(order), batch_size):
            tape = Tape()
            bound = model.params.bind(tape)
            loss, abs_err, inp = batch_loss(
                model, tape, bound, [prepared[i] for i in order[b0 : b0 + batch_size]]
            )
            # history rows stay per-sample sums; each column is summed on its
            # own because rows.sum(axis=0) adds in another order
            for rows in np.split(abs_err, inp.flow_offsets[1:-1]):
                epoch_loss += float(rows.sum())
                epoch_per_task += [float(rows[:, k].sum()) for k in range(len(tasks))]
            grads = tape.backward(loss)
            adam_step(
                model.params,
                {n: grads[t] for n, t in bound.items()},
                adam,
                lr,
                l2=l2,
                update_only=update_only,
            )
        n_train = len(prepared)
        row = {
            "epoch": epoch,
            "train_loss": epoch_loss / n_train,
            "train_per_task": {
                t: epoch_per_task[k] / n_train for k, t in enumerate(tasks)
            },
        }
        if val_samples:
            val_total = 0.0
            val_per_task = np.zeros(len(tasks))
            for total, per_task in loss_values(model, val_samples, normalizer):
                val_total += total
                val_per_task += per_task
            row["val_loss"] = val_total / len(val_samples)
            row["val_per_task"] = {
                t: val_per_task[k] / len(val_samples) for k, t in enumerate(tasks)
            }
        else:
            row["val_loss"] = row["train_loss"]
            row["val_per_task"] = dict(row["train_per_task"])
        history.append(row)
        if row["val_loss"] < best_val:
            best_val = row["val_loss"]
            best_params = model.params.copy()
    if best_params is None:  # no epoch ran or val never finite
        best_params = model.params.copy()
        best_val = history[-1]["val_loss"] if history else math.inf
    best_epoch = min(
        (r["epoch"] for r in history if r["val_loss"] == best_val),
        default=start_epoch,
    )
    return TrainResult(best_params, adam, history, best_epoch, best_val, epochs)


# -- strategies and cross-validation ----------------------------------------


@dataclass
class StrategyOutcome:
    model: TwinModel  # carries final params; best snapshot in result
    result: TrainResult
    normalizer: Normalizer
    pretrain_result: TrainResult | None = None
    pretrain_model: TwinModel | None = None


def transfer_model(pretrained: TwinModel, target_tasks: tuple[str, ...], seed: int) -> TwinModel:
    """Fresh readouts for the targets on top of copied embedding weights."""
    overlap = set(target_tasks) & set(pretrained.tasks)
    if overlap:
        raise DatasetError(
            f"transfer targets {sorted(overlap)} were already trained upstream"
        )
    fresh = make_model(pretrained.kind, target_tasks, seed, pretrained.dims)
    for name in fresh.params.names():
        if not name.startswith("readout/"):
            fresh.params[name] = pretrained.params[name]  # copies the values in
    return fresh


def run_strategy(
    train_samples: list[Sample],
    val_samples: list[Sample],
    config: TrainConfig,
    n_flows: int,
    normalizer: Normalizer | None = None,
    resume: tuple[TwinModel, TrainResult] | None = None,
) -> StrategyOutcome:
    """Train per the configured strategy and return the trained model.

    resume, stl and mtl only, is a model holding its last parameters and the
    result that produced them; training continues it up to config.epochs.
    """
    if normalizer is None:
        normalizer = fit_normalizer(train_samples)
    common = dict(
        epochs=config.epochs,
        batch_size=config.batch_size,
        lr=config.lr,
        l2_link=config.l2_link,
        l2_readout=config.l2_readout,
    )
    if config.strategy in ("stl", "mtl"):
        model, previous = resume or (
            make_model(
                config.model_kind,
                config.active_tasks(),
                derive_seed(config.seed, "init"),
                config.dims(n_flows),
            ),
            None,
        )
        result = train_model(
            model, train_samples, val_samples, normalizer,
            seed=derive_seed(config.seed, "train"), resume=previous, **common,
        )
        return StrategyOutcome(model, result, normalizer)
    if resume is not None:
        raise DatasetError("resuming supports the stl and mtl strategies only")

    pre_model = make_model(
        config.model_kind,
        config.pretrain_tasks(),
        derive_seed(config.seed, "pre-init"),
        config.dims(n_flows),
    )
    pre_result = train_model(
        pre_model, train_samples, val_samples, normalizer,
        seed=derive_seed(config.seed, "pre-train"), **common,
    )
    pre_model.params = pre_result.best_params.copy()
    model = transfer_model(
        pre_model, (config.target_task,), derive_seed(config.seed, "tl-readout")
    )
    result = train_model(
        model, train_samples, val_samples, normalizer,
        seed=derive_seed(config.seed, "tl-train"),
        freeze_embeddings=True,
        **common,
    )
    return StrategyOutcome(model, result, normalizer, pre_result, pre_model)


@dataclass
class CvOutcome:
    folds: list[StrategyOutcome]  # fold f at index f
    best_fold: int
    mean_best_val: float
    std_best_val: float

    def champion(self) -> StrategyOutcome:
        return self.folds[self.best_fold]


def fold_split(n: int, fold: int, n_folds: int) -> tuple[list[int], list[int]]:
    """Deterministic assignment: sample i validates in fold i mod n_folds."""
    val = [i for i in range(n) if i % n_folds == fold]
    train = [i for i in range(n) if i % n_folds != fold]
    return train, val


def cross_validate(
    samples: list[Sample], config: TrainConfig, n_flows: int
) -> CvOutcome:
    """config.folds training runs, each with its own normalizer and seeds."""
    if len(samples) < config.folds:
        raise DatasetError(
            f"{len(samples)} samples cannot fill {config.folds} folds"
        )
    folds = []
    for f in range(config.folds):
        train_idx, val_idx = fold_split(len(samples), f, config.folds)
        fold_config = replace(config, seed=derive_seed(config.seed, "fold", f))
        outcome = run_strategy(
            [samples[i] for i in train_idx],
            [samples[i] for i in val_idx],
            fold_config,
            n_flows,
        )
        folds.append(outcome)
    best_vals = np.array([fold.result.best_val for fold in folds])
    best_fold = int(np.argmin(best_vals))
    return CvOutcome(folds, best_fold, float(best_vals.mean()), float(best_vals.std()))


# -- evaluation --------------------------------------------------------------


def nmae_row(
    preds_list: list[np.ndarray], labels_list: list[np.ndarray], iqr: np.ndarray
) -> dict[str, float]:
    """Per-KPI mean |prediction - reference| / IQR pooled over flows/samples."""
    row = {}
    for k, task in enumerate(TASKS):
        errs = []
        for preds, labels in zip(preds_list, labels_list):
            p, y = preds[:, k], labels[:, k]
            ok = np.isfinite(p) & np.isfinite(y)
            if ok.any():
                errs.append(np.abs(p[ok] - y[ok]))
        row[task] = float(np.concatenate(errs).mean() / iqr[k]) if errs else math.nan
    return row


def evaluate_model(
    model: TwinModel, test_samples: list[Sample], normalizer: Normalizer
) -> dict[str, float]:
    """NMAE of the model against reference-run KPIs.

    Models trained on a task subset report NaN for the tasks they lack.
    """
    preds_list = []
    col_of = {t: k for k, t in enumerate(model.tasks)}
    for out in predict_samples(model, test_samples):
        full = np.full((out.shape[0], len(TASKS)), math.nan)
        for t, k in col_of.items():
            full[:, TASKS.index(t)] = out[:, k]
        preds_list.append(full)
    return nmae_row(preds_list, [s.labels for s in test_samples], normalizer.iqr)


def simbase_rows(
    test_samples: list[Sample], normalizer: Normalizer
) -> dict[str, dict[str, float]]:
    """Repeat-average estimator NMAE for every run budget the data affords."""
    if not test_samples:
        return {}
    max_n = min(len(s.bench_runs) for s in test_samples)
    rows = {}
    for n in range(1, max_n + 1):
        preds_list = [simbase_estimate(s.bench_runs, n) for s in test_samples]
        rows[f"simbase_{n}"] = nmae_row(
            preds_list, [s.labels for s in test_samples], normalizer.iqr
        )
    return rows


def naive_rows(
    test_samples: list[Sample], normalizer: Normalizer
) -> dict[str, dict[str, float]]:
    """Constant predictors fit on the training fold: median and mean."""
    labels_list = [s.labels for s in test_samples]
    out = {}
    for name, level in (("naive_median", normalizer.median), ("naive_mean", normalizer.mean)):
        preds_list = [np.tile(level, (lbl.shape[0], 1)) for lbl in labels_list]
        out[name] = nmae_row(preds_list, labels_list, normalizer.iqr)
    return out


def evaluation_report(
    models: dict[str, TwinModel],
    test_samples: list[Sample],
    normalizer: Normalizer,
) -> dict:
    """Method-by-KPI NMAE table: model rows, naive rows, repeat-average rows."""
    rows: dict[str, dict[str, float]] = {}
    for name, model in models.items():
        rows[name] = evaluate_model(model, test_samples, normalizer)
    rows.update(naive_rows(test_samples, normalizer))
    rows.update(simbase_rows(test_samples, normalizer))
    return {
        "n_test_samples": len(test_samples),
        "iqr": {t: float(normalizer.iqr[k]) for k, t in enumerate(TASKS)},
        "rows": rows,
    }


# -- persistence helpers -----------------------------------------------------


def checkpoint_manifest(
    model: TwinModel,
    normalizer: Normalizer,
    config: TrainConfig,
    result: TrainResult,
    dataset_manifest: dict | None = None,
) -> dict:
    manifest = {
        "kind": model.kind,
        "tasks": list(model.tasks),
        "dims": asdict(model.dims),
        "normalizer": normalizer.to_jsonable(),
        "strategy": config.strategy,
        "target_task": config.target_task,
        "train_config": {key: getattr(config, key) for key in _TRAIN_CONFIG_KEYS},
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "epochs_run": result.epochs_run,
    }
    if dataset_manifest is not None:
        manifest["dataset"] = {key: dataset_manifest[key] for key in _DATASET_KEYS}
    return manifest


#: the TrainConfig fields, and the dataset manifest fields, a checkpoint records
_TRAIN_CONFIG_KEYS = ("epochs", "batch_size", "lr", "l2_link", "l2_readout", "seed")
_DATASET_KEYS = ("scenario", "seed", "n_flows")


def _checkpoint_manifest_spec(dims_type: type) -> dict:
    """The manifest of a checkpoint of a model with dims_type dims. A
    training state file's also holds the history; the command line adds the
    run's clean_report and resolved_config, and cv for a cross-validation."""
    train_config = dataclass_spec(TrainConfig)
    per_task = MapOf(float)  # task name -> loss
    return {
        "kind": OneOf(*MODEL_KINDS),
        "tasks": ListOf(OneOf(*TASKS)),
        "dims": dataclass_spec(dims_type),
        "normalizer": dict.fromkeys(("iqr", "median", "mean"), ListOf(float, len(TASKS))),
        "strategy": OneOf(*STRATEGIES),
        "target_task": (OneOf(*TASKS), None),
        "train_config": {key: train_config[key] for key in _TRAIN_CONFIG_KEYS},
        "best_epoch": int,
        "best_val": float,
        "epochs_run": int,
        "dataset?": {key: DATASET_MANIFEST[key] for key in _DATASET_KEYS},
        "history?": ListOf({
            "epoch": int, "train_loss": float, "train_per_task": per_task,
            "val_loss": float, "val_per_task": per_task,
        }),
        "clean_report?": dict,
        "resolved_config?": dict,
        "cv?": dict,
    }


#: checkpoint manifest schemas by the dims type of the manifest's kind
CHECKPOINT_MANIFESTS = {t: _checkpoint_manifest_spec(t) for t in (GlanceDims, GnnDims)}


def model_from_checkpoint(
    params: ParamSet, manifest: dict, where: str
) -> tuple[TwinModel, Normalizer]:
    """The model of the checkpoint at ``where``, once its manifest fits
    CHECKPOINT_MANIFESTS and its parameters match the manifest's.

    Every parameter name and shape is compared with a freshly built model of
    the manifest's kind, tasks and dims; a mismatch raises TwinError naming
    the parameter.
    """
    kind = manifest.get("kind")
    dims_type = GnnDims if kind == "gnn" else GlanceDims
    check_json(CHECKPOINT_MANIFESTS[dims_type], manifest, where, {})
    tasks = tuple(manifest["tasks"])
    try:
        fresh = make_model(kind, tasks, 0, dims_type(**manifest["dims"]))
        normalizer = Normalizer(**manifest["normalizer"])
    except (TwinError, DatasetError) as exc:  # a value out of range
        raise type(exc)(f"{where}: {exc}") from None
    for name, want in fresh.params.items():
        if name not in params:
            raise TwinError(f"{where}: checkpoint lacks parameter {name!r} of its {kind} model")
        if params[name].shape != want.shape:
            raise TwinError(
                f"{where}: checkpoint parameter {name!r} has shape {params[name].shape}, "
                f"its {kind} model needs {want.shape}"
            )
    extra = [n for n in params.names() if n not in fresh.params]
    if extra:
        raise TwinError(f"{where}: checkpoint parameter {extra[0]!r} is not in its {kind} model")
    return TwinModel(kind, tasks, params, fresh.dims), normalizer


def write_learning_curves(path: str | Path, histories: dict[int, list[dict]]) -> None:
    """CSV of per-epoch losses: one row per (fold, epoch, split)."""
    tasks_seen: list[str] = []
    for history in histories.values():
        for row in history:
            for t in row["train_per_task"]:
                if t not in tasks_seen:
                    tasks_seen.append(t)
    header = ["epoch", "fold", "split", "loss_total"] + [f"loss_{t}" for t in tasks_seen]
    lines = [",".join(header)]
    for fold in sorted(histories):
        for row in histories[fold]:
            for split in ("train", "val"):
                per = row[f"{split}_per_task"]
                cells = [
                    str(row["epoch"]),
                    str(fold),
                    split,
                    f"{row[f'{split}_loss']:.12g}",
                ] + [f"{per[t]:.12g}" if t in per else "" for t in tasks_seen]
                lines.append(",".join(cells))
    with open_fresh(path) as fh:
        fh.write("\n".join(lines) + "\n")


def bootstrap_mean_diff_ci(
    a: np.ndarray, b: np.ndarray, n_boot: int = 2000, seed: int = 0, alpha: float = 0.05
) -> tuple[float, float]:
    """Percentile CI for mean(a) - mean(b) under paired resampling."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("paired bootstrap needs equal-length 1-D arrays")
    rng = make_rng(seed, "bootstrap")
    idx = rng.integers(a.size, size=(n_boot, a.size))
    diffs = a[idx].mean(axis=1) - b[idx].mean(axis=1)
    lo, hi = np.quantile(diffs, [alpha / 2, 1 - alpha / 2])
    return float(lo), float(hi)
