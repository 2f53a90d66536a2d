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
from pathlib import Path

import numpy as np

from .autodiff import AdamState, ParamSet, Tape, Tensor, adam_step
from .nettopo import (
    FlowSet,
    Graph,
    build_nsfnet,
    build_pert_grid,
    build_reg_grid,
    load_topology,
    sample_flows,
    save_topology,
)
from .routing import Path as RoutePath
from .routing import RoutingTable, _bfs_distances, validate_table
from .seeding import derive_seed, make_rng
from .simulator import (
    TASKS,
    KpiRecord,
    SimConfig,
    TrafficParams,
    default_sim_config,
    link_capacities,
    quiet_nanmean,
    run_benchmarks,
    sample_traffic_params,
)
from .twin import (
    COMPACT,
    LARGE,
    GlanceDims,
    GnnDims,
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

#: samples per forward when validating and evaluating; bounds the size of
#: a batch's dense block-diagonal node operator
EVAL_CHUNK = 10

SPLITS = ("train", "val", "test")


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
    sim_overrides: tuple[tuple[str, float], ...] = ()

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
        if self.n_flows < 1 or self.l_max < 1 or self.t_gen <= 0:
            raise DatasetError("n_flows, l_max and t_gen must be positive")
        object.__setattr__(
            self,
            "sim_overrides",
            tuple((str(k), v) for k, v in self.sim_overrides),
        )

    def sim_config(self, wired: bool) -> SimConfig:
        base = default_sim_config(wired, t_gen=self.t_gen)
        if not self.sim_overrides:
            return base
        return replace(base, **dict(self.sim_overrides))


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
        dist = _bfs_distances(graph, source)
        if dist.min() < 0:
            return graph.n_nodes + 1  # disconnected counts as over any l_max
        worst = max(worst, int(dist.max()))
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
        topo_payload = _topology_payload(graph)
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


def _topology_payload(graph: Graph) -> dict:
    return {
        "nodes": graph.n_nodes,
        "positions": None
        if graph.positions is None
        else [[float(x), float(y)] for x, y in graph.positions],
        "wired": graph.wired,
        "edges": [
            [i, j, float(graph.adjacency[i, j])] for (i, j) in graph.links if i < j
        ],
    }


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
    out.mkdir(parents=True, exist_ok=True)

    base = _base_graph(config)
    if not scenario.per_sample_topology:
        if _hop_diameter(base) > config.l_max:
            raise DatasetError(
                f"{scenario.topology} hop diameter exceeds l_max={config.l_max}"
            )
        save_topology(base, out / "topology.json")
    else:
        (out / "topologies").mkdir(exist_ok=True)

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

    counts = {}
    for split in SPLITS:
        rows = sorted(by_split[split])
        counts[split] = len(rows)
        with open(out / f"{split}.jsonl", "w", encoding="utf-8") as fh:
            for index, record, topo in rows:
                if topo is not None:
                    name = f"topologies/{split}_{index:05d}.json"
                    with open(out / name, "w", encoding="utf-8") as tfh:
                        json.dump(topo, tfh, sort_keys=True, indent=1)
                        tfh.write("\n")
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
        "sim_config": {
            "t_gen": sim_config.t_gen,
            "t_prep": sim_config.t_prep,
            "packet_bytes": sim_config.packet_bytes,
            "cbr_rate": sim_config.cbr_rate,
            "link_capacity_default": sim_config.link_capacity_default,
            "queue_buffer_pkts": sim_config.queue_buffer_pkts,
            "wireless_contention": sim_config.wireless_contention,
        },
        "traffic_mode": scenario.traffic_mode,
        "filters": {"delay_limit_ms": DELAY_LIMIT_MS, "jitter_limit_ms": JITTER_LIMIT_MS},
        "capacity_scale": 1e6,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return manifest


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
    _inputs: dict = field(default_factory=dict, repr=False, compare=False)

    def twin_input(self, l_max: int):
        if l_max not in self._inputs:
            self._inputs[l_max] = prepare_twin_input(
                self.graph, self.table, self.traffic, self.capacities, l_max
            )
        return self._inputs[l_max]


@dataclass
class Dataset:
    manifest: dict
    splits: dict[str, list[Sample]]

    @property
    def scenario(self) -> str:
        return self.manifest["scenario"]

    def sim_config(self) -> SimConfig:
        return SimConfig(**self.manifest["sim_config"])


def _sample_from_record(
    record: dict, split: str, manifest: dict, graphs: dict[str, Graph], root: Path
) -> Sample:
    where = f"{split} sample {record['index']}"
    graph_id = record["topology"]
    if graph_id not in graphs:
        if not (root / graph_id).is_file():
            raise DatasetError(f"{where}: topology file {graph_id} not found")
        graphs[graph_id] = load_topology(root / graph_id)
    graph = graphs[graph_id]
    flows = FlowSet(tuple(record["sources"]), tuple(record["destinations"]))
    n_flows = len(flows.sources)
    if manifest.get("n_flows", n_flows) != n_flows:
        raise DatasetError(
            f"{where}: {n_flows} flows, the manifest says {manifest['n_flows']}"
        )
    for key in ("tau_on", "tau_off"):
        if len(record[key]) != n_flows:
            raise DatasetError(
                f"{where}: {key} has {len(record[key])} entries for {n_flows} flows"
            )
    traffic = TrafficParams(tuple(record["tau_on"]), tuple(record["tau_off"]))
    violations = validate_table(record["paths"], graph, flows, manifest.get("l_max"))
    if violations:
        v = violations[0]
        flow = "" if v.flow_index < 0 else f" flow {v.flow_index}"
        raise DatasetError(f"{where}:{flow} bad route, {v.kind}: {v.detail}")
    paths = tuple(
        RoutePath(f, tuple((int(i), int(j)) for i, j in links))
        for f, links in enumerate(record["paths"])
    )
    table = RoutingTable(paths, int(record["routing_seed"]))
    if not record["runs"]:
        raise DatasetError(f"{where}: no runs")
    for r, run in enumerate(record["runs"]):
        rows = run["kpis"]
        if len(rows) != n_flows or any(len(row) != len(TASKS) for row in rows):
            raise DatasetError(
                f"{where}: run {r} KPI matrix is not {n_flows}x{len(TASKS)}"
            )
    runs = [KpiRecord.from_jsonable(r["kpis"]).kpis for r in record["runs"]]
    sim_config = SimConfig(**manifest["sim_config"])
    return Sample(
        index=int(record["index"]),
        split=split,
        graph_id=graph_id,
        graph=graph,
        flows=flows,
        traffic=traffic,
        table=table,
        capacities=link_capacities(graph, sim_config),
        labels=runs[0],
        bench_runs=runs[1:],
    )


def load_dataset(path: str | Path) -> Dataset:
    root = Path(path)
    manifest_file = root / "manifest.json"
    if not manifest_file.exists():
        raise DatasetError(f"no manifest.json under {root}")
    with open(manifest_file, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != DATASET_FORMAT:
        raise DatasetError(f"{manifest_file} is not a dataset manifest")
    if manifest.get("version") != DATASET_VERSION:
        raise DatasetError(f"unsupported dataset version {manifest.get('version')}")
    graphs: dict[str, Graph] = {}
    splits: dict[str, list[Sample]] = {}
    for split in SPLITS:
        split_file = root / f"{split}.jsonl"
        samples: list[Sample] = []
        if split_file.exists():
            with open(split_file, encoding="utf-8") as fh:
                for number, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        raise DatasetError(
                            f"{split}.jsonl line {number}: truncated or invalid "
                            f"JSON ({exc.msg})"
                        ) from None
                    samples.append(
                        _sample_from_record(record, split, manifest, graphs, root)
                    )
        splits[split] = samples
    return Dataset(manifest, splits)


# -- cleaning ----------------------------------------------------------------


def clean_train_samples(
    samples: list[Sample],
    delay_limit: float = DELAY_LIMIT_MS,
    jitter_limit: float = JITTER_LIMIT_MS,
) -> tuple[list[Sample], dict]:
    """Drop samples with any out-of-range or undelivered flow."""
    kept = []
    for s in samples:
        delay, jitter = s.labels[:, 0], s.labels[:, 1]
        bad = (
            np.any(~np.isfinite(s.labels))
            or np.any(delay > delay_limit)
            or np.any(jitter > jitter_limit)
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
                s = replace(s, bench_runs=filled, _inputs={})
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

    def normalize(self, kpis: np.ndarray) -> np.ndarray:
        return np.asarray(kpis) / self.iqr

    def denormalize(self, kpis: np.ndarray) -> np.ndarray:
        return np.asarray(kpis) * self.iqr

    def to_jsonable(self) -> dict:
        return {
            "iqr": self.iqr.tolist(),
            "median": self.median.tolist(),
            "mean": self.mean.tolist(),
        }

    @classmethod
    def from_jsonable(cls, payload: dict) -> "Normalizer":
        return cls(
            np.array(payload["iqr"]),
            np.array(payload["median"]),
            np.array(payload["mean"]),
        )


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
        if self.strategy not in ("stl", "mtl", "tl"):
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

    def dims(self) -> GlanceDims:
        return LARGE if self.size == "large" else COMPACT


def _loss_terms(
    labels: np.ndarray, task_idx: list[int], iqr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Targets with gaps zeroed, and weights making sum(|diff| * w) the loss.

    Column k of the weights is 1 / (iqr_k * n_valid_k) on valid cells, so the
    weighted sum equals the per-task normalized MAE summed over tasks; masked
    cells contribute nothing to value or gradient.
    """
    picked = labels[:, task_idx]
    finite = np.isfinite(picked)
    weights = np.zeros_like(picked)
    for k, col in enumerate(task_idx):
        n = int(finite[:, k].sum())
        if n:
            weights[finite[:, k], k] = 1.0 / (iqr[col] * n)
    return np.where(finite, picked, 0.0), weights


def loss_targets(
    model: TwinModel, sample: Sample, active: tuple[str, ...], iqr: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Targets and loss weights in the model's task columns.

    Columns of tasks outside ``active`` weigh nothing.
    """
    clean_full = np.zeros((len(sample.table.paths), len(model.tasks)))
    weights_full = np.zeros_like(clean_full)
    clean, weights = _loss_terms(sample.labels, [TASKS.index(t) for t in active], iqr)
    for k, t in enumerate(active):
        col = model.tasks.index(t)
        clean_full[:, col] = clean[:, k]
        weights_full[:, col] = weights[:, k]
    return clean_full, weights_full


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
    diff = tape.absolute(tape.sub(preds, tape.constant(clean)))
    loss = tape.total_sum(tape.mul(diff, tape.constant(weights * (1.0 / len(batch)))))
    return loss, np.abs(preds.value - clean) * weights, inp


def predict_samples(model: TwinModel, samples: list[Sample]) -> list[np.ndarray]:
    """Each sample's (F, len(model.tasks)) predictions.

    One forward covers a chunk of EVAL_CHUNK samples.
    """
    out: list[np.ndarray] = []
    for c0 in range(0, len(samples), EVAL_CHUNK):
        chunk = samples[c0 : c0 + EVAL_CHUNK]
        inp = batch_inputs([s.twin_input(model.l_max) for s in chunk])
        out += np.split(model.predict(inp), inp.flow_offsets[1:-1])
    return out


def loss_values(
    model: TwinModel, samples: list[Sample], normalizer: Normalizer, task_idx: list[int]
) -> list[tuple[float, np.ndarray]]:
    """Forward-only loss of each sample and its per-task components."""
    cols = [model.tasks.index(TASKS[k]) for k in task_idx]
    out = []
    for s, preds in zip(samples, predict_samples(model, samples)):
        clean, weights = _loss_terms(s.labels, task_idx, normalizer.iqr)
        per_task = np.sum(np.abs(preds[:, cols] - clean) * weights, axis=0)
        out.append((float(per_task.sum()), per_task))
    return out


def sample_loss_value(
    model: TwinModel, sample: Sample, normalizer: Normalizer, task_idx: list[int]
) -> tuple[float, np.ndarray]:
    """Forward-only loss and its per-task components."""
    return loss_values(model, [sample], normalizer, task_idx)[0]


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
    active_tasks: tuple[str, ...] | None = None,
    freeze_embeddings: bool = False,
    adam: AdamState | None = None,
    start_epoch: int = 0,
    history: list[dict] | None = None,
    best_val: float = math.inf,
    best_params: ParamSet | None = None,
) -> TrainResult:
    """Adam on the masked normalized-MAE loss; keeps the best-val snapshot.

    active_tasks restricts the loss (and the parameters that move) to a
    subset of the model's heads; freeze_embeddings leaves everything outside
    the active readouts byte-identical, which is the transfer-learning mode.
    The resume arguments (adam, start_epoch, history, best_*) continue an
    earlier call as if it had never stopped.
    """
    if not train_samples:
        raise DatasetError("training needs at least one sample")
    active = tuple(active_tasks) if active_tasks else model.tasks
    unknown = [t for t in active if t not in model.tasks]
    if unknown:
        raise DatasetError(f"active tasks {unknown} not in model tasks {model.tasks}")
    task_idx = [TASKS.index(t) for t in active]
    col_of = {t: k for k, t in enumerate(model.tasks)}

    update_only = None
    if freeze_embeddings or active != model.tasks:
        allowed = set()
        if not freeze_embeddings:
            allowed.update(model.embedding_names())
        for t in active:
            allowed.update(model.readout_names(t))
        update_only = frozenset(allowed)

    l2 = model.l2_map(l2_link, l2_readout)
    if adam is None:
        adam = AdamState.zeros_like(model.params)
    history = list(history) if history else []

    prepared = [
        (s.twin_input(model.l_max), *loss_targets(model, s, active, normalizer.iqr))
        for s in train_samples
    ]
    for epoch in range(start_epoch, epochs):
        order = make_rng(seed, "epoch", epoch).permutation(len(prepared))
        epoch_loss = 0.0
        epoch_per_task = np.zeros(len(active))
        for b0 in range(0, len(order), batch_size):
            tape = Tape()
            bound = model.params.bind(tape)
            loss, abs_err, inp = batch_loss(
                model, tape, bound, [prepared[i] for i in order[b0 : b0 + batch_size]]
            )
            # history rows stay per-sample sums
            for rows in np.split(abs_err, inp.flow_offsets[1:-1]):
                epoch_loss += float(rows.sum())
                epoch_per_task += [float(rows[:, col_of[t]].sum()) for t in active]
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
                t: epoch_per_task[k] / n_train for k, t in enumerate(active)
            },
        }
        if val_samples:
            val_total = 0.0
            val_per_task = np.zeros(len(active))
            for total, per_task in loss_values(model, val_samples, normalizer, task_idx):
                val_total += total
                val_per_task += per_task
            row["val_loss"] = val_total / len(val_samples)
            row["val_per_task"] = {
                t: val_per_task[k] / len(val_samples) for k, t in enumerate(active)
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


def _build_model(
    config: TrainConfig, tasks: tuple[str, ...], n_flows: int, seed: int
) -> TwinModel:
    if config.model_kind == "gnn":
        return make_model("gnn", tasks, seed, n_flows=n_flows)
    return make_model(config.model_kind, tasks, seed, dims=config.dims())


def transfer_model(pretrained: TwinModel, target_tasks: tuple[str, ...], seed: int) -> TwinModel:
    """Fresh readouts for the targets on top of copied embedding weights."""
    overlap = set(target_tasks) & set(pretrained.tasks)
    if overlap:
        raise DatasetError(
            f"transfer targets {sorted(overlap)} were already trained upstream"
        )
    if isinstance(pretrained.dims, GnnDims):
        fresh = make_model("gnn", tuple(target_tasks), seed, gnn_dims=pretrained.dims)
    else:
        fresh = make_model(
            pretrained.kind, tuple(target_tasks), seed, dims=pretrained.dims
        )
    for name in fresh.params.names():
        if not name.startswith("readout/"):
            fresh.params[name] = pretrained.params[name].copy()
    return fresh


def run_strategy(
    train_samples: list[Sample],
    val_samples: list[Sample],
    config: TrainConfig,
    n_flows: int,
    normalizer: Normalizer | None = None,
) -> StrategyOutcome:
    """Train per the configured strategy and return the trained model."""
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
        model = _build_model(
            config, config.active_tasks(), n_flows, derive_seed(config.seed, "init")
        )
        result = train_model(
            model, train_samples, val_samples, normalizer,
            seed=derive_seed(config.seed, "train"), **common,
        )
        return StrategyOutcome(model, result, normalizer)

    pre_model = _build_model(
        config, config.pretrain_tasks(), n_flows, derive_seed(config.seed, "pre-init")
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
class FoldOutcome:
    fold: int
    outcome: StrategyOutcome


@dataclass
class CvOutcome:
    folds: list[FoldOutcome]
    best_fold: int
    mean_best_val: float
    std_best_val: float

    def champion(self) -> StrategyOutcome:
        return self.folds[self.best_fold].outcome


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
    folds: list[FoldOutcome] = []
    for f in range(config.folds):
        train_idx, val_idx = fold_split(len(samples), f, config.folds)
        fold_config = replace(config, seed=derive_seed(config.seed, "fold", f))
        outcome = run_strategy(
            [samples[i] for i in train_idx],
            [samples[i] for i in val_idx],
            fold_config,
            n_flows,
        )
        folds.append(FoldOutcome(f, outcome))
    best_vals = np.array([fo.outcome.result.best_val for fo in folds])
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
        preds_list = []
        for s in test_samples:
            preds_list.append(quiet_nanmean(np.stack(s.bench_runs[:n]), axis=0))
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
        "train_config": {
            "epochs": config.epochs,
            "batch_size": config.batch_size,
            "lr": config.lr,
            "l2_link": config.l2_link,
            "l2_readout": config.l2_readout,
            "seed": config.seed,
        },
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "epochs_run": result.epochs_run,
    }
    if dataset_manifest is not None:
        manifest["dataset"] = {
            "scenario": dataset_manifest["scenario"],
            "seed": dataset_manifest["seed"],
            "n_flows": dataset_manifest["n_flows"],
        }
    return manifest


def model_from_checkpoint(params: ParamSet, manifest: dict) -> tuple[TwinModel, Normalizer]:
    kind = manifest["kind"]
    tasks = tuple(manifest["tasks"])
    if kind == "gnn":
        dims: GlanceDims | GnnDims = GnnDims(**manifest["dims"])
    else:
        dims = GlanceDims(**manifest["dims"])
    model = TwinModel(kind, tasks, params, dims)
    return model, Normalizer.from_jsonable(manifest["normalizer"])


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
    with open(path, "w", encoding="utf-8") as fh:
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
