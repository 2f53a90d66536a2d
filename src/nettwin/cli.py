"""Command-line front end tying the library into reproducible experiments.

Every command reads an optional JSON config file, lets flags override it,
and re-emits the fully resolved configuration both to stdout and into its
outputs, so any run can be reproduced from what it wrote. No output ever
contains a timestamp; rerunning a command with the same inputs rewrites
byte-identical files.

Exit codes: 0 success, 2 usage or configuration problems (bad flags,
missing files, mismatched checkpoints), 3 numerical failure (divergence).

The environment variable NETTWIN_OUT, when set, is the root under which
relative output paths are created.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import DivergenceError, load_checkpoint, save_checkpoint
from .fileio import open_fresh
from .manage import (
    TRAFFIC_BOUNDS,
    ManageError,
    NetworkInput,
    TargetProfile,
    evaluate_management,
    gd_traffic,
    hillclimb_destinations,
    mean_runs,
    trajectory_csv,
)
from .nettopo import FlowSet, TopologyError
from .pipeline import (
    DatasetError,
    GenConfig,
    Normalizer,
    TrainConfig,
    TrainResult,
    checkpoint_manifest,
    cross_validate,
    evaluation_report,
    filter_and_impute,
    fit_normalizer,
    generate_dataset,
    load_dataset,
    model_from_checkpoint,
    run_strategy,
    training_defaults,
    write_learning_curves,
)
from .routing import RoutingError
from .seeding import derive_seed
from .simulator import TASKS, SimulationError, TrafficParams
from .twin import TwinError, TwinModel

USAGE_ERRORS = (
    DatasetError,
    ManageError,
    RoutingError,
    SimulationError,
    TopologyError,
    TwinError,
    FileNotFoundError,
    NotADirectoryError,
    json.JSONDecodeError,
    KeyError,
    ValueError,
)


class _CliError(Exception):
    """Internal: carries an exit code and a message."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _out_path(raw: str) -> Path:
    path = Path(raw)
    root = os.environ.get("NETTWIN_OUT")
    if root and not path.is_absolute():
        path = Path(root) / path
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    with open_fresh(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise _CliError(f"config file {path} must hold a JSON object")
    return payload


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags; returns the resolved dict."""
    file_values = _load_config_file(getattr(args, "config", None))
    unknown = set(file_values) - set(defaults)
    if unknown:
        raise _CliError(f"config file keys not understood: {sorted(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            resolved[key] = flag
        elif key in file_values:
            resolved[key] = file_values[key]
        else:
            resolved[key] = default
    return resolved


def _require(value, name: str):
    if value is None:
        raise _CliError(f"--{name.replace('_', '-')} is required")
    return value


# -- gen-data -----------------------------------------------------------------

GEN_DEFAULTS = {
    "scenario": None,
    "n_train": 200,
    "n_val": 50,
    "n_test": 50,
    "n_r_test": 4,
    "n_flows": 10,
    "t_gen": 180.0,
    "l_max": 3,
    "seed": 0,
    "out": None,
    "jobs": 1,
}


def _cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = _resolve(args, GEN_DEFAULTS)
    _require(resolved["scenario"], "scenario")
    out = _out_path(_require(resolved["out"], "out"))
    config = GenConfig(
        scenario=resolved["scenario"],
        n_train=int(resolved["n_train"]),
        n_val=int(resolved["n_val"]),
        n_test=int(resolved["n_test"]),
        n_r_test=int(resolved["n_r_test"]),
        n_flows=int(resolved["n_flows"]),
        t_gen=float(resolved["t_gen"]),
        l_max=int(resolved["l_max"]),
        seed=int(resolved["seed"]),
    )
    _emit({"resolved_config": resolved})
    manifest = generate_dataset(config, out, jobs=int(resolved["jobs"]))
    _write_json(out / "resolved_config.json", resolved)
    _emit({"dataset": str(out), "splits": manifest["splits"]})
    return 0


# -- train ---------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "data": None,
    "out": None,
    "strategy": "mtl",
    "target_task": None,
    "model": "glance",
    "size": "compact",
    "epochs": 100,
    "batch_size": 10,
    "folds": 4,
    "lr": None,
    "l2_link": None,
    "l2_readout": None,
    "seed": 0,
    "cv": False,
    "resume": False,
    "curves": None,
}


def _train_config(resolved: dict, scenario: str) -> TrainConfig:
    defaults = training_defaults(scenario)
    return TrainConfig(
        strategy=resolved["strategy"],
        target_task=resolved["target_task"],
        model_kind=resolved["model"],
        size=resolved["size"],
        epochs=int(resolved["epochs"]),
        batch_size=int(resolved["batch_size"]),
        folds=int(resolved["folds"]),
        lr=float(resolved["lr"] if resolved["lr"] is not None else defaults["lr"]),
        l2_link=float(
            resolved["l2_link"]
            if resolved["l2_link"] is not None
            else defaults["l2_link"]
        ),
        l2_readout=float(
            resolved["l2_readout"]
            if resolved["l2_readout"] is not None
            else defaults["l2_readout"]
        ),
        seed=int(resolved["seed"]),
    )


def _state_path(out: Path) -> Path:
    return out.with_name(out.name + ".state")


def _resume_state(out: Path) -> tuple[tuple[TwinModel, TrainResult], Normalizer]:
    """The run saved at out: its last model and result, and its normalizer."""
    params, state_manifest, adam = load_checkpoint(_state_path(out))
    best_params, best_manifest, _ = load_checkpoint(out)
    model, normalizer = model_from_checkpoint(params, state_manifest)
    best_model, _ = model_from_checkpoint(best_params, best_manifest)
    result = TrainResult(
        best_params=best_model.params,
        adam=adam,
        history=state_manifest["history"],
        best_epoch=int(best_manifest["best_epoch"]),
        best_val=float(best_manifest["best_val"]),
        epochs_run=int(state_manifest["epochs_run"]),
    )
    return (model, result), normalizer


def _cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args, TRAIN_DEFAULTS)
    data_dir = Path(_require(resolved["data"], "data"))
    out = _out_path(_require(resolved["out"], "out"))
    dataset = load_dataset(data_dir)
    config = _train_config(resolved, dataset.scenario)
    _emit({"resolved_config": resolved})

    cleaned, clean_report = filter_and_impute(dataset)
    train_samples, val_samples = cleaned["train"], cleaned["val"]
    n_flows = int(dataset.manifest["n_flows"])

    if resolved["cv"] and resolved["resume"]:
        raise _CliError("--resume does not combine with --cv")
    if resolved["resume"] and config.strategy == "tl":
        raise _CliError("--resume supports stl and mtl strategies only")

    if resolved["cv"]:
        pool = train_samples + val_samples
        cv = cross_validate(pool, config, n_flows)
        champion = cv.champion()
        model, result, normalizer = (
            champion.model,
            champion.result,
            champion.normalizer,
        )
        histories = {fo.fold: fo.outcome.result.history for fo in cv.folds}
        extra = {
            "cv": {
                "folds": config.folds,
                "best_fold": cv.best_fold,
                "mean_best_val": cv.mean_best_val,
                "std_best_val": cv.std_best_val,
            }
        }
    else:
        resume, normalizer = None, None
        if resolved["resume"] and _state_path(out).exists():
            resume, normalizer = _resume_state(out)
        outcome = run_strategy(
            train_samples, val_samples, config, n_flows, normalizer, resume
        )
        model, result, normalizer = (
            outcome.model,
            outcome.result,
            outcome.normalizer,
        )
        histories = {0: result.history}
        extra = {}

    manifest = checkpoint_manifest(model, normalizer, config, result, dataset.manifest)
    manifest["clean_report"] = clean_report
    manifest["resolved_config"] = resolved
    manifest.update(extra)
    save_checkpoint(out, result.best_params, manifest)
    if not resolved["cv"]:
        state_manifest = dict(manifest)
        state_manifest["history"] = result.history
        save_checkpoint(_state_path(out), model.params, state_manifest, result.adam)
    curves = resolved["curves"]
    if curves:
        write_learning_curves(_out_path(curves), histories)
    _emit(
        {
            "checkpoint": str(out),
            "best_epoch": result.best_epoch,
            "best_val": result.best_val,
            "epochs_run": result.epochs_run,
        }
    )
    return 0


# -- eval and benchmark ---------------------------------------------------------

EVAL_DEFAULTS = {"data": None, "out": None}


def _load_model(path: str, scenario: str) -> tuple[TwinModel, Normalizer, dict]:
    """Model, normalizer and manifest of a checkpoint trained on scenario."""
    params, manifest, _ = load_checkpoint(path)
    model, normalizer = model_from_checkpoint(params, manifest)
    ckpt_scenario = manifest.get("dataset", {}).get("scenario")
    if ckpt_scenario is not None and ckpt_scenario != scenario:
        raise _CliError(
            f"checkpoint {path} was trained on scenario {ckpt_scenario!r}, "
            f"dataset is {scenario!r}"
        )
    return model, normalizer, manifest


def _row_name(manifest: dict, taken: set[str]) -> str:
    kind = manifest["kind"]
    strategy = manifest.get("strategy", "mtl")
    target = manifest.get("target_task")
    name = kind if strategy == "mtl" else f"{kind}-{strategy}-{target}"
    base, k = name, 2
    while name in taken:
        name = f"{base}-{k}"
        k += 1
    return name


def _cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(args, EVAL_DEFAULTS)
    resolved["checkpoints"] = list(args.checkpoint or [])
    if not resolved["checkpoints"]:
        raise _CliError("eval needs at least one --checkpoint")
    data_dir = Path(_require(resolved["data"], "data"))
    out = _out_path(_require(resolved["out"], "out"))
    dataset = load_dataset(data_dir)
    _emit({"resolved_config": resolved})

    cleaned, clean_report = filter_and_impute(dataset)
    test_samples = cleaned["test"]
    if not test_samples:
        raise _CliError("dataset has no usable test samples")

    models: dict[str, TwinModel] = {}
    normalizer = None
    for path in resolved["checkpoints"]:
        model, norm, manifest = _load_model(path, dataset.scenario)
        models[_row_name(manifest, set(models))] = model
        if normalizer is None:
            normalizer = norm
    report = evaluation_report(models, test_samples, normalizer)
    report["clean_report"] = clean_report
    report["resolved_config"] = resolved
    _write_json(out, report)
    _emit({"report": str(out), "rows": sorted(report["rows"])})
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    resolved = _resolve(args, EVAL_DEFAULTS)
    data_dir = Path(_require(resolved["data"], "data"))
    out = _out_path(_require(resolved["out"], "out"))
    dataset = load_dataset(data_dir)
    _emit({"resolved_config": resolved})

    cleaned, clean_report = filter_and_impute(dataset)
    if not cleaned["train"]:
        raise _CliError("benchmark needs a non-empty train split for the IQR")
    if not cleaned["test"]:
        raise _CliError("dataset has no usable test samples")
    normalizer = fit_normalizer(cleaned["train"])
    report = evaluation_report({}, cleaned["test"], normalizer)
    report["clean_report"] = clean_report
    report["resolved_config"] = resolved
    _write_json(out, report)
    _emit({"report": str(out), "rows": sorted(report["rows"])})
    return 0


# -- management -----------------------------------------------------------------

MANAGE_DEFAULTS = {
    "data": None,
    "checkpoint": None,
    "out": None,
    "split": "test",
    "sample_index": 0,
    "kpi": None,  # list; None means all four
    "seed": 0,
    "verify": False,
    "trajectory": None,
    # traffic solver
    "alpha0": 0.1,
    "max_iters": 500,
    # destination solver
    "n_init": 100,
    "n_restarts": 5,
}


def _manage_common(args: argparse.Namespace):
    resolved = _resolve(args, MANAGE_DEFAULTS)
    data_dir = Path(_require(resolved["data"], "data"))
    dataset = load_dataset(data_dir)
    model, normalizer, _ = _load_model(
        _require(resolved["checkpoint"], "checkpoint"), dataset.scenario
    )
    split = resolved["split"]
    samples = dataset.splits.get(split, [])
    idx = int(resolved["sample_index"])
    if not 0 <= idx < len(samples):
        raise _CliError(
            f"--sample-index {idx} out of range for split {split!r} "
            f"({len(samples)} samples)"
        )
    sample = samples[idx]
    objective_tasks = tuple(resolved["kpi"]) if resolved["kpi"] else model.tasks
    bad = [t for t in objective_tasks if t not in TASKS]
    if bad:
        raise _CliError(f"unknown --kpi values {bad}; choose from {list(TASKS)}")
    seeds = [derive_seed(int(resolved["seed"]), "manage-eval", i) for i in range(9)]
    return resolved, dataset, sample, model, normalizer, objective_tasks, seeds


def _target_from_runs(dataset, sample, normalizer, objective_tasks, seeds):
    x_orig = NetworkInput(sample.flows, sample.traffic)
    k_targ_raw = mean_runs(sample.graph, x_orig, dataset.sim_config(), seeds[:3])
    profile = TargetProfile.from_raw(k_targ_raw, normalizer.iqr, objective_tasks)
    return x_orig, profile


def _finish_manage(resolved, dataset, sample, result, x_orig, x_gen, normalizer, seeds):
    if resolved["verify"]:
        evaluate_management(
            sample.graph,
            x_orig,
            x_gen,
            dataset.sim_config(),
            seeds,
            normalizer.iqr,
            result,
        )
    out = _out_path(_require(resolved["out"], "out"))
    payload = result.to_jsonable()
    payload["resolved_config"] = resolved
    payload["sample"] = {
        "split": resolved["split"],
        "index": int(resolved["sample_index"]),
        "sources": list(sample.flows.sources),
        "destinations": list(sample.flows.destinations),
        "tau_on": list(sample.traffic.tau_on),
        "tau_off": list(sample.traffic.tau_off),
    }
    payload["eval_seeds"] = seeds
    _write_json(out, payload)
    if resolved["trajectory"]:
        with open_fresh(_out_path(resolved["trajectory"])) as fh:
            fh.write(trajectory_csv(result))
    _emit(
        {
            "report": str(out),
            "objective": result.objective,
            "iterations": result.iterations,
            "converged": result.converged,
        }
    )
    return 0


def _cmd_manage_traffic(args: argparse.Namespace) -> int:
    resolved, dataset, sample, model, normalizer, objective_tasks, seeds = (
        _manage_common(args)
    )
    _emit({"resolved_config": resolved})
    x_orig, profile = _target_from_runs(
        dataset, sample, normalizer, objective_tasks, seeds
    )
    tau0 = np.clip(
        np.stack([sample.traffic.tau_on, sample.traffic.tau_off], axis=1),
        *TRAFFIC_BOUNDS,
    )
    result = gd_traffic(
        model,
        sample.graph,
        sample.table,
        profile,
        tau0,
        alpha0=float(resolved["alpha0"]),
        max_iters=int(resolved["max_iters"]),
        capacities=sample.capacities,
    )
    tau_hat = result.optimized_traffic
    x_gen = NetworkInput(
        sample.flows, TrafficParams(tuple(tau_hat[:, 0]), tuple(tau_hat[:, 1]))
    )
    return _finish_manage(
        resolved, dataset, sample, result, x_orig, x_gen, normalizer, seeds
    )


def _cmd_manage_flows(args: argparse.Namespace) -> int:
    resolved, dataset, sample, model, normalizer, objective_tasks, seeds = (
        _manage_common(args)
    )
    _emit({"resolved_config": resolved})
    x_orig, profile = _target_from_runs(
        dataset, sample, normalizer, objective_tasks, seeds
    )
    result = hillclimb_destinations(
        model,
        sample.graph,
        sample.flows.sources,
        sample.traffic,
        profile,
        n_init=int(resolved["n_init"]),
        n_rand=int(resolved["n_restarts"]),
        rng_seed=int(resolved["seed"]),
        capacities=sample.capacities,
    )
    x_gen = NetworkInput(
        FlowSet(sample.flows.sources, result.optimized_destinations), sample.traffic
    )
    return _finish_manage(
        resolved, dataset, sample, result, x_orig, x_gen, normalizer, seeds
    )


# -- inspect -------------------------------------------------------------------


def _cmd_inspect(args: argparse.Namespace) -> int:
    if bool(args.data) == bool(args.checkpoint):
        raise _CliError("inspect needs exactly one of --data or --checkpoint")
    if args.data:
        dataset = load_dataset(args.data)
        cleaned, clean_report = filter_and_impute(dataset)
        info = {
            "kind": "dataset",
            "scenario": dataset.scenario,
            "manifest": dataset.manifest,
            "clean_report": clean_report,
        }
    else:
        params, manifest, adam = load_checkpoint(args.checkpoint)
        info = {
            "kind": "checkpoint",
            "model_kind": manifest.get("kind"),
            "tasks": manifest.get("tasks"),
            "dims": manifest.get("dims"),
            "strategy": manifest.get("strategy"),
            "param_count": params.count(),
            "best_epoch": manifest.get("best_epoch"),
            "best_val": manifest.get("best_val"),
            "epochs_run": manifest.get("epochs_run"),
            "has_adam_state": adam is not None,
        }
    print(json.dumps(info, sort_keys=True, indent=1))
    return 0


# -- parser ------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nettwin",
        description="Network digital twin: simulate, train, evaluate, manage.",
        epilog="Relative output paths go under $NETTWIN_OUT when it is set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset directory")
    _add_common(p)
    p.add_argument("--scenario")
    p.add_argument("--n-train", type=int, dest="n_train")
    p.add_argument("--n-val", type=int, dest="n_val")
    p.add_argument("--n-test", type=int, dest="n_test")
    p.add_argument("--n-r-test", type=int, dest="n_r_test")
    p.add_argument("--n-flows", type=int, dest="n_flows")
    p.add_argument("--t-gen", type=float, dest="t_gen")
    p.add_argument("--l-max", type=int, dest="l_max")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--jobs", type=int)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model on a dataset")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--strategy", choices=["stl", "mtl", "tl"])
    p.add_argument("--target-task", dest="target_task", choices=list(TASKS))
    p.add_argument("--model", choices=["glance", "routenet", "gnn"])
    p.add_argument("--size", choices=["compact", "large"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--folds", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--l2-link", type=float, dest="l2_link")
    p.add_argument("--l2-readout", type=float, dest="l2_readout")
    p.add_argument("--seed", type=int)
    p.add_argument("--cv", action="store_true", default=None)
    p.add_argument("--resume", action="store_true", default=None)
    p.add_argument("--curves", help="write per-epoch losses to this CSV")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="NMAE report for checkpoints on a test set")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--checkpoint", action="append")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("benchmark", help="repeat-average and naive rows only")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_benchmark)

    for name, func in (
        ("manage-traffic", _cmd_manage_traffic),
        ("manage-flows", _cmd_manage_flows),
    ):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} optimization")
        _add_common(p)
        p.add_argument("--data")
        p.add_argument("--checkpoint")
        p.add_argument("--out")
        p.add_argument("--split", choices=["train", "val", "test"])
        p.add_argument("--sample-index", type=int, dest="sample_index")
        p.add_argument("--kpi", action="append", choices=list(TASKS))
        p.add_argument("--seed", type=int)
        p.add_argument("--verify", action="store_true", default=None)
        p.add_argument("--trajectory", help="write the J trajectory to this CSV")
        if name == "manage-traffic":
            p.add_argument("--alpha0", type=float)
            p.add_argument("--max-iters", type=int, dest="max_iters")
        else:
            p.add_argument("--n-init", type=int, dest="n_init")
            p.add_argument("--n-restarts", type=int, dest="n_restarts")
        p.set_defaults(func=func)

    p = sub.add_parser("inspect", help="summarize a dataset or checkpoint")
    p.add_argument("--data")
    p.add_argument("--checkpoint")
    p.set_defaults(func=_cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
