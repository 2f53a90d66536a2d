"""Command-line front end tying the library into reproducible experiments.

Each command declares its options once, in a table of ``Option`` rows that
builds the parser, names the config-file keys and gives the defaults, types
and required marks. Every command reads an optional JSON config file, lets
flags override it, and re-emits the fully resolved configuration both to
stdout and into its outputs, so any run can be reproduced from what it
wrote. No output ever contains a timestamp; rerunning a command with the
same inputs rewrites byte-identical files.

Exit codes: 0 success, 1 internal error (a bug, with its traceback), 2 usage
or configuration problems (bad flags, missing files, malformed or mismatched
inputs), 3 numerical failure (divergence). Each JSON input is checked against
its schema as it is read (``fileio.check_json``); a config file's is built
from the command's ``Option`` table.

The environment variable NETTWIN_OUT, when set, is the root under which
relative output paths are created.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .autodiff import CheckpointError, DivergenceError, load_checkpoint, save_checkpoint
from .fileio import ListOf, OneOf, SchemaError, check_json, open_fresh, write_json
from .manage import (
    TRAFFIC_BOUNDS,
    ManageError,
    NetworkInput,
    TargetProfile,
    evaluate_management,
    gd_traffic,
    hillclimb_destinations,
    mean_runs,
    require_traffic_input,
    trajectory_csv,
)
from .nettopo import FlowSet, TopologyError
from .pipeline import (
    STRATEGIES,
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
from .routing import RoutingError, bfs_distances
from .seeding import SeedError, derive_seed
from .simulator import TASKS, SimulationError, TrafficParams
from .twin import TwinError, TwinModel

USAGE_ERRORS = (
    CheckpointError,
    DatasetError,
    ManageError,
    RoutingError,
    SchemaError,
    SeedError,
    SimulationError,
    TopologyError,
    TwinError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    json.JSONDecodeError,
    UnicodeDecodeError,
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
    return path


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


@dataclass(frozen=True)
class Option:
    """One command option: the flag, the config-file key and the resolved key.

    ``key`` names all three (the flag with dashes for underscores); ``flag``
    renames the flag, and ``None`` leaves the option settable from a config
    file only. ``type`` types the flag (for ``append``, each element),
    checks config-file values and casts resolved values for the library.
    """

    key: str
    type: type = str
    default: object = None
    choices: tuple[str, ...] | None = None
    action: str = "store"  # or "store_true" / "append"
    help: str | None = None
    required: bool = False
    flag: str | None = ""  # "" means the key


def _flag(opt: Option) -> str | None:
    name = opt.key if opt.flag == "" else opt.flag
    return None if name is None else "--" + name.replace("_", "-")


def _config_spec(options: tuple[Option, ...]) -> dict:
    """A command's config file: any of its option keys, each holding a value
    of the option's type, or null where the option defaults to null."""
    spec = {}
    for opt in options:
        value = OneOf(*opt.choices) if opt.choices else opt.type
        if opt.action == "append":
            value = ListOf(value)
        spec[opt.key + "?"] = (value, None) if opt.default is None else value
    return spec


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, over the command's options.

    Config-file values must fit the command's config schema and are kept as
    written; a missing required option fails here, before any work starts.
    """
    file_values = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_values = json.load(fh)
        check_json(_config_spec(args.options), file_values, f"config file {args.config}", {})
    resolved = {}
    for opt in args.options:
        flag = getattr(args, opt.key, None)
        resolved[opt.key] = flag if flag is not None else file_values.get(opt.key, opt.default)
        if opt.required and resolved[opt.key] in (None, []):
            raise _CliError(f"{_flag(opt)} is required")
    return resolved


def _typed(args: argparse.Namespace, resolved: dict) -> dict:
    """resolved cast to the option types: a file may give 5 for a float, 5.0."""
    return {
        opt.key: resolved[opt.key]
        if resolved[opt.key] is None or opt.action == "append"
        else opt.type(resolved[opt.key])
        for opt in args.options
    }


_DATA = Option("data", required=True)
_OUT = Option("out", required=True)
_SEED = Option("seed", int, 0)


# -- gen-data -----------------------------------------------------------------

GEN_OPTIONS = (
    Option("scenario", required=True),
    Option("n_train", int, 200),
    Option("n_val", int, 50),
    Option("n_test", int, 50),
    Option("n_r_test", int, 4),
    Option("n_flows", int, 10),
    Option("t_gen", float, 180.0),
    Option("l_max", int, 3),
    _SEED,
    _OUT,
    Option("jobs", int, 1),
)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    typed = _typed(args, resolved)
    out = _out_path(typed["out"])
    config = GenConfig(**{f.name: typed[f.name] for f in fields(GenConfig)})
    _emit({"resolved_config": resolved})
    manifest = generate_dataset(config, out, jobs=typed["jobs"])
    write_json(out / "resolved_config.json", resolved)
    _emit({"dataset": str(out), "splits": manifest["splits"]})
    return 0


# -- train ---------------------------------------------------------------------

TRAIN_OPTIONS = (
    _DATA,
    _OUT,
    Option("strategy", default="mtl", choices=STRATEGIES),
    Option("target_task", choices=TASKS),
    Option("model", default="glance", choices=("glance", "routenet", "gnn")),
    Option("size", default="compact", choices=("compact", "large")),
    Option("epochs", int, 100),
    Option("batch_size", int, 10),
    Option("folds", int, 4),
    Option("lr", float),  # lr and l2 default to the scenario's
    Option("l2_link", float),
    Option("l2_readout", float),
    _SEED,
    Option("cv", bool, False, action="store_true"),
    Option("resume", bool, False, action="store_true"),
    Option("curves", help="write per-epoch losses to this CSV"),
)


def _train_config(
    args: argparse.Namespace, resolved: dict, scenario: str
) -> TrainConfig:
    """The TrainConfig of resolved; a null lr or l2 takes the scenario's value."""
    fallback = training_defaults(scenario)
    typed = _typed(
        args, {k: fallback.get(k) if v is None else v for k, v in resolved.items()}
    )
    typed["model_kind"] = typed["model"]
    return TrainConfig(**{f.name: typed[f.name] for f in fields(TrainConfig)})


def _state_path(out: Path) -> Path:
    return out.with_name(out.name + ".state")


def _resume_state(out: Path) -> tuple[tuple[TwinModel, TrainResult], Normalizer]:
    """The run saved at out: its last model and result, and its normalizer."""
    state = _state_path(out)
    params, state_manifest, adam = load_checkpoint(state)
    if adam is None or "history" not in state_manifest:
        raise _CliError(f"{state} holds no training state: no Adam state or history")
    best_params, best_manifest, _ = load_checkpoint(out)
    model, normalizer = model_from_checkpoint(params, state_manifest, str(state))
    best_model, _ = model_from_checkpoint(best_params, best_manifest, str(out))
    result = TrainResult(
        best_params=best_model.params,
        adam=adam,
        history=state_manifest["history"],
        best_epoch=best_manifest["best_epoch"],
        best_val=float(best_manifest["best_val"]),
        epochs_run=state_manifest["epochs_run"],
    )
    return (model, result), normalizer


def _cmd_train(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    out = _out_path(resolved["out"])
    dataset = load_dataset(Path(resolved["data"]))
    config = _train_config(args, resolved, dataset.scenario)
    _emit({"resolved_config": resolved})

    cleaned, clean_report = filter_and_impute(dataset)
    train_samples, val_samples = cleaned["train"], cleaned["val"]
    n_flows = dataset.manifest["n_flows"]

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
        histories = {f: fold.result.history for f, fold in enumerate(cv.folds)}
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

EVAL_OPTIONS = (
    _DATA,
    Option("checkpoints", action="append", required=True, flag="checkpoint"),
    _OUT,
)
BENCHMARK_OPTIONS = (_DATA, _OUT)


def _load_model(path: str, scenario: str) -> tuple[TwinModel, Normalizer, dict]:
    """Model, normalizer and manifest of a checkpoint trained on scenario."""
    params, manifest, _ = load_checkpoint(path)
    model, normalizer = model_from_checkpoint(params, manifest, path)
    ckpt_scenario = manifest.get("dataset", {}).get("scenario")
    if ckpt_scenario is not None and ckpt_scenario != scenario:
        raise _CliError(
            f"checkpoint {path} was trained on scenario {ckpt_scenario!r}, "
            f"dataset is {scenario!r}"
        )
    return model, normalizer, manifest


def _row_name(manifest: dict, taken: set[str]) -> str:
    kind, strategy = manifest["kind"], manifest["strategy"]
    name = kind if strategy == "mtl" else f"{kind}-{strategy}-{manifest['target_task']}"
    base, k = name, 2
    while name in taken:
        name = f"{base}-{k}"
        k += 1
    return name


def _cmd_eval(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    out = _out_path(resolved["out"])
    dataset = load_dataset(Path(resolved["data"]))
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
    write_json(out, report)
    _emit({"report": str(out), "rows": sorted(report["rows"])})
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    out = _out_path(resolved["out"])
    dataset = load_dataset(Path(resolved["data"]))
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
    write_json(out, report)
    _emit({"report": str(out), "rows": sorted(report["rows"])})
    return 0


# -- management -----------------------------------------------------------------

_MANAGE_OPTIONS = (
    _DATA,
    Option("checkpoint", required=True),
    _OUT,
    Option("split", default="test", choices=("train", "val", "test")),
    Option("sample_index", int, 0),
    Option("kpi", action="append", choices=TASKS),  # None means the model's tasks
    _SEED,
    Option("verify", bool, False, action="store_true"),
    Option("trajectory", help="write the J trajectory to this CSV"),
)
_TRAFFIC_SOLVER = (Option("alpha0", float, 0.1), Option("max_iters", int, 500))
_FLOWS_SOLVER = (Option("n_init", int, 100), Option("n_restarts", int, 5))


def _file_only(options: tuple[Option, ...]) -> tuple[Option, ...]:
    return tuple(replace(opt, flag=None) for opt in options)


# both reports record all four solver keys; each command has flags for its own
MANAGE_TRAFFIC_OPTIONS = _MANAGE_OPTIONS + _TRAFFIC_SOLVER + _file_only(_FLOWS_SOLVER)
MANAGE_FLOWS_OPTIONS = _MANAGE_OPTIONS + _file_only(_TRAFFIC_SOLVER) + _FLOWS_SOLVER


def _manage_common(args: argparse.Namespace, solves_traffic: bool):
    """Resolve, load and echo the run; its target profile from simulator runs.

    A checkpoint the solver cannot use is rejected before anything runs.
    """
    resolved = _resolve(args)
    dataset = load_dataset(Path(resolved["data"]))
    model, normalizer, _ = _load_model(resolved["checkpoint"], dataset.scenario)
    if solves_traffic:
        require_traffic_input(model)
    split = resolved["split"]
    samples = dataset.splits.get(split, [])
    idx = resolved["sample_index"]
    if not 0 <= idx < len(samples):
        raise _CliError(
            f"--sample-index {idx} out of range for split {split!r} "
            f"({len(samples)} samples)"
        )
    sample = samples[idx]
    _check_path_bound(model, sample, solves_traffic)
    objective_tasks = tuple(resolved["kpi"]) if resolved["kpi"] else model.tasks
    seeds = [derive_seed(resolved["seed"], "manage-eval", i) for i in range(9)]
    _emit({"resolved_config": resolved})
    x_orig = NetworkInput(sample.flows, sample.traffic)
    k_targ_raw = mean_runs(sample.graph, x_orig, dataset.sim_config, seeds[:3])
    profile = TargetProfile.from_raw(k_targ_raw, normalizer.iqr, objective_tasks)
    return resolved, dataset, sample, model, normalizer, seeds, x_orig, profile


def _check_path_bound(model: TwinModel, sample, solves_traffic: bool) -> None:
    """Reject a path model whose l_max the solver's first forward exceeds:
    gd_traffic reads the sample's routes, and the hill-climb's first sweep
    routes every flow's source to its farthest node."""
    if model.kind == "gnn":
        return
    if solves_traffic:
        what, links = "a path of", [len(path) for path in sample.table.paths]
    else:
        what = "a source whose farthest node is"
        links = [max(bfs_distances(sample.graph.neighbors, s)) for s in sample.flows.sources]
    f, l_max = int(np.argmax(links)), model.dims.l_max
    if links[f] > l_max:
        raise _CliError(f"flow {f} has {what} {links[f]} links, exceeding l_max={l_max}")


def _finish_manage(resolved, dataset, sample, result, x_orig, x_gen, normalizer, seeds):
    if resolved["verify"]:
        evaluate_management(
            sample.graph,
            x_orig,
            x_gen,
            dataset.sim_config,
            seeds,
            normalizer.iqr,
            result,
        )
    out = _out_path(resolved["out"])
    payload = result.to_jsonable()
    payload["resolved_config"] = resolved
    payload["sample"] = {
        "split": resolved["split"],
        "index": resolved["sample_index"],
        "sources": list(sample.flows.sources),
        "destinations": list(sample.flows.destinations),
        "tau_on": list(sample.traffic.tau_on),
        "tau_off": list(sample.traffic.tau_off),
    }
    payload["eval_seeds"] = seeds
    write_json(out, payload)
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
    resolved, dataset, sample, model, normalizer, seeds, x_orig, profile = (
        _manage_common(args, solves_traffic=True)
    )
    typed = _typed(args, resolved)
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
        alpha0=typed["alpha0"],
        max_iters=typed["max_iters"],
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
    resolved, dataset, sample, model, normalizer, seeds, x_orig, profile = (
        _manage_common(args, solves_traffic=False)
    )
    typed = _typed(args, resolved)
    result = hillclimb_destinations(
        model,
        sample.graph,
        sample.flows.sources,
        sample.traffic,
        profile,
        n_init=typed["n_init"],
        n_rand=typed["n_restarts"],
        rng_seed=typed["seed"],
        capacities=sample.capacities,
    )
    x_gen = NetworkInput(
        FlowSet(sample.flows.sources, result.optimized_destinations), sample.traffic
    )
    return _finish_manage(
        resolved, dataset, sample, result, x_orig, x_gen, normalizer, seeds
    )


# -- inspect -------------------------------------------------------------------


INSPECT_OPTIONS = (Option("data"), Option("checkpoint"))


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="nettwin",
        description="Network digital twin: simulate, train, evaluate, manage.",
        epilog="Relative output paths go under $NETTWIN_OUT when it is set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("gen-data", "generate a dataset directory", _cmd_gen_data, GEN_OPTIONS),
        ("train", "train a model on a dataset", _cmd_train, TRAIN_OPTIONS),
        ("eval", "NMAE report for checkpoints on a test set", _cmd_eval, EVAL_OPTIONS),
        ("benchmark", "repeat-average and naive rows only", _cmd_benchmark,
         BENCHMARK_OPTIONS),
        ("manage-traffic", "manage traffic optimization", _cmd_manage_traffic,
         MANAGE_TRAFFIC_OPTIONS),
        ("manage-flows", "manage flows optimization", _cmd_manage_flows,
         MANAGE_FLOWS_OPTIONS),
        ("inspect", "summarize a dataset or checkpoint", _cmd_inspect, INSPECT_OPTIONS),
    )
    for name, help_text, func, options in commands:
        p = sub.add_parser(name, help=help_text)
        if name != "inspect":
            p.add_argument(
                "--config", help="JSON config file; flags override its values"
            )
        for opt in options:
            flag = _flag(opt)
            if flag is None:
                continue
            kwargs = {"dest": opt.key, "action": opt.action, "default": None}
            if opt.action != "store_true":
                kwargs.update(type=opt.type, choices=opt.choices)
            if opt.flag:
                kwargs["metavar"] = opt.flag.upper()
            p.add_argument(flag, help=opt.help, **kwargs)
        p.set_defaults(func=func, options=options)
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
