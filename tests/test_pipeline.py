"""Dataset generation, loading, cleaning, training strategies, evaluation."""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import re
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import (
    BATCH_DIMS,
    TINY_DIMS,
    copy_with_bad_route,
    copy_with_edited_record,
    copy_with_line,
    copy_with_missing_link,
    copy_with_truncated_line,
    embedding_names,
    kind_dims,
    line_sample,
    mixed_samples,
)
from oracles import (
    bootstrap_mean_diff_ci,
    fd_gradient,
    max_rel_err,
    reference_nmae_row,
    reference_simbase_rows,
)
from nettwin import pipeline
from nettwin.autodiff import AdamState, DivergenceError, ParamSet, Tape
from nettwin.fileio import SchemaError
from nettwin.pipeline import (
    DATASET_FORMAT,
    DELAY_LIMIT_MS,
    EVAL_CHUNK,
    IQR_EPS,
    JITTER_LIMIT_MS,
    MAX_JOBS,
    MAX_SPLIT_SIZE,
    SPLITS,
    DatasetError,
    GenConfig,
    Normalizer,
    TrainConfig,
    TrainResult,
    batch_loss,
    checkpoint_manifest,
    clean_test_samples,
    clean_train_samples,
    cross_validate,
    evaluate_model,
    evaluation_report,
    filter_and_impute,
    fit_normalizer,
    fold_split,
    generate_dataset,
    load_dataset,
    loss_targets,
    loss_values,
    map_jobs,
    model_from_checkpoint,
    naive_rows,
    nmae_row,
    predict_samples,
    run_strategy,
    simbase_rows,
    train_model,
    training_defaults,
    transfer_model,
    write_learning_curves,
)
from nettwin.routing import validate_table
from nettwin.seeding import derive_seed
from nettwin.simulator import TASKS, default_sim_config, link_capacities
from nettwin.twin import COMPACT, LARGE, GnnDims, TwinError, make_model, prepare_twin_input


def zero_params(model):
    for name in model.params.names():
        model.params[name] = np.zeros_like(model.params[name])
    return model


def param_bytes(params: ParamSet) -> dict[str, bytes]:
    return {n: params[n].tobytes() for n in params.names()}


#: (test id, kind, edit): edits of a route of two or more links that each
#: make one defect, the first that validate_table reports for that route; a
#: link that is no [i, j] pair of integers, kind None, fails the record schema
ROUTE_DEFECTS = [
    ("broken-chain", "broken-chain", lambda links: [links[1], links[0], *links[2:]]),
    ("not-simple", "not-simple", lambda links: [links[0], links[0][::-1], *links]),
    ("endpoint-mismatch", "endpoint-mismatch", lambda links: links[:-1]),
    ("empty-path", "empty-path", lambda links: []),
    ("path-too-long", "path-too-long", lambda links: links),
    *(
        (f"malformed-{name}", None, lambda links, entry=entry: [entry, *links[1:]])
        for name, entry in (("triple", [0, 1, 2]), ("letter", ["a", 1]), ("single", [0]),
                            ("null", None), ("float", [0.9, 1]), ("digit-string", ["1", 2]),
                            ("bool", [True, 1]))
    ),
]


# -- scenarios and generation config -----------------------------------------


class TestScenarioDefaults:
    def test_learning_rate_table(self):
        assert training_defaults("nsfnet-fixed") == {
            "lr": 1e-3, "l2_link": 1e-3, "l2_readout": 1e-4,
        }
        assert training_defaults("nsfnet-continuous") == {
            "lr": 1e-3, "l2_link": 1e-3, "l2_readout": 1e-4,
        }
        assert training_defaults("reggrid-fixed") == {
            "lr": 5e-4, "l2_link": 1e-3, "l2_readout": 1e-4,
        }
        assert training_defaults("reggrid-randflows") == {
            "lr": 5e-4, "l2_link": 1e-4, "l2_readout": 1e-5,
        }
        assert training_defaults("pertgrid-randtopo") == {
            "lr": 5e-4, "l2_link": 1e-4, "l2_readout": 1e-5,
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(DatasetError, match="unknown scenario"):
            GenConfig(scenario="reggrid")

    def test_split_size_validation(self):
        with pytest.raises(DatasetError, match="non-negative"):
            GenConfig(scenario="reggrid-fixed", n_train=-1)
        with pytest.raises(DatasetError, match="at least one sample"):
            GenConfig(scenario="reggrid-fixed", n_train=0, n_val=0, n_test=0)
        GenConfig(scenario="reggrid-fixed", n_test=MAX_SPLIT_SIZE - 1)
        for name in ("n_train", "n_val", "n_test"):
            with pytest.raises(DatasetError, match=f"^{name} must be below 100000$"):
                GenConfig(scenario="reggrid-fixed", **{name: MAX_SPLIT_SIZE})

    def test_run_count_and_positivity(self):
        with pytest.raises(DatasetError, match=">= 2 runs"):
            GenConfig(scenario="reggrid-fixed", n_r_test=1)
        for kw in ({"n_flows": 0}, {"l_max": 0}, {"t_gen": 0.0}):
            with pytest.raises(DatasetError, match="must be positive"):
                GenConfig(scenario="reggrid-fixed", **kw)

    @pytest.mark.parametrize("t_gen", [math.nan, math.inf])
    def test_non_finite_t_gen_rejected(self, t_gen):
        with pytest.raises(DatasetError, match="t_gen finite"):
            GenConfig(scenario="reggrid-fixed", t_gen=t_gen)

    def test_sim_config_takes_t_gen(self):
        config = GenConfig(scenario="reggrid-fixed", t_gen=12.0)
        for wired in (True, False):
            sim = config.sim_config(wired)
            assert sim == default_sim_config(wired, t_gen=12.0)
            assert sim.t_gen == 12.0


# -- generation and loading ---------------------------------------------------


def read_tree(root: str | Path) -> dict[str, bytes]:
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestGenerateDataset:
    def test_manifest_contents(self, toy_dataset_dir, toy_dataset):
        manifest = toy_dataset.manifest
        assert manifest["format"] == DATASET_FORMAT
        assert manifest["version"] == 1
        assert manifest["scenario"] == "reggrid-fixed"
        assert manifest["splits"] == {"train": 8, "val": 2, "test": 2}
        assert manifest["n_runs_test"] == 4
        assert manifest["n_flows"] == 10
        assert manifest["wired"] is False  # grid nodes talk over radio
        assert manifest["sim_config"]["t_gen"] == 5.0
        assert manifest["filters"] == {
            "delay_limit_ms": DELAY_LIMIT_MS,
            "jitter_limit_ms": JITTER_LIMIT_MS,
        }
        assert toy_dataset.scenario == "reggrid-fixed"
        assert toy_dataset.sim_config.t_gen == 5.0

    def test_expected_files(self, toy_dataset_dir):
        root = Path(toy_dataset_dir)
        for name in ("manifest.json", "topology.json", "train.jsonl", "val.jsonl", "test.jsonl"):
            assert (root / name).is_file()

    def test_split_sizes_and_runs(self, toy_dataset):
        assert [len(toy_dataset.splits[s]) for s in SPLITS] == [8, 2, 2]
        for s in toy_dataset.splits["train"] + toy_dataset.splits["val"]:
            assert s.bench_runs == []
        for s in toy_dataset.splits["test"]:
            # four runs total: the reference plus three benchmark repeats
            assert len(s.bench_runs) == 3

    def test_sample_structure(self, toy_dataset):
        train = toy_dataset.splits["train"]
        assert [s.index for s in train] == list(range(8))
        for s in train:
            assert s.split == "train"
            assert s.labels.shape == (10, 4)
            assert s.capacities.shape == (len(s.graph.links),)
            assert len(s.table.paths) == 10
        # the part batch_inputs lays out is the sample's own state
        s = train[0]
        own = (s.graph, s.table, s.traffic, s.capacities)
        assert all(a is b for a, b in zip(s.part, own))

    def test_fixed_scenario_shares_flows_and_topology(self, toy_dataset):
        everything = [s for split in SPLITS for s in toy_dataset.splits[split]]
        first = everything[0]
        for s in everything[1:]:
            assert s.flows == first.flows
            assert s.graph_id == "topology.json"
            assert s.graph is first.graph  # one shared Graph instance
        assert first.graph.n_nodes == 16
        assert not first.graph.wired

    def test_regeneration_is_byte_identical(self, tmp_path):
        config = GenConfig(
            scenario="reggrid-fixed", n_train=2, n_val=1, n_test=1,
            n_r_test=2, n_flows=4, t_gen=2.0, seed=9,
        )
        generate_dataset(config, tmp_path / "a", jobs=1)
        generate_dataset(config, tmp_path / "b", jobs=2)
        assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")

    def test_perturbed_topologies_vary_per_sample(self, tmp_path):
        config = GenConfig(
            scenario="pertgrid-randtopo", n_train=2, n_val=0, n_test=1,
            n_r_test=2, n_flows=4, t_gen=2.0, l_max=4, seed=3,
        )
        generate_dataset(config, tmp_path / "pert")
        ds = load_dataset(tmp_path / "pert")
        a, b = ds.splits["train"]
        assert a.graph_id != b.graph_id
        assert a.graph.adjacency.tobytes() != b.graph.adjacency.tobytes()
        assert not a.graph.wired
        assert a.graph.positions is not None
        # flows are still drawn once for the whole dataset
        assert a.flows == b.flows == ds.splits["test"][0].flows
        assert (tmp_path / "pert" / "topologies" / "train_00000.json").is_file()

    def test_random_flows_vary_per_sample(self, tmp_path):
        config = GenConfig(
            scenario="reggrid-randflows", n_train=3, n_val=0, n_test=0,
            n_flows=6, t_gen=2.0, seed=4,
        )
        generate_dataset(config, tmp_path / "rf")
        ds = load_dataset(tmp_path / "rf")
        train = ds.splits["train"]
        assert len({(s.flows.sources, s.flows.destinations) for s in train}) > 1
        assert len({s.graph_id for s in train}) == 1

    def test_shared_topology_built_once(self, tmp_path, monkeypatch):
        build, calls = pipeline.build_reg_grid, []

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(pipeline, "build_reg_grid", counted)
        config = GenConfig(
            scenario="reggrid-randflows", n_train=3, n_val=1, n_test=1,
            n_r_test=2, n_flows=4, t_gen=1.0, seed=4,
        )
        generate_dataset(config, tmp_path / "rf", jobs=1)
        assert len(calls) == 1

    def test_per_sample_topologies_build_no_shared_one(self, tmp_path, monkeypatch):
        build, seeds = pipeline.build_pert_grid, []

        def counted(seed):
            seeds.append(seed)
            return build(seed=seed)

        monkeypatch.setattr(pipeline, "build_pert_grid", counted)
        config = GenConfig(
            scenario="pertgrid-randtopo", n_train=2, n_val=0, n_test=1,
            n_r_test=2, n_flows=4, t_gen=1.0, l_max=4, seed=3,
        )
        manifest = generate_dataset(config, tmp_path / "pert", jobs=1)
        # every grid built is a sample's own draw, none the unused shared one
        assert len(seeds) >= 3
        assert derive_seed(3, "base-topology") not in seeds
        assert manifest["wired"] is False

    @pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1])
    def test_jobs_out_of_range_rejected_before_any_sample(
        self, tmp_path, monkeypatch, jobs
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"generate_dataset went on with jobs={jobs}")

        # neither a worker pool nor a serial sample may start
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        monkeypatch.setattr(pipeline, "_generate_record", never)
        config = GenConfig(scenario="reggrid-fixed", n_train=2, n_val=1, n_test=1)
        with pytest.raises(DatasetError, match=f"jobs must be between 1 and {MAX_JOBS}"):
            generate_dataset(config, tmp_path / "ds", jobs=jobs)
        assert not (tmp_path / "ds").exists()

    def test_l_max_too_small_for_topology(self, tmp_path):
        config = GenConfig(scenario="nsfnet-fixed", n_train=1, l_max=1)
        with pytest.raises(DatasetError, match="hop diameter"):
            generate_dataset(config, tmp_path / "nope")


def worker_env(var: str, index: int) -> str | None:
    """A map_jobs task: the value of var where the task runs."""
    return os.environ.get(var)


class TestMapJobs:
    def test_workers_run_one_blas_thread_and_the_caller_keeps_its_own(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        tasks = [(var, i) for i in range(3) for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")]
        assert map_jobs(worker_env, tasks, 2) == ["1"] * 6
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "MKL_NUM_THREADS" not in os.environ
        assert map_jobs(worker_env, tasks, 1) == ["3", None] * 3


class TestLoadDataset:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetError, match="no manifest.json under"):
            load_dataset(tmp_path / "absent")

    def test_wrong_format_field(self, tmp_path, toy_dataset_dir):
        manifest = json.loads((Path(toy_dataset_dir) / "manifest.json").read_text())
        manifest["format"] = "something-else"
        out = tmp_path / "bad"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            SchemaError, match=r'manifest.json: .format. must be one of \["nettwin-dataset"\]'
        ):
            load_dataset(out)

    def test_unsupported_version(self, tmp_path, toy_dataset_dir):
        manifest = json.loads((Path(toy_dataset_dir) / "manifest.json").read_text())
        manifest["version"] = 99
        out = tmp_path / "bad"
        out.mkdir()
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SchemaError, match=r"'version' must be one of \[1\], not 99$"):
            load_dataset(out)

    @pytest.mark.parametrize(
        "sim_config, error, message",
        [
            *(
                (edit, DatasetError, "bad sim_config")
                for edit in ({"t_gen": math.nan}, {"t_prep": math.inf},
                             {"cbr_rate": -math.inf}, {"link_capacity_default": math.nan})
            ),
            ({"t_gen": "5"}, SchemaError, r"'sim_config.t_gen' must be a number, not \"5\"$"),
            ({"no_such": 1}, SchemaError, r"'sim_config.no_such' is not a field of this file$"),
            (None, SchemaError, r"'sim_config' is missing$"),
        ],
        ids=["nan-t_gen", "inf-t_prep", "neg-inf-rate", "nan-capacity", "str-t_gen",
             "unknown-key", "missing"],
    )
    def test_bad_sim_config_rejected(
        self, tmp_path, toy_dataset_dir, sim_config, error, message
    ):
        out = tmp_path / "bad"
        shutil.copytree(toy_dataset_dir, out)
        manifest = json.loads((out / "manifest.json").read_text())
        if sim_config is None:
            del manifest["sim_config"]
        else:
            manifest["sim_config"].update(sim_config)
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(error, match=message):
            load_dataset(out)

    def test_route_over_missing_link_rejected(self, tmp_path, toy_dataset_dir):
        f, _ = copy_with_missing_link(toy_dataset_dir, tmp_path / "bad")
        with pytest.raises(
            DatasetError,
            match=rf"^train.jsonl line 1: flow {f} bad route, missing-link",
        ):
            load_dataset(tmp_path / "bad")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r["runs"][0]["kpis"].pop(),
             r"'runs\[0\].kpis' must have length 10 \(n_flows\), not 9"),
            (lambda r: r["runs"][-1]["kpis"][3].pop(),
             r"'runs\[0\].kpis\[3\]' must have length 4, not 3"),
            (lambda r: r["tau_on"].pop(), r"'tau_on' must have length 10 \(n_flows\), not 9"),
            (lambda r: r["tau_off"].append(1.0),
             r"'tau_off' must have length 10 \(n_flows\), not 11"),
            (
                lambda r: (r["runs"][0]["kpis"].pop(), r["tau_on"].pop(), r["tau_off"].pop()),
                r"'tau_on' must have length 10 \(n_flows\), not 9",
            ),
            (
                lambda r: [r[k].pop() for k in ("sources", "destinations", "paths")],
                r"'sources' must have length 10 \(n_flows\), not 9",
            ),
            (lambda r: r.update(runs=[]), r"'runs' must have length 1 \(n_runs\), not 0"),
            (lambda r: r["runs"][0].update(kpis=5), r"'runs\[0\].kpis' must be a list, not 5"),
            (lambda r: r["runs"][0]["kpis"].__setitem__(2, "abcd"),
             r"'runs\[0\].kpis\[2\]' must be a list, not \"abcd\""),
            *(
                (lambda r, cell=cell: r["runs"][0]["kpis"][1].__setitem__(2, cell),
                 rf"'runs\[0\].kpis\[1\]\[2\]' must be a number or null, not {shown}")
                for cell, shown in (([1.0], r"\[1.0\]"), ("7", '"7"'), (True, "true"),
                                    ({"v": 1.0}, r"\{\"v\": 1.0\}"))
            ),
            (lambda r: r["runs"][0]["kpis"][1].__setitem__(2, 10**400),
             r"run 0 has a KPI cell beyond float range"),
        ],
        ids=["short-run", "ragged-row", "short-tau", "long-tau", "short-run-and-tau",
             "flow-count", "no-runs", "kpis-not-list", "row-not-list", "cell-list",
             "cell-string", "cell-bool", "cell-object", "cell-huge-int"],
    )
    def test_malformed_record_rejected(self, tmp_path, toy_dataset_dir, edit, message):
        copy_with_edited_record(toy_dataset_dir, tmp_path / "bad", edit)
        # the record schema names a field of the wrong shape, the load a value
        # that fits no float
        with pytest.raises((SchemaError, DatasetError), match=rf"^train.jsonl line 1: {message}$"):
            load_dataset(tmp_path / "bad")

    def test_missing_topology_file(self, tmp_path, toy_dataset_dir):
        copy_with_edited_record(
            toy_dataset_dir, tmp_path / "bad", lambda r: r.update(topology="gone.json")
        )
        with pytest.raises(
            DatasetError, match=r"^train.jsonl line 1: topology file gone.json not found"
        ):
            load_dataset(tmp_path / "bad")

    @pytest.mark.parametrize(
        "name", ["../toy/topology.json", "/etc/topology.json", "topologies/../../t.json"]
    )
    def test_topology_outside_the_dataset_rejected(self, tmp_path, toy_dataset_dir, name):
        # the names would reach a file: the dataset's own, or any file at all
        copy_with_edited_record(
            toy_dataset_dir, tmp_path / "bad", lambda r: r.update(topology=name)
        )
        with pytest.raises(
            DatasetError,
            match=rf"^train.jsonl line 1: topology '{name}' names no file inside the dataset$",
        ):
            load_dataset(tmp_path / "bad")

    def test_truncated_line(self, tmp_path, toy_dataset_dir):
        copy_with_truncated_line(toy_dataset_dir, tmp_path / "bad", "val", 2)
        with pytest.raises(DatasetError, match=r"^val.jsonl line 2: truncated"):
            load_dataset(tmp_path / "bad")

    def test_non_object_record_rejected(self, tmp_path, toy_dataset_dir):
        copy_with_line(toy_dataset_dir, tmp_path / "bad", "train", 2, lambda _: "[1, 2]")
        with pytest.raises(
            SchemaError, match=r"^train.jsonl line 2: the top level must be an object, not \[1, 2\]$"
        ):
            load_dataset(tmp_path / "bad")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.pop("routing_seed"), r"'routing_seed' is missing"),
            (lambda r: r.pop("sources"), r"'sources' is missing"),
            (lambda r: r["runs"][0].pop("kpis"), r"'runs\[0\].kpis' is missing"),
            (lambda r: r["runs"].__setitem__(0, [1.0]),
             r"'runs\[0\]' must be an object, not \[1.0\]"),
            (lambda r: r.update(runs=5), r"'runs' must be a list, not 5"),
        ],
        ids=["routing-seed", "sources", "run-kpis", "run-not-object", "runs-not-list"],
    )
    def test_missing_field_rejected(self, tmp_path, toy_dataset_dir, edit, message):
        copy_with_edited_record(toy_dataset_dir, tmp_path / "bad", edit)
        with pytest.raises(SchemaError, match=rf"^train.jsonl line 1: {message}$"):
            load_dataset(tmp_path / "bad")

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("sources", 3, "a list"),
            ("destinations", {"0": 1}, "a list"),
            ("tau_on", 5.0, "a list"),
            ("tau_off", None, "a list"),
            ("paths", "0-1", "a list"),
            ("index", "7", "an integer"),
            ("routing_seed", 2.5, "an integer"),
            ("routing_seed", True, "an integer"),
            ("topology", 0, "a string"),
        ],
        ids=[
            "sources", "destinations", "tau-on", "tau-off", "paths", "index",
            "routing-seed-float", "routing-seed-bool", "topology",
        ],
    )
    def test_field_of_wrong_type_rejected(self, tmp_path, toy_dataset_dir, key, value, kind):
        copy_with_edited_record(
            toy_dataset_dir, tmp_path / "bad", lambda r: r.update({key: value})
        )
        shown = re.escape(json.dumps(value))
        with pytest.raises(
            SchemaError, match=rf"^train.jsonl line 1: '{key}' must be {kind}, not {shown}$"
        ):
            load_dataset(tmp_path / "bad")

    @pytest.mark.parametrize(
        "kind, edit", [(kind, edit) for _, kind, edit in ROUTE_DEFECTS],
        ids=[name for name, _, _ in ROUTE_DEFECTS],
    )
    def test_route_defect_rejected(self, tmp_path, toy_dataset_dir, kind, edit):
        f, _ = copy_with_bad_route(toy_dataset_dir, tmp_path / "bad", edit)
        if kind == "path-too-long":  # the route fits the graph, not the bound
            manifest = tmp_path / "bad" / "manifest.json"
            manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "l_max": 1}))
        error, message = DatasetError, rf"^train.jsonl line 1: flow {f} bad route, {kind}: "
        if kind is None:
            error, message = SchemaError, rf"^train.jsonl line 1: 'paths\[{f}\]\[0\]"
        with pytest.raises(error, match=message):
            load_dataset(tmp_path / "bad")

    def test_reload_round_trips_labels(self, toy_dataset_dir, toy_dataset):
        again = load_dataset(toy_dataset_dir)
        for split in SPLITS:
            for s1, s2 in zip(toy_dataset.splits[split], again.splits[split]):
                assert s1.labels.tobytes() == s2.labels.tobytes()
                assert s1.table.paths == s2.table.paths


class TestSharedLoad:
    """One graph and one capacities array per topology file, shared read-only."""

    @pytest.mark.parametrize(
        "scenario, files", [("nsfnet-fixed", 1), ("reggrid-fixed", 1), ("pertgrid-randtopo", 4)]
    )
    def test_capacities_once_per_topology_file(
        self, monkeypatch, family_dataset_dirs, scenario, files
    ):
        calls = []

        def counted(graph, config):
            calls.append(graph)
            return link_capacities(graph, config)

        monkeypatch.setattr(pipeline, "link_capacities", counted)
        ds = load_dataset(family_dataset_dirs[scenario])
        samples = [s for split in SPLITS for s in ds.splits[split]]
        assert len(calls) == files == len({s.graph_id for s in samples})
        first: dict[str, object] = {}
        for s in samples:
            f = first.setdefault(s.graph_id, s)
            assert s.graph is f.graph and s.capacities is f.capacities
            want = link_capacities(s.graph, ds.sim_config)
            assert s.capacities.tobytes() == want.tobytes()

    def test_shared_arrays_are_read_only(self, toy_dataset):
        s = toy_dataset.splits["train"][0]
        inp = prepare_twin_input(*s.part)
        shared = {
            "capacities": s.capacities,
            "degrees": s.graph.degrees,
            "s_norm": s.graph.s_norm,
            "link_tails": s.graph.link_tails,
        }
        assert inp.degrees is shared["degrees"]
        assert inp.s_norm is shared["s_norm"]
        assert inp.link_tails is shared["link_tails"]
        for name, array in shared.items():
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
            assert not array.flags.writeable, name

    def test_routes_pass_path_checks(self, toy_dataset):
        # a loaded path holds what a routed one does, tuples of int pairs,
        # and validate_table, the one route check, accepts every table
        for split in SPLITS:
            for s in toy_dataset.splits[split]:
                assert validate_table(s.table, s.graph, s.flows) == []
                for p in s.table.paths:
                    assert type(p.links) is tuple
                    assert all(type(link) is tuple for link in p.links)
                    assert all(type(n) is int for link in p.links for n in link)


# -- cleaning -----------------------------------------------------------------


class TestCleanTrain:
    def test_limits_and_gaps(self, line3):
        good = line_sample(line3, 100.0, 100.0, [100.0, 10.0, 40.0, 0.0])
        slow = line_sample(line3, 100.0, 100.0, [2500.0, 10.0, 40.0, 0.0], index=1)
        jittery = line_sample(line3, 100.0, 100.0, [100.0, 250.0, 40.0, 0.0], index=2)
        gappy = line_sample(line3, 100.0, 100.0, [100.0, 10.0, math.nan, 0.0], index=3)
        kept, report = clean_train_samples([good, slow, jittery, gappy])
        assert kept == [good]
        assert report == {"kept": 1, "discarded": 3}

    def test_limits_are_exclusive(self, line3):
        # a flow sitting exactly on a limit is still usable
        edge = line_sample(line3, 100.0, 100.0, [DELAY_LIMIT_MS, JITTER_LIMIT_MS, 1.0, 5.0])
        kept, _ = clean_train_samples([edge])
        assert kept == [edge]


class TestCleanTest:
    def make(self, line3, bench, labels=(100.0, 10.0, 40.0, 0.0)):
        s = line_sample(line3, 100.0, 100.0, list(labels))
        return replace(s, split="test", bench_runs=[np.array([r], dtype=np.float64) for r in bench])

    def test_clean_sample_passes_through(self, line3):
        s = self.make(line3, [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        kept, report = clean_test_samples([s])
        assert kept == [s]  # untouched, not rebuilt
        assert kept[0] is s
        assert report == {"kept": 1, "discarded": 0, "imputed_cells": 0}

    def test_gap_imputed_from_sibling_runs(self, line3):
        s = self.make(line3, [
            [1.0, math.nan, 3.0, 4.0],
            [1.0, 4.0, 3.0, 4.0],
            [1.0, 8.0, 3.0, 4.0],
        ])
        kept, report = clean_test_samples([s])
        assert report == {"kept": 1, "discarded": 0, "imputed_cells": 1}
        assert kept[0] is not s
        assert kept[0].bench_runs[0][0, 1] == pytest.approx(6.0)
        assert_array_equal(kept[0].bench_runs[1], s.bench_runs[1])
        assert_array_equal(kept[0].bench_runs[2], s.bench_runs[2])

    def test_reference_run_never_fills_gaps(self, line3):
        # jitter reference is 999; the fill must come from the runs alone
        s = self.make(
            line3,
            [[1.0, math.nan, 3.0, 4.0], [1.0, 4.0, 3.0, 4.0], [1.0, 8.0, 3.0, 4.0]],
            labels=(100.0, 999.0, 40.0, 0.0),
        )
        kept, _ = clean_test_samples([s])
        assert kept[0].bench_runs[0][0, 1] == pytest.approx(6.0)

    def test_cell_missing_everywhere_discards(self, line3):
        s = self.make(line3, [
            [1.0, math.nan, 3.0, 4.0],
            [1.0, math.nan, 3.0, 4.0],
        ])
        kept, report = clean_test_samples([s])
        assert kept == []
        assert report == {"kept": 0, "discarded": 1, "imputed_cells": 0}

    def test_broken_reference_discards(self, line3):
        s = self.make(line3, [[1.0, 2.0, 3.0, 4.0]], labels=(math.nan, 10.0, 40.0, 0.0))
        kept, report = clean_test_samples([s])
        assert kept == []
        assert report["discarded"] == 1

    def test_sample_without_runs_is_kept(self, line3):
        s = line_sample(line3, 100.0, 100.0, [100.0, 10.0, 40.0, 0.0])
        kept, _ = clean_test_samples([s])
        assert kept == [s]

    def test_filter_and_impute_covers_all_splits(self, toy_dataset):
        cleaned, report = filter_and_impute(toy_dataset)
        assert set(cleaned) == set(report) == set(SPLITS)
        for split in SPLITS:
            assert report[split]["kept"] == len(cleaned[split])
        assert "imputed_cells" in report["test"]
        assert "imputed_cells" not in report["train"]


# -- normalization ------------------------------------------------------------


class TestNormalizer:
    def fit_on_delays(self, line3, delays):
        samples = [
            line_sample(line3, 100.0, 100.0, [d, 10.0, 40.0, 0.0], index=i)
            for i, d in enumerate(delays)
        ]
        return fit_normalizer(samples)

    def test_quartile_statistics(self, line3):
        norm = self.fit_on_delays(line3, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert norm.iqr[0] == pytest.approx(2.0)
        assert norm.median[0] == pytest.approx(3.0)
        assert norm.mean[0] == pytest.approx(3.0)

    def test_constant_column_clamps_to_epsilon(self, line3):
        norm = self.fit_on_delays(line3, [1.0, 2.0, 3.0])
        # jitter was 10.0 in every flow, so its spread collapses
        assert norm.iqr[1] == IQR_EPS
        assert norm.median[1] == pytest.approx(10.0)

    def test_gaps_ignored_when_fitting(self, line3):
        with_gap = self.fit_on_delays(line3, [1.0, 2.0, 3.0, 4.0, 5.0, math.nan])
        without = self.fit_on_delays(line3, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert_array_equal(with_gap.iqr, without.iqr)
        assert_array_equal(with_gap.median, without.median)


    def test_jsonable_round_trip(self, line3):
        norm = self.fit_on_delays(line3, [1.0, 2.0, 9.0])
        back = Normalizer(**json.loads(json.dumps(norm.to_jsonable())))
        assert_array_equal(back.iqr, norm.iqr)
        assert_array_equal(back.median, norm.median)
        assert_array_equal(back.mean, norm.mean)

    def test_empty_training_fold(self):
        with pytest.raises(DatasetError, match="empty training fold"):
            fit_normalizer([])

    def test_iqr_shape_checked(self):
        with pytest.raises(DatasetError, match="entries"):
            Normalizer(np.ones(3), np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_iqr_must_be_positive_and_finite(self, bad):
        Normalizer(np.ones(4), np.zeros(4), np.zeros(4))
        with pytest.raises(DatasetError, match="iqr entries must be positive and finite"):
            Normalizer(np.array([1.0, 1.0, bad, 1.0]), np.zeros(4), np.zeros(4))


# -- training configuration ---------------------------------------------------


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.strategy == "mtl"
        assert config.model_kind == "glance"
        assert config.size == "compact"
        assert (config.epochs, config.batch_size, config.folds) == (100, 10, 4)
        assert (config.lr, config.l2_link, config.l2_readout) == (1e-3, 1e-3, 1e-4)

    def test_validation(self):
        with pytest.raises(DatasetError, match="unknown strategy"):
            TrainConfig(strategy="finetune")
        with pytest.raises(DatasetError, match="needs target_task"):
            TrainConfig(strategy="stl")
        with pytest.raises(DatasetError, match="needs target_task"):
            TrainConfig(strategy="tl", target_task="latency")
        with pytest.raises(DatasetError, match="compact or large"):
            TrainConfig(size="huge")
        with pytest.raises(DatasetError, match="positive"):
            TrainConfig(epochs=0)
        for bad in (1, 0):
            with pytest.raises(DatasetError, match=f"folds must be at least 2, got {bad}"):
                TrainConfig(folds=bad)
        with pytest.raises(DatasetError, match="lr must be positive"):
            TrainConfig(lr=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(DatasetError, match="lr must be positive and finite"):
                TrainConfig(lr=bad)
        for bad in (math.nan, math.inf, -1e-9):
            with pytest.raises(DatasetError, match="l2_readout must be non-negative"):
                TrainConfig(l2_readout=bad)
        assert TrainConfig(l2_link=0.0, l2_readout=0.0).l2_link == 0.0

    def test_task_selection(self):
        assert TrainConfig(strategy="mtl").active_tasks() == TASKS
        stl = TrainConfig(strategy="stl", target_task="jitter")
        assert stl.active_tasks() == ("jitter",)
        assert stl.pretrain_tasks() == ("delay", "throughput", "drops")

    def test_dims_by_size(self):
        assert TrainConfig(size="compact").dims(10) is COMPACT
        assert TrainConfig(size="large").dims(10) is LARGE
        assert TrainConfig(model_kind="gnn").dims(10) == GnnDims(n_flows=10)


# -- train_model --------------------------------------------------------------


def training_pair(line3):
    s1 = line_sample(line3, 100.0, 100.0, [2.0, 1.0, 50.0, 3.0], index=0)
    s2 = line_sample(line3, 100.0, 100.0, [4.0, 3.0, 70.0, 1.0], index=1)
    return [s1, s2]


UNIT_NORM = Normalizer(np.array([2.0, 1.0, 10.0, 1.0]), np.ones(4), np.ones(4))


class TestTrainModel:
    def test_initial_loss_closed_form(self, line3):
        # zero weights predict zero, so the first recorded loss is the
        # normalized L1 mass of the labels themselves
        model = zero_params(make_model("glance", TASKS, 0, dims=TINY_DIMS))
        result = train_model(
            model, training_pair(line3), [], UNIT_NORM,
            epochs=1, batch_size=10, lr=1e-3, l2_link=0.0, l2_readout=0.0, seed=0,
        )
        row = result.history[0]
        # per sample: |y|/iqr summed over tasks = 10.0 and 13.0
        assert row["train_loss"] == pytest.approx(11.5, rel=1e-12)
        assert row["train_per_task"]["delay"] == pytest.approx(1.5, rel=1e-12)
        assert row["train_per_task"]["jitter"] == pytest.approx(2.0, rel=1e-12)
        assert row["train_per_task"]["throughput"] == pytest.approx(6.0, rel=1e-12)
        assert row["train_per_task"]["drops"] == pytest.approx(2.0, rel=1e-12)
        # without a validation fold the train numbers stand in
        assert row["val_loss"] == row["train_loss"]
        assert row["val_per_task"] == row["train_per_task"]

    def test_masked_cells_cost_nothing(self, line3):
        samples = training_pair(line3)
        samples[1].labels[0, 1] = math.nan
        model = zero_params(make_model("glance", TASKS, 0, dims=TINY_DIMS))
        result = train_model(
            model, samples, [], UNIT_NORM,
            epochs=1, batch_size=10, lr=1e-3, l2_link=0.0, l2_readout=0.0, seed=0,
        )
        # only the first sample still has a jitter cell
        assert result.history[0]["train_per_task"]["jitter"] == pytest.approx(0.5, rel=1e-12)

    def test_empty_training_fold(self, line3):
        model = make_model("glance", TASKS, 0, dims=TINY_DIMS)
        with pytest.raises(DatasetError, match="at least one sample"):
            train_model(
                model, [], [], UNIT_NORM,
                epochs=1, batch_size=1, lr=1e-3, l2_link=0.0, l2_readout=0.0, seed=0,
            )

    def test_freeze_embeddings_moves_only_active_readout(self, line3):
        # the transfer-learning setting: one fresh head on frozen embeddings
        model = make_model("glance", ("delay",), 7, dims=TINY_DIMS)
        before = param_bytes(model.params)
        result = train_model(
            model, training_pair(line3), [], UNIT_NORM,
            epochs=1, batch_size=2, lr=1e-3, l2_link=1e-3, l2_readout=1e-4,
            seed=3, freeze_embeddings=True,
        )
        after = param_bytes(model.params)
        assert model.readout_names() and embedding_names(model)
        for name in model.readout_names():
            assert after[name] != before[name]
        for name in embedding_names(model):
            assert after[name] == before[name]
            assert not result.adam.m[name].any()  # moments never touched

    def test_resume_matches_uninterrupted_run(self, line3):
        samples = training_pair(line3)
        val = [line_sample(line3, 100.0, 100.0, [3.0, 2.0, 60.0, 2.0], index=2)]
        kw = dict(batch_size=1, lr=1e-2, l2_link=1e-3, l2_readout=1e-4, seed=11)

        full_model = make_model("glance", TASKS, 5, dims=TINY_DIMS)
        full = train_model(full_model, samples, val, UNIT_NORM, epochs=4, **kw)

        part_model = make_model("glance", TASKS, 5, dims=TINY_DIMS)
        first = train_model(part_model, samples, val, UNIT_NORM, epochs=2, **kw)
        second = train_model(
            part_model, samples, val, UNIT_NORM, epochs=4, resume=first, **kw,
        )
        assert param_bytes(part_model.params) == param_bytes(full_model.params)
        assert second.history == full.history
        assert second.best_epoch == full.best_epoch
        assert second.best_val == full.best_val
        assert second.epochs_run == full.epochs_run == 4
        assert param_bytes(second.best_params) == param_bytes(full.best_params)
        assert second.adam.step == full.adam.step

    def test_validation_batches_built_once_per_run(self, line3, monkeypatch):
        joined = []
        real = pipeline.batch_inputs

        def counted(inputs):
            joined.append(len(inputs))
            return real(inputs)

        monkeypatch.setattr(pipeline, "batch_inputs", counted)
        val = [
            line_sample(line3, 100.0, 100.0, [3.0, 2.0, 60.0, 2.0], index=k)
            for k in range(EVAL_CHUNK + 1)
        ]
        train_model(
            make_model("glance", TASKS, 5, dims=TINY_DIMS), training_pair(line3), val,
            UNIT_NORM, epochs=3, batch_size=2, lr=1e-2, l2_link=0.0, l2_readout=0.0, seed=1,
        )
        # the two validation batches first, then one training batch per epoch
        assert joined == [EVAL_CHUNK, 1, 2, 2, 2]

    def test_best_snapshot_tracks_validation_minimum(self, line3):
        model = make_model("glance", TASKS, 5, dims=TINY_DIMS)
        val = [line_sample(line3, 100.0, 100.0, [3.0, 2.0, 60.0, 2.0], index=2)]
        result = train_model(
            model, training_pair(line3), val, UNIT_NORM,
            epochs=3, batch_size=1, lr=1e-2, l2_link=0.0, l2_readout=0.0, seed=1,
        )
        losses = [r["val_loss"] for r in result.history]
        assert result.best_val == min(losses)
        assert result.best_epoch == losses.index(min(losses))


class TestBatchedTraining:
    """One tape per mini-batch against per-sample tapes."""

    #: parameters the finite-difference check perturbs, per kind
    FD_PARAMS = {
        "glance": ("gru/b_z", "egc/w", "readout/delay/out_b"),
        "routenet": ("gru/b_h", "link/proj_b", "readout/drops/out_w"),
        "gnn": ("gcn/b1", "readout/jitter/b"),
    }

    def model(self, kind):
        return make_model(kind, TASKS, 6, dims=kind_dims(kind, BATCH_DIMS, 2))

    def gradients(self, model, items):
        tape = Tape()
        bound = model.params.bind(tape)
        loss, _, _ = batch_loss(model, tape, bound, items)
        grads = tape.backward(loss)
        return float(loss.value), {n: grads[t] for n, t in bound.items()}

    def items(self, model, samples):
        return [
            (s.part, *loss_targets(model, s, UNIT_NORM.iqr))
            for s in samples
        ]

    @pytest.mark.parametrize("kind", ["glance", "routenet", "gnn"])
    def test_loss_is_one_node_after_the_forward(self, kind):
        model = self.model(kind)
        tape = Tape()
        loss, _, inp = batch_loss(
            model, tape, model.params.bind(tape), self.items(model, mixed_samples())
        )
        alone = Tape()
        out = model.forward(alone, model.params.bind(alone), inp)
        assert loss.node_id == out.node_id + 1

    @pytest.mark.parametrize("kind", ["glance", "routenet", "gnn"])
    def test_gradient_is_mean_of_sample_gradients(self, kind):
        model = self.model(kind)
        items = self.items(model, mixed_samples())
        loss, grads = self.gradients(model, items)
        each = [self.gradients(model, [item]) for item in items]
        assert loss == pytest.approx(np.mean([l for l, _ in each]), rel=1e-12)
        for name, g in grads.items():
            mean = sum(e[1][name] for e in each) / len(each)
            assert np.max(np.abs(g - mean)) < 1e-10, name

    @pytest.mark.parametrize("kind", ["glance", "routenet", "gnn"])
    def test_gradient_matches_finite_differences(self, kind):
        model = self.model(kind)
        items = self.items(model, mixed_samples())
        _, grads = self.gradients(model, items)
        for name in self.FD_PARAMS[kind]:
            fd = fd_gradient(lambda _: self.gradients(model, items)[0], model.params[name])
            assert max_rel_err(grads[name], fd) < 1e-5, name

    @pytest.mark.parametrize("kind", ["glance", "gnn"])
    def test_chunked_predictions_match_per_sample(self, kind):
        model = self.model(kind)
        samples = mixed_samples() * 4  # 12 samples: two chunks
        assert len(samples) > EVAL_CHUNK
        got = predict_samples(model, samples)
        for s, rows in zip(samples, got):
            assert np.max(np.abs(rows - model.predict(prepare_twin_input(*s.part)))) < 1e-12
        single = predict_samples(model, samples[:1])[0]
        assert single.tobytes() == model.predict(prepare_twin_input(*samples[0].part)).tobytes()

    def test_loss_values_read_the_model_columns(self):
        # the model's only head is jitter, column 1 of the labels
        model = make_model("routenet", ("jitter",), 6, dims=BATCH_DIMS)
        samples = mixed_samples()
        for s, (total, per_task) in zip(samples, loss_values(model, samples, UNIT_NORM)):
            preds = model.predict(prepare_twin_input(*s.part))[:, 0]
            want = np.mean(np.abs(preds - s.labels[:, 1])) / UNIT_NORM.iqr[1]
            assert per_task.shape == (1,)
            assert total == pytest.approx(want, rel=1e-12)


# -- strategies ---------------------------------------------------------------


@pytest.fixture(scope="module")
def cleaned_toy(toy_dataset):
    cleaned, _ = filter_and_impute(toy_dataset)
    return cleaned


class TestRunStrategy:
    def test_single_task(self, cleaned_toy):
        config = TrainConfig(strategy="stl", target_task="delay", epochs=2, batch_size=4, seed=1)
        out = run_strategy(cleaned_toy["train"], cleaned_toy["val"], config, n_flows=10)
        assert out.model.tasks == ("delay",)
        assert out.pretrain_result is None
        assert out.result.epochs_run == 2
        assert len(out.result.history) == 2
        expected = fit_normalizer(cleaned_toy["train"])
        assert_array_equal(out.normalizer.iqr, expected.iqr)

    def test_explicit_normalizer_passthrough(self, cleaned_toy):
        config = TrainConfig(strategy="stl", target_task="delay", epochs=1, seed=1)
        norm = Normalizer(np.ones(4), np.zeros(4), np.zeros(4))
        out = run_strategy(cleaned_toy["train"][:2], [], config, n_flows=10, normalizer=norm)
        assert out.normalizer is norm

    def test_multi_task_deterministic(self, cleaned_toy):
        config = TrainConfig(strategy="mtl", epochs=2, batch_size=4, seed=2)
        out1 = run_strategy(cleaned_toy["train"], cleaned_toy["val"], config, n_flows=10)
        out2 = run_strategy(cleaned_toy["train"], cleaned_toy["val"], config, n_flows=10)
        assert out1.model.tasks == TASKS
        assert param_bytes(out1.model.params) == param_bytes(out2.model.params)
        assert out1.result.history == out2.result.history

    def test_resume_continues_a_shorter_run(self, cleaned_toy):
        train, val = cleaned_toy["train"][:4], cleaned_toy["val"]
        config = TrainConfig(strategy="stl", target_task="jitter", epochs=3, batch_size=2, seed=4)
        full = run_strategy(train, val, config, n_flows=10)
        first = run_strategy(train, val, replace(config, epochs=1), n_flows=10)
        second = run_strategy(
            train, val, config, 10, first.normalizer, resume=(first.model, first.result)
        )
        assert second.model is first.model
        assert param_bytes(second.model.params) == param_bytes(full.model.params)
        assert second.result.history == full.result.history
        assert param_bytes(second.result.best_params) == param_bytes(full.result.best_params)

    def test_resume_rejected_for_transfer(self, cleaned_toy):
        model = make_model("glance", ("delay",), 0, dims=TINY_DIMS)
        result = TrainResult(model.params.copy(), AdamState.zeros_like(model.params), [], 0, 1.0, 1)
        config = TrainConfig(strategy="tl", target_task="delay", epochs=2, seed=1)
        with pytest.raises(DatasetError, match="stl and mtl strategies only"):
            run_strategy(cleaned_toy["train"][:2], [], config, 10, UNIT_NORM, (model, result))

    def test_transfer_keeps_pretrained_embeddings(self, cleaned_toy):
        config = TrainConfig(strategy="tl", target_task="throughput", epochs=2, batch_size=4, seed=3)
        out = run_strategy(cleaned_toy["train"], cleaned_toy["val"], config, n_flows=10)
        assert out.model.tasks == ("throughput",)
        assert out.pretrain_model.tasks == ("delay", "jitter", "drops")
        assert out.pretrain_result is not None
        # downstream training may move only the fresh readout
        best = out.pretrain_result.best_params
        for name in out.model.params.names():
            if not name.startswith("readout/"):
                assert out.model.params[name].tobytes() == best[name].tobytes()

    def test_transfer_readouts_are_fresh_and_seeded(self):
        pre = make_model("glance", ("delay", "jitter"), 0, dims=TINY_DIMS)
        t1 = transfer_model(pre, ("drops",), seed=1)
        t2 = transfer_model(pre, ("drops",), seed=2)
        t1b = transfer_model(pre, ("drops",), seed=1)
        for name in t1.params.names():
            if name.startswith("readout/"):
                assert t1.params[name].tobytes() == t1b.params[name].tobytes()
            else:
                assert t1.params[name].tobytes() == pre.params[name].tobytes()
        assert any(
            t1.params[n].tobytes() != t2.params[n].tobytes()
            for n in t1.params.names() if n.startswith("readout/") and t1.params[n].size
        )

    def test_transfer_overlap_rejected(self):
        pre = make_model("glance", ("delay", "jitter"), 0, dims=TINY_DIMS)
        with pytest.raises(DatasetError, match="already trained upstream"):
            transfer_model(pre, ("jitter",), seed=0)


class TestCrossValidate:
    def test_fold_split_assignment(self):
        train, val = fold_split(10, 1, 4)
        assert val == [1, 5, 9]
        assert train == [0, 2, 3, 4, 6, 7, 8]
        # every sample validates exactly once across folds
        seen = sorted(i for f in range(4) for i in fold_split(10, f, 4)[1])
        assert seen == list(range(10))

    def test_too_few_samples(self, line3):
        config = TrainConfig(epochs=1, folds=5)
        with pytest.raises(DatasetError, match="cannot fill"):
            cross_validate(training_pair(line3), config, n_flows=1)

    def test_outcome_statistics(self, line3):
        samples = [
            line_sample(line3, 100.0, 100.0, [d, 1.0 + d, 50.0, d / 2.0], index=i)
            for i, d in enumerate([2.0, 4.0, 6.0, 8.0])
        ]
        config = TrainConfig(epochs=1, batch_size=4, folds=2, seed=0)
        cv = cross_validate(samples, config, n_flows=1)
        assert len(cv.folds) == 2
        vals = np.array([fold.result.best_val for fold in cv.folds])
        assert cv.best_fold == int(np.argmin(vals))
        assert cv.mean_best_val == pytest.approx(vals.mean())
        assert cv.std_best_val == pytest.approx(vals.std())
        assert cv.champion() is cv.folds[cv.best_fold]
        # folds train on different seeds and data, so they genuinely differ
        assert vals[0] != vals[1]

    @pytest.mark.parametrize("cores, jobs", [(None, 1), (1, 1), (2, 2), (64, 3)])
    def test_one_worker_per_core_up_to_one_per_fold(self, line3, monkeypatch, cores, jobs):
        asked = []

        def in_process(fn, tasks, n):
            asked.append(n)
            return map_jobs(fn, tasks, 1)

        monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(pipeline, "map_jobs", in_process)
        samples = training_pair(line3) + training_pair(line3)
        cross_validate(samples, TrainConfig(epochs=1, batch_size=2, folds=3), n_flows=1)
        assert asked == [jobs]

    def test_folds_from_workers_match_folds_trained_one_by_one(self, line3):
        """On a host of more than one core the folds train in map_jobs
        workers; each matches the fold trained in this process byte for byte.

        These models' products stay below OpenBLAS's threading threshold, so
        this process's BLAS thread count does not show. A model whose
        products cross it (check 6's compact twins at batch 10) matches a
        worker only in a process pinned to one BLAS thread.
        """
        samples = [
            line_sample(line3, 100.0, 100.0, [d, 1.0 + d, 50.0, d / 2.0], index=i)
            for i, d in enumerate([2.0, 4.0, 6.0, 8.0, 3.0, 5.0])
        ]
        config = TrainConfig(epochs=3, batch_size=2, folds=3, seed=4)
        cv = cross_validate(samples, config, n_flows=1)
        for f, fold in enumerate(cv.folds):
            alone = pipeline._fold_outcome(samples, config, 1, f)
            for got, want in ((fold.result.best_params, alone.result.best_params),
                              (fold.model.params, alone.model.params)):
                assert got.flat.tobytes() == want.flat.tobytes()
            assert fold.result.history == alone.result.history
            assert fold.normalizer.to_jsonable() == alone.normalizer.to_jsonable()


# -- evaluation ---------------------------------------------------------------


class TestNmae:
    def test_perfect_predictor_scores_zero(self):
        labels = [np.array([[1.0, 2.0, 3.0, 4.0]])]
        row = nmae_row(labels, labels, np.ones(4))
        assert all(row[t] == 0.0 for t in TASKS)

    def test_pooled_hand_case(self):
        preds = [np.zeros((1, 4)), np.full((1, 4), 2.0)]
        labels = [np.ones((1, 4)), np.full((1, 4), 3.0)]
        row = nmae_row(preds, labels, np.array([1.0, 2.0, 4.0, 0.5]))
        assert row["delay"] == pytest.approx(1.0)
        assert row["jitter"] == pytest.approx(0.5)
        assert row["throughput"] == pytest.approx(0.25)
        assert row["drops"] == pytest.approx(2.0)

    def test_gap_cells_excluded(self):
        preds = [np.array([[1.0, 1.0, 1.0, 1.0], [5.0, 1.0, 1.0, 1.0]])]
        labels = [np.array([[2.0, math.nan, 1.0, 1.0], [math.nan, math.nan, 1.0, 1.0]])]
        row = nmae_row(preds, labels, np.ones(4))
        assert row["delay"] == pytest.approx(1.0)  # only the finite pair counts
        assert math.isnan(row["jitter"])

    def test_subset_model_reports_nan_elsewhere(self, line3):
        model = zero_params(make_model("glance", ("delay",), 0, dims=TINY_DIMS))
        sample = line_sample(line3, 100.0, 100.0, [3.0, 1.0, 1.0, 1.0])
        row = evaluate_model(model, [sample], Normalizer(np.array([1.5, 1.0, 1.0, 1.0]), np.zeros(4), np.zeros(4)))
        assert row["delay"] == pytest.approx(2.0)
        for t in ("jitter", "throughput", "drops"):
            assert math.isnan(row[t])


class TestBaselineRows:
    def bench_sample(self, line3, runs, labels, index=0):
        s = line_sample(line3, 100.0, 100.0, list(labels), index=index)
        return replace(s, bench_runs=[np.full((1, 4), v) for v in runs])

    def test_simbase_budget_capped_by_shortest_sample(self, line3):
        s1 = self.bench_sample(line3, [1.0, 3.0, 5.0], [0.0, 0.0, 0.0, 0.0])
        s2 = self.bench_sample(line3, [2.0, 4.0], [2.0, 2.0, 2.0, 2.0], index=1)
        norm = Normalizer(np.array([1.0, 2.0, 4.0, 8.0]), np.zeros(4), np.zeros(4))
        rows = simbase_rows([s1, s2], norm)
        assert set(rows) == {"simbase_1", "simbase_2"}
        # run 1: errors 1 and 0; mean of runs 1-2: errors 2 and 1
        assert rows["simbase_1"]["delay"] == pytest.approx(0.5)
        assert rows["simbase_2"]["delay"] == pytest.approx(1.5)
        assert rows["simbase_2"]["jitter"] == pytest.approx(0.75)
        assert rows["simbase_2"]["drops"] == pytest.approx(0.1875)

    def test_simbase_empty(self):
        assert simbase_rows([], UNIT_NORM) == {}

    def test_naive_levels(self, line3):
        samples = [
            line_sample(line3, 100.0, 100.0, [v, v, v, v], index=i)
            for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])
        ]
        norm = Normalizer(np.array([2.0, 1.0, 1.0, 1.0]), np.full(4, 3.0), np.full(4, 2.0))
        rows = naive_rows(samples, norm)
        assert rows["naive_median"]["delay"] == pytest.approx(0.6)
        assert rows["naive_median"]["jitter"] == pytest.approx(1.2)
        assert rows["naive_mean"]["delay"] == pytest.approx(0.7)
        assert rows["naive_mean"]["jitter"] == pytest.approx(1.4)

    def test_report_structure(self, line3):
        model = zero_params(make_model("glance", TASKS, 0, dims=TINY_DIMS))
        samples = [self.bench_sample(line3, [1.0], [2.0, 2.0, 2.0, 2.0])]
        report = evaluation_report({"twin": model}, samples, UNIT_NORM)
        assert report["n_test_samples"] == 1
        assert set(report["iqr"]) == set(TASKS)
        assert report["iqr"]["delay"] == 2.0
        assert set(report["rows"]) == {"twin", "naive_median", "naive_mean", "simbase_1"}


class TestReportRowsOracle:
    """nmae_row's one finite mask and simbase_rows' one nanmean per budget
    over every sample's flows, against the per-sample loops, as bytes."""

    @staticmethod
    def holed(rng, shape):
        a = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3])
        a[rng.random(shape) < 0.2] = math.nan
        a[rng.random(shape) < 0.03] = math.inf
        return a

    @staticmethod
    def as_bytes(rows):
        return {name: np.array([row[t] for t in TASKS]).tobytes() for name, row in rows.items()}

    def test_stacked_rows_match_per_sample_loops(self):
        rng = np.random.default_rng(28)
        for _ in range(300):
            samples = []
            for _ in range(int(rng.integers(1, 6))):
                f = int(rng.integers(1, 7))
                runs = [self.holed(rng, (f, 4)) for _ in range(int(rng.integers(1, 12)))]
                samples.append(SimpleNamespace(labels=self.holed(rng, (f, 4)), bench_runs=runs))
            iqr = rng.uniform(0.1, 3.0, 4)
            got = simbase_rows(samples, Normalizer(iqr, np.zeros(4), np.zeros(4)))
            want = reference_simbase_rows(samples, iqr)
            assert list(got) == list(want)
            assert self.as_bytes(got) == self.as_bytes(want)
            preds = [self.holed(rng, s.labels.shape) for s in samples]
            labels = [s.labels for s in samples]
            got, want = nmae_row(preds, labels, iqr), reference_nmae_row(preds, labels, iqr)
            assert self.as_bytes({"": got}) == self.as_bytes({"": want})


# -- persistence --------------------------------------------------------------


class TestCheckpointManifest:
    def result_for(self, model):
        return TrainResult(
            best_params=model.params.copy(),
            adam=AdamState.zeros_like(model.params),
            history=[],
            best_epoch=3,
            best_val=0.25,
            epochs_run=10,
        )

    def test_glance_round_trip(self, line3):
        model = make_model("glance", ("delay", "jitter"), 3, dims=TINY_DIMS)
        norm = Normalizer(np.array([2.0, 1.0, 10.0, 1.0]), np.ones(4), np.ones(4))
        config = TrainConfig(strategy="stl", target_task="delay", epochs=10, seed=4)
        manifest = checkpoint_manifest(model, norm, config, self.result_for(model))
        manifest = json.loads(json.dumps(manifest))  # must survive serialization

        loaded, norm2 = model_from_checkpoint(model.params, manifest, "ckpt.json")
        assert loaded.kind == "glance"
        assert loaded.tasks == ("delay", "jitter")
        assert loaded.dims == TINY_DIMS
        assert_array_equal(norm2.iqr, norm.iqr)
        inp = prepare_twin_input(*line_sample(line3, 100.0, 100.0, [1.0, 1.0, 1.0, 1.0]).part)
        assert loaded.predict(inp).tobytes() == model.predict(inp).tobytes()

    def test_recorded_training_settings(self):
        model = make_model("glance", TASKS, 0, dims=TINY_DIMS)
        config = TrainConfig(strategy="mtl", epochs=10, batch_size=5, lr=2e-3, seed=4)
        manifest = checkpoint_manifest(model, UNIT_NORM, config, self.result_for(model))
        assert manifest["strategy"] == "mtl"
        assert manifest["target_task"] is None
        assert manifest["train_config"] == {
            "epochs": 10, "batch_size": 5, "lr": 2e-3,
            "l2_link": 1e-3, "l2_readout": 1e-4, "seed": 4,
        }
        assert manifest["best_epoch"] == 3
        assert manifest["best_val"] == 0.25
        assert manifest["epochs_run"] == 10
        assert "dataset" not in manifest

    def test_dataset_stamp(self):
        model = make_model("glance", TASKS, 0, dims=TINY_DIMS)
        manifest = checkpoint_manifest(
            model, UNIT_NORM, TrainConfig(), self.result_for(model),
            dataset_manifest={"scenario": "reggrid-fixed", "seed": 5, "n_flows": 10, "splits": {}},
        )
        assert manifest["dataset"] == {"scenario": "reggrid-fixed", "seed": 5, "n_flows": 10}

    def test_gnn_round_trip(self, line3):
        model = make_model("gnn", TASKS, 1, dims=GnnDims(n_flows=1))
        manifest = json.loads(json.dumps(
            checkpoint_manifest(model, UNIT_NORM, TrainConfig(model_kind="gnn"), self.result_for(model))
        ))
        assert manifest["kind"] == "gnn"
        loaded, _ = model_from_checkpoint(model.params, manifest, "ckpt.json")
        assert isinstance(loaded.dims, GnnDims)
        assert loaded.dims == model.dims
        inp = prepare_twin_input(*line_sample(line3, 100.0, 100.0, [1.0, 1.0, 1.0, 1.0]).part)
        assert loaded.predict(inp).tobytes() == model.predict(inp).tobytes()

    @pytest.mark.parametrize("kind", ["glance", "gnn"])
    def test_params_checked_against_manifest(self, kind):
        model = make_model(kind, ("delay", "drops"), 2, dims=kind_dims(kind, TINY_DIMS, 3))
        manifest = json.loads(json.dumps(
            checkpoint_manifest(model, UNIT_NORM, TrainConfig(), self.result_for(model))
        ))
        name = model.params.names()[0]

        cut = ParamSet({n: a[1:] if n == name else a for n, a in model.params.items()})
        with pytest.raises(TwinError, match=rf"parameter '{name}' has shape"):
            model_from_checkpoint(cut, manifest, "ckpt.json")

        missing = ParamSet({n: a for n, a in model.params.items() if n != name})
        with pytest.raises(TwinError, match=rf"lacks parameter '{name}'"):
            model_from_checkpoint(missing, manifest, "ckpt.json")

        extra = model.params.copy()
        extra.add("readout/jitter/out_b", np.zeros(1))
        with pytest.raises(TwinError, match=r"'readout/jitter/out_b' is not in its"):
            model_from_checkpoint(extra, manifest, "ckpt.json")

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("glance", lambda m: m["dims"].update(n_flows=3),
             r"'dims.n_flows' is not a field of this file"),
            ("gnn", lambda m: m["dims"].pop("n_flows"), r"'dims.n_flows' is missing"),
            ("gnn", lambda m: m.pop("normalizer"), r"'normalizer' is missing"),
        ],
        ids=["glance-extra-key", "gnn-missing-key", "no-normalizer"],
    )
    def test_manifest_keys_checked(self, kind, edit, message):
        model = make_model(kind, ("delay",), 2, dims=kind_dims(kind, TINY_DIMS, 3))
        manifest = json.loads(json.dumps(
            checkpoint_manifest(model, UNIT_NORM, TrainConfig(), self.result_for(model))
        ))
        edit(manifest)
        with pytest.raises(SchemaError, match=rf"^ckpt.json: {message}$"):
            model_from_checkpoint(model.params, manifest, "ckpt.json")


class TestLearningCurves:
    def test_exact_csv(self, tmp_path):
        histories = {
            0: [{
                "epoch": 0,
                "train_loss": 0.5, "train_per_task": {"delay": 0.5},
                "val_loss": 0.25, "val_per_task": {"delay": 0.25},
            }],
            1: [{
                "epoch": 0,
                "train_loss": 1.0, "train_per_task": {"delay": 0.75, "jitter": 0.25},
                "val_loss": 2.0, "val_per_task": {"delay": 1.5, "jitter": 0.5},
            }],
        }
        path = tmp_path / "curves.csv"
        write_learning_curves(path, histories)
        assert path.read_text() == (
            "epoch,fold,split,loss_total,loss_delay,loss_jitter\n"
            "0,0,train,0.5,0.5,\n"
            "0,0,val,0.25,0.25,\n"
            "0,1,train,1,0.75,0.25\n"
            "0,1,val,2,1.5,0.5\n"
        )


class TestBootstrap:
    def test_constant_shift(self):
        b = np.array([1.0, 2.0, 3.0, 4.0])
        lo, hi = bootstrap_mean_diff_ci(b + 1.0, b)
        assert (lo, hi) == (1.0, 1.0)
        lo, hi = bootstrap_mean_diff_ci(b, b + 1.0)
        assert (lo, hi) == (-1.0, -1.0)

    def test_identical_arrays(self):
        b = np.array([5.0, -1.0, 2.0])
        assert bootstrap_mean_diff_ci(b, b) == (0.0, 0.0)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=30), rng.normal(size=30)
        assert bootstrap_mean_diff_ci(a, b, seed=4) == bootstrap_mean_diff_ci(a, b, seed=4)
        assert bootstrap_mean_diff_ci(a, b, seed=4) != bootstrap_mean_diff_ci(a, b, seed=5)

    def test_interval_brackets_true_difference(self):
        rng = np.random.default_rng(1)
        a = rng.normal(2.0, 0.1, size=200)
        b = rng.normal(1.0, 0.1, size=200)
        lo, hi = bootstrap_mean_diff_ci(a, b)
        assert lo < 1.0 < hi
        assert lo > 0.8 and hi < 1.2

    def test_input_validation(self):
        with pytest.raises(ValueError, match="equal-length 1-D"):
            bootstrap_mean_diff_ci(np.ones(3), np.ones(4))
        with pytest.raises(ValueError, match="equal-length 1-D"):
            bootstrap_mean_diff_ci(np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="equal-length 1-D"):
            bootstrap_mean_diff_ci(np.array([]), np.array([]))
