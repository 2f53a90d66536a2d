"""End-to-end command tests: exit codes, files written, reproducibility."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    TINY_DIMS,
    copy_with_edited_record,
    copy_with_missing_link,
    copy_with_truncated_line,
)
from nettwin import cli, manage, pipeline
from nettwin.autodiff import AdamState, ParamSet, load_checkpoint, save_checkpoint
from nettwin.pipeline import (
    Normalizer,
    TrainConfig,
    TrainResult,
    checkpoint_manifest,
    evaluate_model,
    filter_and_impute,
    fit_normalizer,
    simbase_rows,
)
from nettwin.simulator import TASKS
from nettwin.twin import GlanceDims, GnnDims, make_model

#: small but l_max=3 so grid paths from the toy dataset fit
CKPT_DIMS = GlanceDims(
    d_node=4, d_link=4, d_path=8, t_layers=1, l_max=3,
    link_hidden=(8,), readout_hidden=(8,),
)

CKPT_NORM = Normalizer(
    np.array([2.0, 1.0, 10.0, 1.0]), np.full(4, 1.0), np.full(4, 2.0)
)


def write_ckpt(
    path, *, seed=0, tasks=TASKS, config=None, zero=False, scenario=None, kind="glance",
    dims=CKPT_DIMS,
):
    if kind == "gnn":
        dims = GnnDims(n_flows=10, channels=8, n_layers=1)
    model = make_model(kind, tasks, seed, dims=dims)
    if zero:
        for name in model.params.names():
            model.params[name] = np.zeros_like(model.params[name])
    config = config or TrainConfig(epochs=1)
    result = TrainResult(
        best_params=model.params.copy(),
        adam=AdamState.zeros_like(model.params),
        history=[],
        best_epoch=0,
        best_val=0.5,
        epochs_run=1,
    )
    dataset_stub = None
    if scenario is not None:
        dataset_stub = {"scenario": scenario, "seed": 0, "n_flows": 10}
    manifest = checkpoint_manifest(model, CKPT_NORM, config, result, dataset_stub)
    save_checkpoint(path, model.params, manifest)
    return model


def stdout_objects(capsys) -> list[dict]:
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def read_tree(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


TINY_GEN = [
    "--n-train", "2", "--n-val", "1", "--n-test", "1", "--n-r-test", "2",
    "--n-flows", "4", "--t-gen", "2.0", "--seed", "9",
]


class TestGenData:
    def test_rerun_is_byte_identical(self, run_cli, tmp_path):
        out = tmp_path / "ds"
        argv = ["gen-data", "--scenario", "reggrid-fixed", *TINY_GEN, "--out", str(out)]
        assert run_cli(*argv) == 0
        first = read_tree(out)
        assert "manifest.json" in first and "resolved_config.json" in first
        shutil.rmtree(out)
        assert run_cli(*argv) == 0
        assert read_tree(out) == first

    def test_reports_resolved_config_and_splits(self, run_cli, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli(
            "gen-data", "--scenario", "reggrid-fixed", *TINY_GEN, "--out", str(out)
        ) == 0
        lines = stdout_objects(capsys)
        assert lines[0]["resolved_config"]["scenario"] == "reggrid-fixed"
        assert lines[0]["resolved_config"]["n_train"] == 2
        assert lines[-1]["splits"] == {"train": 2, "val": 1, "test": 1}

    def test_unknown_scenario_is_usage_error(self, run_cli, tmp_path):
        code = run_cli(
            "gen-data", "--scenario", "reggrid", "--out", str(tmp_path / "x")
        )
        assert code == 2

    def test_missing_out_is_usage_error(self, run_cli):
        assert run_cli("gen-data", "--scenario", "reggrid-fixed") == 2

    def test_config_file_under_flags(self, run_cli, tmp_path, capsys):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "scenario": "reggrid-fixed", "n_train": 2, "n_val": 1, "n_test": 1,
            "n_r_test": 2, "n_flows": 4, "t_gen": 2.0, "seed": 1,
        }))
        out = tmp_path / "ds"
        assert run_cli(
            "gen-data", "--config", str(cfg), "--seed", "9", "--out", str(out)
        ) == 0
        resolved = stdout_objects(capsys)[0]["resolved_config"]
        assert resolved["seed"] == 9  # flag beats file
        assert resolved["n_train"] == 2  # file beats default
        assert resolved["n_r_test"] == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_unknown_config_key_is_usage_error(self, run_cli, tmp_path):
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"scenario": "reggrid-fixed", "n_trian": 5}))
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2

    def test_config_that_is_a_directory_is_usage_error(self, run_cli, tmp_path):
        assert run_cli("gen-data", "--config", str(tmp_path), "--out", str(tmp_path / "x")) == 2
        assert not (tmp_path / "x").exists()

    def test_config_number_beyond_float_range_is_usage_error(self, run_cli, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"scenario": "reggrid-fixed", "t_gen": 1' + "0" * 400 + "}")
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")) == 2
        assert f"{cfg}: 't_gen' is too large for a float" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen-data", "--scenario", "nope", "--out", "newdir/ds"),
            ("train", "--data", "missing", "--out", "other/m.ckpt"),
            (
                "gen-data", "--scenario", "reggrid-fixed", "--n-train", "0",
                "--n-val", "0", "--n-test", "0", "--out", "third/ds",
            ),
        ],
        ids=["unknown-scenario", "missing-data", "no-samples"],
    )
    def test_failed_command_creates_no_directory(
        self, run_cli, tmp_path, monkeypatch, argv
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETTWIN_OUT", raising=False)
        assert run_cli(*argv) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t_gen", ["nan", "inf"])
    def test_non_finite_t_gen_is_usage_error(self, run_cli, tmp_path, monkeypatch, t_gen):
        def never(*args, **kwargs):
            raise AssertionError("simulated with a non-finite t_gen")

        monkeypatch.setattr(pipeline, "run_benchmarks", never)
        out = tmp_path / "ds"
        argv = ["gen-data", "--scenario", "reggrid-fixed", *TINY_GEN, "--out", str(out)]
        assert run_cli(*argv, "--t-gen", t_gen) == 2
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -2, cli.MAX_JOBS + 1])
    def test_jobs_out_of_range_is_usage_error(
        self, run_cli, tmp_path, capsys, monkeypatch, jobs
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"gen-data went on with --jobs {jobs}")

        # neither a worker pool nor a serial sample may start
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", never)
        monkeypatch.setattr(pipeline, "run_benchmarks", never)
        out = tmp_path / "ds"
        argv = ["gen-data", "--scenario", "reggrid-fixed", *TINY_GEN, "--out", str(out)]
        assert run_cli(*argv, "--jobs", str(jobs)) == 2
        captured = capsys.readouterr()
        assert f"--jobs must be between 1 and {cli.MAX_JOBS}, got {jobs}" in captured.err
        assert captured.out == ""  # not even the resolved config
        assert not out.exists()

    def test_absurd_split_size_is_usage_error(self, run_cli, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("generated a dataset of 10**30 samples")

        monkeypatch.setattr(cli, "generate_dataset", never)
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"scenario": "reggrid-fixed", "n_train": 10**30}))
        out = tmp_path / "ds"
        assert run_cli("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        assert "n_train must be below 100000" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_manifest_with_nan_t_gen_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys
    ):
        data = tmp_path / "ds"
        shutil.copytree(toy_dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["sim_config"]["t_gen"] = math.nan
        (data / "manifest.json").write_text(json.dumps(manifest))
        assert run_cli("inspect", "--data", str(data)) == 2
        assert "bad sim_config" in capsys.readouterr().err

    def test_out_root_env(self, run_cli, tmp_path, monkeypatch):
        monkeypatch.setenv("NETTWIN_OUT", str(tmp_path))
        assert run_cli("gen-data", "--scenario", "reggrid-fixed", *TINY_GEN,
                       "--out", "nested/ds") == 0
        assert (tmp_path / "nested" / "ds" / "manifest.json").is_file()


@pytest.fixture(scope="module")
def trained(tmp_path_factory, toy_dataset_dir):
    """One short CLI training run shared by the read-only tests."""
    from nettwin.cli import main

    out = tmp_path_factory.mktemp("train") / "model.ckpt"
    code = main([
        "train", "--data", toy_dataset_dir, "--out", str(out),
        "--epochs", "2", "--batch-size", "4", "--seed", "0",
    ])
    assert code == 0
    return out


class TestTrain:
    def test_writes_checkpoint_and_state(self, trained):
        assert trained.is_file()
        assert trained.with_name(trained.name + ".state").is_file()
        params, manifest, adam = load_checkpoint(trained)
        assert adam is None  # the best snapshot carries no optimizer state
        assert manifest["kind"] == "glance"
        assert manifest["strategy"] == "mtl"
        assert manifest["epochs_run"] == 2
        assert manifest["dataset"]["scenario"] == "reggrid-fixed"
        assert manifest["train_config"]["lr"] == 5e-4  # scenario default
        assert "clean_report" in manifest
        _, state_manifest, state_adam = load_checkpoint(
            trained.with_name(trained.name + ".state")
        )
        assert state_adam is not None
        assert len(state_manifest["history"]) == 2

    def test_rerun_is_byte_identical(self, run_cli, tmp_path, toy_dataset_dir):
        out = tmp_path / "m.ckpt"
        argv = [
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--epochs", "1", "--batch-size", "4", "--seed", "3",
        ]
        assert run_cli(*argv) == 0
        ckpt = out.read_bytes()
        state = out.with_name(out.name + ".state").read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == ckpt
        assert out.with_name(out.name + ".state").read_bytes() == state

    def test_resume_matches_single_run(self, run_cli, tmp_path, toy_dataset_dir):
        kw = ["--data", toy_dataset_dir, "--batch-size", "4", "--seed", "1"]
        a = tmp_path / "a.ckpt"
        assert run_cli("train", *kw, "--out", str(a), "--epochs", "3") == 0
        b = tmp_path / "b.ckpt"
        assert run_cli("train", *kw, "--out", str(b), "--epochs", "2") == 0
        assert run_cli("train", *kw, "--out", str(b), "--epochs", "3", "--resume") == 0

        pa, ma, _ = load_checkpoint(a)
        pb, mb, _ = load_checkpoint(b)
        assert pa.names() == pb.names()
        for name in pa.names():
            assert pa[name].tobytes() == pb[name].tobytes()
        assert ma["best_val"] == mb["best_val"]
        assert ma["best_epoch"] == mb["best_epoch"]
        assert mb["epochs_run"] == 3

    def test_cv_champion_without_state(self, run_cli, tmp_path, toy_dataset_dir, capsys):
        out = tmp_path / "cv.ckpt"
        assert run_cli(
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--epochs", "1", "--batch-size", "4", "--folds", "2", "--cv",
        ) == 0
        assert out.is_file()
        assert not out.with_name(out.name + ".state").exists()
        _, manifest, _ = load_checkpoint(out)
        assert manifest["cv"]["folds"] == 2
        assert manifest["cv"]["best_fold"] in (0, 1)

    def test_cv_with_one_fold_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("cross-validated with one fold")

        monkeypatch.setattr(cli, "cross_validate", never)
        out = tmp_path / "out" / "cv.ckpt"
        assert run_cli(
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--epochs", "1", "--folds", "1", "--cv",
        ) == 2
        captured = capsys.readouterr()
        assert "folds must be at least 2, got 1" in captured.err
        assert captured.out == ""  # not even the resolved config
        assert not (tmp_path / "out").exists()

    def test_cv_resume_conflict(self, run_cli, tmp_path, toy_dataset_dir):
        assert run_cli(
            "train", "--data", toy_dataset_dir, "--out", str(tmp_path / "x"),
            "--epochs", "1", "--cv", "--resume",
        ) == 2

    def test_transfer_strategy(self, run_cli, tmp_path, toy_dataset_dir):
        out = tmp_path / "tl.ckpt"
        assert run_cli(
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--strategy", "tl", "--target-task", "throughput",
            "--epochs", "1", "--batch-size", "4",
        ) == 0
        _, manifest, _ = load_checkpoint(out)
        assert manifest["strategy"] == "tl"
        assert manifest["tasks"] == ["throughput"]

    def test_curves_csv(self, run_cli, tmp_path, toy_dataset_dir):
        out = tmp_path / "m.ckpt"
        curves = tmp_path / "curves.csv"
        assert run_cli(
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--epochs", "1", "--batch-size", "4", "--curves", str(curves),
        ) == 0
        lines = curves.read_text().splitlines()
        assert lines[0].startswith("epoch,fold,split,loss_total,loss_")
        assert len(lines) == 1 + 2  # one epoch, train and val rows

    def test_route_over_missing_link_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys
    ):
        copy_with_missing_link(toy_dataset_dir, tmp_path / "bad")
        assert run_cli(
            "train", "--data", str(tmp_path / "bad"), "--out", str(tmp_path / "x")
        ) == 2
        assert "missing-link" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_truncated_dataset_line_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys
    ):
        copy_with_truncated_line(toy_dataset_dir, tmp_path / "bad", "train", 3)
        assert run_cli(
            "train", "--data", str(tmp_path / "bad"), "--out", str(tmp_path / "x")
        ) == 2
        assert "train.jsonl line 3: truncated" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_record_field_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys
    ):
        copy_with_edited_record(
            toy_dataset_dir, tmp_path / "bad", lambda r: r.pop("routing_seed")
        )
        assert run_cli(
            "train", "--data", str(tmp_path / "bad"), "--out", str(tmp_path / "x")
        ) == 2
        assert "train.jsonl line 1: 'routing_seed' is missing" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_record_field_of_wrong_type_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys
    ):
        copy_with_edited_record(
            toy_dataset_dir, tmp_path / "bad", lambda r: r.update(sources=3)
        )
        assert run_cli(
            "train", "--data", str(tmp_path / "bad"), "--out", str(tmp_path / "x")
        ) == 2
        assert "train.jsonl line 1: 'sources' must be a list, not 3" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r["paths"][0].__setitem__(0, [0, 1, 2]),
             "'paths[0][0]' must have length 2, not 3"),
            (lambda r: r["paths"][0].__setitem__(0, ["a", 1]),
             "'paths[0][0][0]' must be an integer, not \"a\""),
            (lambda r: r["paths"][0].__setitem__(0, [0]),
             "'paths[0][0]' must have length 2, not 1"),
            (
                lambda r: r["runs"][0]["kpis"][0].__setitem__(1, [1.0]),
                "'runs[0].kpis[0][1]' must be a number or null, not [1.0]",
            ),
        ],
        ids=["link-triple", "link-letter", "link-single", "kpi-list"],
    )
    def test_malformed_route_or_kpi_cell_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys, edit, message
    ):
        copy_with_edited_record(toy_dataset_dir, tmp_path / "bad", edit)
        assert run_cli(
            "train", "--data", str(tmp_path / "bad"), "--out", str(tmp_path / "x")
        ) == 2
        assert f"train.jsonl line 1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_data_dir(self, run_cli, tmp_path):
        assert run_cli(
            "train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "x")
        ) == 2

    def test_resume_state_with_wrong_shapes_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys
    ):
        out = tmp_path / "m.ckpt"
        base = [
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--epochs", "1", "--batch-size", "4",
        ]
        assert run_cli(*base) == 0
        state_path = out.with_name(out.name + ".state")
        params, manifest, adam = load_checkpoint(state_path)
        cut = ParamSet({n: a[1:] if n == "gru/w_z" else a for n, a in params.items()})
        save_checkpoint(state_path, cut, manifest, adam)
        before = out.read_bytes()
        assert run_cli(*base[:-2], "--epochs", "2", "--resume") == 2
        assert "checkpoint parameter 'gru/w_z' has shape" in capsys.readouterr().err
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda adam: adam["m"].pop("egc/w"),
             "checkpoint parameter 'egc/w' has no Adam 'm'"),
            # a moment of the right size but another shape would misalign
            # every later parameter's in the flat buffer
            (lambda adam: adam["v"]["link/w1"].update(
                shape=[math.prod(adam["v"]["link/w1"]["shape"])]
            ), "checkpoint parameter 'link/w1' has shape"),
            (lambda adam: adam.update(step=-3),
             "Adam step must be a non-negative integer, got -3"),
        ],
        ids=["moment-lacks-parameter", "moment-of-same-size", "negative-step"],
    )
    def test_resume_state_with_bad_adam_layout_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys, edit, message
    ):
        out = tmp_path / "m.ckpt"
        base = ["train", "--data", toy_dataset_dir, "--out", str(out), "--batch-size", "4"]
        assert run_cli(*base, "--epochs", "1") == 0
        state_path = out.with_name(out.name + ".state")
        payload = json.loads(state_path.read_text())
        edit(payload["adam"])
        state_path.write_text(json.dumps(payload, sort_keys=True) + "\n")
        before = read_tree(tmp_path)
        capsys.readouterr()
        assert run_cli(*base, "--epochs", "2", "--resume") == 2
        assert message in capsys.readouterr().err
        assert read_tree(tmp_path) == before

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lr", "nan", "lr must be positive and finite, got nan"),
            ("--lr", "inf", "lr must be positive and finite, got inf"),
            ("--l2-link", "nan", "l2_link must be non-negative and finite, got nan"),
            ("--l2-link", "-1", "l2_link must be non-negative and finite, got -1.0"),
            ("--l2-readout", "inf", "l2_readout must be non-negative and finite, got inf"),
        ],
    )
    def test_bad_lr_or_l2_is_usage_error_before_training(
        self, run_cli, tmp_path, toy_dataset_dir, monkeypatch, capsys, flag, value, message
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"training ran with {flag} {value}")

        monkeypatch.setattr(cli, "run_strategy", never)
        out = tmp_path / "out" / "m.ckpt"
        assert run_cli(
            "train", "--data", toy_dataset_dir, "--out", str(out), "--epochs", "1",
            flag, value,
        ) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""  # not even the resolved config
        assert not (tmp_path / "out").exists()

    def test_poisoned_resume_state_is_numerical_failure(
        self, run_cli, tmp_path, toy_dataset_dir
    ):
        out = tmp_path / "m.ckpt"
        base = [
            "train", "--data", toy_dataset_dir, "--out", str(out),
            "--epochs", "1", "--batch-size", "4",
        ]
        assert run_cli(*base) == 0
        state_path = out.with_name(out.name + ".state")
        params, manifest, adam = load_checkpoint(state_path)
        for name in params.names():
            params[name] = np.full_like(params[name], np.nan)
        save_checkpoint(state_path, params, manifest, adam)
        assert run_cli(*base[:-2], "--epochs", "2", "--resume") == 3


class TestEval:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: ParamSet({n: a[1:] if n == "gru/w_z" else a for n, a in p.items()}),
             "checkpoint parameter 'gru/w_z' has shape"),
            (lambda p: ParamSet({n: a for n, a in p.items() if n != "egc/w"}),
             "checkpoint lacks parameter 'egc/w'"),
        ],
        ids=["cut-row", "missing"],
    )
    def test_malformed_checkpoint_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys, edit, message
    ):
        ckpt = tmp_path / "bad.ckpt"
        write_ckpt(ckpt)
        params, manifest, _ = load_checkpoint(ckpt)
        save_checkpoint(ckpt, edit(params), manifest)
        out = tmp_path / "report.json"
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--checkpoint", str(ckpt), "--out", str(out)
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["dims"].update(d_edge=4), "'dims.d_edge' is not a field of this file"),
            (lambda m: m.pop("kind"), "'kind' is missing"),
            (lambda m: m.update(dims=[4, 4]), "'dims' must be an object, not [4, 4]"),
        ],
        ids=["unknown-dims-key", "no-kind", "dims-not-object"],
    )
    def test_malformed_manifest_is_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys, edit, message
    ):
        ckpt = tmp_path / "bad.ckpt"
        write_ckpt(ckpt)
        params, manifest, _ = load_checkpoint(ckpt)
        edit(manifest)
        save_checkpoint(ckpt, params, manifest)
        out = tmp_path / "report.json"
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--checkpoint", str(ckpt), "--out", str(out)
        ) == 2
        assert f"bad.ckpt: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, key, message",
        [
            ("glance", "d_node", "checkpoint parameter 'gru/w_z' has shape"),
            ("gnn", "channels", "checkpoint parameter 'gcn/w0' has shape"),
            ("gnn", "n_layers", "checkpoint lacks parameter 'gcn/w1'"),
        ],
    )
    def test_oversized_dims_are_usage_error(
        self, run_cli, tmp_path, toy_dataset_dir, capsys, kind, key, message
    ):
        # the dims are checked against the stored shapes before any array
        # of their size is asked for
        ckpt = tmp_path / "bad.ckpt"
        write_ckpt(ckpt, kind=kind)
        params, manifest, _ = load_checkpoint(ckpt)
        manifest["dims"][key] = 10**12
        save_checkpoint(ckpt, params, manifest)
        out = tmp_path / "report.json"
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--checkpoint", str(ckpt), "--out", str(out)
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_zero_model_report_matches_library(
        self, run_cli, tmp_path, toy_dataset_dir, toy_dataset, capsys
    ):
        ckpt = tmp_path / "zero.ckpt"
        model = write_ckpt(ckpt, zero=True)
        out = tmp_path / "report.json"
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--out", str(out),
        ) == 0
        report = json.loads(out.read_text())
        assert set(report["rows"]) == {
            "glance", "naive_median", "naive_mean",
            "simbase_1", "simbase_2", "simbase_3",
        }
        cleaned, _ = filter_and_impute(toy_dataset)
        expected = evaluate_model(model, cleaned["test"], CKPT_NORM)
        for task in TASKS:
            assert report["rows"]["glance"][task] == pytest.approx(expected[task])
        assert report["n_test_samples"] == len(cleaned["test"])
        assert report["iqr"]["delay"] == 2.0  # first checkpoint's normalizer
        summary = stdout_objects(capsys)[-1]
        assert summary["report"] == str(out)

    def test_row_names_disambiguate(self, run_cli, tmp_path, toy_dataset_dir):
        plain = tmp_path / "a.ckpt"
        write_ckpt(plain)
        stl = tmp_path / "b.ckpt"
        write_ckpt(
            stl, tasks=("delay",),
            config=TrainConfig(strategy="stl", target_task="delay", epochs=1),
        )
        out = tmp_path / "report.json"
        assert run_cli(
            "eval", "--data", toy_dataset_dir,
            "--checkpoint", str(plain), "--checkpoint", str(plain),
            "--checkpoint", str(stl), "--out", str(out),
        ) == 0
        rows = json.loads(out.read_text())["rows"]
        assert {"glance", "glance-2", "glance-stl-delay"} <= set(rows)

    def test_checkpoint_scenario_must_match(self, run_cli, tmp_path, toy_dataset_dir):
        ckpt = tmp_path / "other.ckpt"
        write_ckpt(ckpt, scenario="nsfnet-fixed")
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--out", str(tmp_path / "r.json"),
        ) == 2

    def test_requires_a_checkpoint(self, run_cli, tmp_path, toy_dataset_dir):
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--out", str(tmp_path / "r.json")
        ) == 2

    def test_checkpoints_from_config_file(self, run_cli, tmp_path, toy_dataset_dir):
        ckpt = tmp_path / "a.ckpt"
        write_ckpt(ckpt)
        out = tmp_path / "report.json"
        assert run_cli(
            "eval", "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--checkpoint", str(ckpt), "--out", str(out),
        ) == 0
        by_flags = out.read_bytes()
        out.unlink()
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"checkpoints": [str(ckpt), str(ckpt)]}))
        assert run_cli(
            "eval", "--config", str(cfg), "--data", toy_dataset_dir, "--out", str(out)
        ) == 0
        assert out.read_bytes() == by_flags

    def test_benchmark_rows(self, run_cli, tmp_path, toy_dataset_dir, toy_dataset):
        out = tmp_path / "bench.json"
        assert run_cli("benchmark", "--data", toy_dataset_dir, "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert set(report["rows"]) == {
            "naive_median", "naive_mean", "simbase_1", "simbase_2", "simbase_3",
        }
        cleaned, _ = filter_and_impute(toy_dataset)
        norm = fit_normalizer(cleaned["train"])
        expected = simbase_rows(cleaned["test"], norm)
        assert report["rows"]["simbase_1"]["delay"] == pytest.approx(
            expected["simbase_1"]["delay"]
        )


@pytest.fixture(scope="module")
def manage_ckpt(tmp_path_factory):
    path = tmp_path_factory.mktemp("manage") / "twin.ckpt"
    write_ckpt(path, seed=4)
    return path


class TestManage:
    def test_manage_traffic_report(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt, capsys
    ):
        out = tmp_path / "mt.json"
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(out),
            "--max-iters", "5",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "traffic"
        assert len(payload["optimized_traffic"]) == 10
        assert payload["optimized_destinations"] is None
        assert len(payload["trajectory"]) >= 1
        assert payload["k_targ"] is None  # no --verify
        assert payload["sample"]["split"] == "test"
        assert len(payload["eval_seeds"]) == 9
        summary = stdout_objects(capsys)[-1]
        assert summary["objective"] == payload["trajectory"][-1]

    def test_manage_traffic_rerun_byte_identical(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt
    ):
        out = tmp_path / "mt.json"
        argv = [
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(out),
            "--max-iters", "3",
        ]
        assert run_cli(*argv) == 0
        first = out.read_bytes()
        assert run_cli(*argv) == 0
        assert out.read_bytes() == first

    def test_trajectory_csv(self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt):
        out = tmp_path / "mt.json"
        traj = tmp_path / "traj.csv"
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(out),
            "--max-iters", "3", "--trajectory", str(traj),
        ) == 0
        lines = traj.read_text().splitlines()
        assert lines[0] == "step,objective"
        assert len(lines) >= 2

    def test_manage_flows_report(
        self, run_cli, tmp_path, toy_dataset_dir, toy_dataset, manage_ckpt
    ):
        out = tmp_path / "mf.json"
        assert run_cli(
            "manage-flows", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(out),
            "--n-init", "3", "--n-restarts", "1",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "destinations"
        assert payload["optimized_traffic"] is None
        dests = payload["optimized_destinations"]
        sources = toy_dataset.splits["test"][0].flows.sources
        assert len(dests) == 10
        assert all(d != s for d, s in zip(dests, sources))
        assert payload["restart_best"] == 0
        assert payload["converged"] is True

    def test_kpi_subset_recorded(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt, capsys
    ):
        out = tmp_path / "mt.json"
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(out),
            "--max-iters", "2", "--kpi", "delay", "--kpi", "jitter",
        ) == 0
        resolved = stdout_objects(capsys)[0]["resolved_config"]
        assert resolved["kpi"] == ["delay", "jitter"]

    def test_unknown_kpi_rejected_by_parser(self, run_cli, toy_dataset_dir, manage_ckpt):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "manage-traffic", "--data", toy_dataset_dir,
                "--checkpoint", str(manage_ckpt), "--out", "x.json",
                "--kpi", "latency",
            )
        assert exc.value.code == 2

    def test_sample_index_out_of_range(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt
    ):
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(tmp_path / "x.json"),
            "--sample-index", "99",
        ) == 2

    def test_verify_fills_protocol_fields(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt
    ):
        out = tmp_path / "mt.json"
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--out", str(out),
            "--max-iters", "2", "--verify",
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["k_targ"] is not None
        assert payload["k_bm"] is not None
        assert payload["k_gen"] is not None
        assert set(payload["hinge_failures"]) == set(TASKS)
        assert "pooled" in payload["eps_gen"]
        assert "pooled" in payload["r2"]

    def test_nan_checkpoint_is_numerical_failure(
        self, run_cli, tmp_path, toy_dataset_dir
    ):
        ckpt = tmp_path / "nan.ckpt"
        model = write_ckpt(ckpt)
        params, manifest, _ = load_checkpoint(ckpt)
        for name in params.names():
            params[name] = np.full_like(params[name], np.nan)
        save_checkpoint(ckpt, params, manifest)
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir,
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "x.json"),
        ) == 3

    def test_missing_out_fails_before_any_work(
        self, run_cli, toy_dataset_dir, manage_ckpt, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("the solver ran without --out")

        monkeypatch.setattr(cli, "hillclimb_destinations", never)
        assert run_cli(
            "manage-flows", "--data", toy_dataset_dir,
            "--checkpoint", str(manage_ckpt), "--verify",
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not even the resolved config
        assert "--out is required" in captured.err

    def test_gnn_rejected_by_manage_traffic_before_any_work(
        self, run_cli, tmp_path, toy_dataset_dir, monkeypatch, capsys
    ):
        ckpt = tmp_path / "gnn.ckpt"
        write_ckpt(ckpt, kind="gnn")
        sims = []
        real_run_sim = manage.run_sim

        def counted(*args, **kwargs):
            sims.append(1)
            return real_run_sim(*args, **kwargs)

        monkeypatch.setattr(manage, "run_sim", counted)
        out = tmp_path / "out" / "mt.json"
        assert run_cli(
            "manage-traffic", "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--out", str(out), "--trajectory", str(tmp_path / "out" / "mt.csv"),
        ) == 2
        captured = capsys.readouterr()
        assert "gnn baseline has no traffic input" in captured.err
        assert captured.out == ""  # not even the resolved config
        assert sims == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("manage-traffic", "--alpha0", "nan", "alpha0 must be positive and finite, got nan"),
            ("manage-traffic", "--alpha0", "inf", "alpha0 must be positive and finite, got inf"),
            ("manage-traffic", "--alpha0", "-1", "alpha0 must be positive and finite, got -1.0"),
            ("manage-traffic", "--alpha0", "0", "alpha0 must be positive and finite, got 0.0"),
            ("manage-traffic", "--max-iters", "-3", "max_iters must be non-negative, got -3"),
            ("manage-flows", "--n-init", "0", "must be positive, got 0 and 5"),
            ("manage-flows", "--n-restarts", "0", "must be positive, got 100 and 0"),
        ],
    )
    def test_bad_solver_setting_rejected_before_simulating(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt, monkeypatch, capsys,
        command, flag, value, message,
    ):
        sims = []
        real_run_sim = manage.run_sim

        def counted(*args, **kwargs):
            sims.append(1)
            return real_run_sim(*args, **kwargs)

        monkeypatch.setattr(manage, "run_sim", counted)
        out = tmp_path / "out" / "m.json"
        assert run_cli(
            command, "--data", toy_dataset_dir, "--checkpoint", str(manage_ckpt),
            "--out", str(out), "--verify", flag, value,
        ) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""  # not even the resolved config
        assert sims == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["manage-traffic", "manage-flows"])
    def test_unpredicted_kpi_rejected_before_simulating(
        self, run_cli, tmp_path, toy_dataset_dir, monkeypatch, capsys, command
    ):
        ckpt = tmp_path / "delay.ckpt"
        write_ckpt(
            ckpt, tasks=("delay",),
            config=TrainConfig(epochs=1, strategy="stl", target_task="delay"),
        )
        sims = []
        real_run_sim = manage.run_sim

        def counted(*args, **kwargs):
            sims.append(1)
            return real_run_sim(*args, **kwargs)

        monkeypatch.setattr(manage, "run_sim", counted)
        out = tmp_path / "out" / "m.json"
        assert run_cli(
            command, "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--out", str(out), "--verify", "--kpi", "jitter",
        ) == 2
        captured = capsys.readouterr()
        assert "objective needs tasks ['jitter'] the model does not predict" in captured.err
        assert captured.out == ""  # not even the resolved config
        assert sims == []
        assert not (tmp_path / "out").exists()

    def test_checkpoint_scenario_mismatch(self, run_cli, tmp_path, toy_dataset_dir):
        ckpt = tmp_path / "other.ckpt"
        write_ckpt(ckpt, scenario="nsfnet-fixed")
        assert run_cli(
            "manage-flows", "--data", toy_dataset_dir,
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "x.json"),
        ) == 2


class TestPathBound:
    """A checkpoint whose l_max is below the dataset's longest path."""

    @pytest.mark.parametrize(
        "command, solver",
        [("eval", []), ("manage-flows", ["--n-init", "2", "--n-restarts", "1"])],
    )
    def test_overlong_path_is_usage_error(
        self, run_cli, tmp_path, toy_dataset, toy_dataset_dir, capsys, command, solver
    ):
        longest = max(len(p.links) for s in toy_dataset.splits["test"] for p in s.table.paths)
        assert longest == 3 > TINY_DIMS.l_max
        ckpt = tmp_path / "short.ckpt"
        write_ckpt(ckpt, dims=TINY_DIMS)
        out = tmp_path / "out" / "report.json"
        assert run_cli(
            command, "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--out", str(out), *solver,
        ) == 2
        assert "exceeding l_max=2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, reason",
        [("manage-traffic", "a path of 3 links"),
         ("manage-flows", "a source whose farthest node is 3 links")],
        ids=["traffic", "flows"],
    )
    def test_manage_rejects_before_simulating(
        self, run_cli, tmp_path, toy_dataset_dir, monkeypatch, capsys, command, reason
    ):
        ckpt = tmp_path / "short.ckpt"
        write_ckpt(ckpt, dims=TINY_DIMS)
        sims = []
        real_run_sim = manage.run_sim

        def counted(*args, **kwargs):
            sims.append(1)
            return real_run_sim(*args, **kwargs)

        monkeypatch.setattr(manage, "run_sim", counted)
        out = tmp_path / "out" / "m.json"
        assert run_cli(
            command, "--data", toy_dataset_dir, "--checkpoint", str(ckpt),
            "--out", str(out), "--verify",
        ) == 2
        captured = capsys.readouterr()
        assert f"{reason}, exceeding l_max=2" in captured.err
        assert captured.out == ""  # not even the resolved config
        assert sims == []
        assert not (tmp_path / "out").exists()


#: SHA-256 of every file a tiny `gen-data` writes, relative paths, taken when
#: routing still walked every flow afresh on every call; the routing tables
#: sit in each record's ``paths``
GEN_DATA_DIGESTS = {
    "nsfnet-fixed": {
        "manifest.json": (
            "e9d8406233277467936440363b2e6278a7d57eb1b85868c7e622ec68fd0059a2"
        ),
        "resolved_config.json": (
            "c5d91f2255fb02bb0382a908edcd49fe31588f65b2b7b09e989f22781242d64f"
        ),
        "test.jsonl": (
            "2797615f8efdd72d8feb27cd8c0d37064738e18c2940c536cf492e426dafc8dd"
        ),
        "topology.json": (
            "82be5284d2db6fd8b6558de77b1e16f3e28a1e7f376584e437df48e75a5883c3"
        ),
        "train.jsonl": (
            "4368d7433e02d485c5b1305f3ec013947280612874859e5eb42d440e4c294500"
        ),
        "val.jsonl": (
            "e1e41cc03e86b4692623bca6d1a494ff2ba9d5d524e7f1053c714bd9fea54960"
        ),
    },
    "pertgrid-randtopo": {
        "manifest.json": (
            "1a05a73a7dfc10f300e44889b69ebafa6fe51a5b81ca7e09820f0a87d3d46b7d"
        ),
        "resolved_config.json": (
            "3c892b0a8db0ff19bca98ebb7cad74f6b315e32f9319c1a4d68294364640434a"
        ),
        "test.jsonl": (
            "c1fdd5fd87ecd03c62133012a81ce1d4cbd63e1df01e98a311351b72b0bf7466"
        ),
        "topologies/test_00000.json": (
            "0d9b89d294845d3d2d8bd2c0297478458baefe5422a1d8fc6ab19c821e1deaac"
        ),
        "topologies/train_00000.json": (
            "ddea6a12c2dcf0d22b461b6fd50c88d702fc393f7bf1dfa0c98732489018e744"
        ),
        "topologies/train_00001.json": (
            "90c392653e09faa8ec47059598b07822e9cf023d130acad72a25a328a68e3964"
        ),
        "topologies/val_00000.json": (
            "e33dfc6a8c0d7472942d985636bd1e0297af1935656319993dd489e895fb8ac9"
        ),
        "train.jsonl": (
            "5281fbcaa2d20f6b9ea718ca889bce2783c56cc415ffe6677d3561b84be67e5f"
        ),
        "val.jsonl": (
            "90671c482a1965c602d00ff4a3949195f207c67425061c2790a28f0477b03630"
        ),
    },
    "reggrid-fixed": {
        "manifest.json": (
            "9a15bd0736f76e26379f6409917bbe8b68abdc7a2549d0b837fa4bf97627d650"
        ),
        "resolved_config.json": (
            "5fb837409835663f69aac9b5d05e6ba46eae7c43c0d085ae4323c4ecc06c11ca"
        ),
        "test.jsonl": (
            "b83aa58f78305eca870fc09c811221ce2f1c7287b5b3bf0ff99f02c7cea0333c"
        ),
        "topology.json": (
            "8e7159b48d1fea14eb33987d4be74fe2fd63db3a0d84c735141fea5934938d57"
        ),
        "train.jsonl": (
            "f9aafd5d80d5811e2922aa84792f7e75d1a1eae18e11a598662154482bff094d"
        ),
        "val.jsonl": (
            "43ce247bd86136d931302ffcfb0bd2a4403a01249c2ff58567e769d7cc605195"
        ),
    },
}

class TestGenDataDigests:
    @pytest.mark.parametrize("scenario", sorted(GEN_DATA_DIGESTS))
    def test_dataset_keeps_its_bytes(self, run_cli, tmp_path, monkeypatch, scenario):
        # relative paths: resolved_config.json records them
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETTWIN_OUT", raising=False)
        assert run_cli("gen-data", "--scenario", scenario, *TINY_GEN, "--out", "ds") == 0
        got = {
            name: hashlib.sha256(data).hexdigest()
            for name, data in read_tree(tmp_path / "ds").items()
        }
        assert got == GEN_DATA_DIGESTS[scenario]


#: SHA-256 of the manage reports and trajectories of TestManageDigests,
#: taken when the hill-climb still scored every candidate on its own tape
#: and gradient descent ran a second forward at each accepted point
MANAGE_DIGESTS = {
    "nsfnet-fixed": {
        "mf.csv": "30ae037f540eaaf4eec82dcba00092ed9a651e2db796bf511a3a42b63da685fd",
        "mf.json": "5f378aebbe0c07f5bc4e4300e7bca62f2ed8ca17a24a0b2debe81933efbc02eb",
        "mt.csv": "70b4d427cb033af8b6842b4f13760269de826c150d4a9b5a02acaa7eea348112",
        "mt.json": "183e1400d55884160015e5d0e3db08c462050dcbafad194613ed24baaa011dfc",
    },
    "reggrid-fixed": {
        "mf.csv": "a108b4861f283165ffd4fff44492e6bd2206f0876f2891551a0418704d05817a",
        "mf.json": "69e62014ac187a1bf74c04a6b41bd9dc6ac7fcf7e9032b42f403b2deeb190e95",
        "mt.csv": "6f9d6616395ff8a65065c07519315eef9a67256e9bc740786e725dd5a832da91",
        "mt.json": "14ab97b3d036be43e11bc3457b7b9ce36aa958fba7344630a6975d187dc51a11",
    },
}


class TestManageDigests:
    @pytest.mark.parametrize("scenario", sorted(MANAGE_DIGESTS))
    def test_outputs_keep_their_bytes(self, run_cli, tmp_path, monkeypatch, scenario):
        # relative paths: the resolved config in each report records them
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETTWIN_OUT", raising=False)
        assert run_cli(
            "gen-data", "--scenario", scenario, "--n-train", "1", "--n-val", "1",
            "--n-test", "1", "--n-r-test", "2", "--n-flows", "8", "--t-gen", "2.0",
            "--seed", "9", "--out", "ds",
        ) == 0
        write_ckpt("twin.ckpt", seed=4)
        common = ["--data", "ds", "--checkpoint", "twin.ckpt", "--seed", "2", "--verify"]
        assert run_cli(
            "manage-flows", *common, "--n-init", "6", "--n-restarts", "2",
            "--out", "mf.json", "--trajectory", "mf.csv",
        ) == 0
        assert run_cli(
            "manage-traffic", *common, "--max-iters", "30", "--alpha0", "1.0",
            "--out", "mt.json", "--trajectory", "mt.csv",
        ) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("mf.json", "mf.csv", "mt.json", "mt.csv")
        }
        for name in ("mf.csv", "mt.csv"):  # both solvers moved
            assert len((tmp_path / name).read_text().splitlines()) > 3
        assert got == MANAGE_DIGESTS[scenario]


#: SHA-256 of the eval and benchmark reports of TestReportDigests, taken
#: when each command had a body of its own
REPORT_DIGESTS = {
    "bench.json": "80abcecb1d5e0ec7baeae039a40fdb620ec49d19365e20b87c9f81c43f50ac38",
    "eval.json": "45c745b92e42cb4dd3063d6db1b98ab58aa06a42b0b9c7588317dfbc1ef0a51d",
}


class TestReportDigests:
    def test_reports_keep_their_bytes(self, run_cli, tmp_path, monkeypatch):
        # relative paths: each report records its resolved config
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETTWIN_OUT", raising=False)
        gen = [*TINY_GEN, "--n-test", "2", "--n-r-test", "3", "--scenario", "reggrid-fixed"]
        assert run_cli("gen-data", *gen, "--out", "ds") == 0
        write_ckpt("a.ckpt", seed=4)
        write_ckpt("b.ckpt", seed=5)
        assert run_cli(
            "eval", "--data", "ds", "--checkpoint", "a.ckpt", "--checkpoint", "b.ckpt",
            "--out", "eval.json",
        ) == 0
        assert run_cli("benchmark", "--data", "ds", "--out", "bench.json") == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in REPORT_DIGESTS
        }
        assert got == REPORT_DIGESTS

    @pytest.mark.parametrize(
        "split, command, message",
        [
            ("--n-train", "benchmark", "benchmark needs a non-empty train split"),
            ("--n-test", "benchmark", "dataset has no usable test samples"),
            ("--n-test", "eval", "dataset has no usable test samples"),
            ("--n-train", "eval", None),  # eval scales by its checkpoint's IQR
        ],
    )
    def test_empty_split(self, run_cli, tmp_path, capsys, split, command, message):
        data, out = tmp_path / "ds", tmp_path / "report.json"
        gen = ["--scenario", "reggrid-fixed", *TINY_GEN, split, "0", "--out", str(data)]
        assert run_cli("gen-data", *gen) == 0
        argv = [command, "--data", str(data), "--out", str(out)]
        if command == "eval":
            write_ckpt(tmp_path / "a.ckpt")
            argv += ["--checkpoint", str(tmp_path / "a.ckpt")]
        capsys.readouterr()
        assert run_cli(*argv) == (0 if message is None else 2)
        if message is not None:
            assert message in capsys.readouterr().err
            assert not out.exists()


#: SHA-256 of the checkpoint and resume state of TestTrainDigests, taken
#: when each GRU step and dense layer was still composed from matmul, add,
#: mul, sub, sigmoid, tanh and relu nodes
TRAIN_DIGESTS = {
    "glance": {
        "m.ckpt": "cfa733f11d46a9febafc16e40a8eee6f71947c1821e0ba17f10ba76f7a88092e",
        "m.ckpt.state": "7e61d094599e01e74c28ffabfd2cefb63a29aa2254ac571f6129f88e78616f89",
    },
    "gnn": {
        "m.ckpt": "26bccc36e85b6abceef77e1eabfbe29afa52a685d93f5165b1414f206b7038e5",
        "m.ckpt.state": "b845a62f368a019ca198eb7431f121d7682e1ab97671ec78bdbdd7cb02698480",
    },
    "routenet": {
        "m.ckpt": "113819e412f99b2517b1b1810909513db2b963c9c58e64e5d4adcdaf2d1c9eb3",
        "m.ckpt.state": "53cdd43bae88d49f91163a041bd0ccae1e3ae4d5df466f5a01872095c50c169e",
    },
}


class TestTrainDigests:
    @pytest.mark.parametrize("kind", sorted(TRAIN_DIGESTS))
    def test_checkpoints_keep_their_bytes(self, run_cli, tmp_path, monkeypatch, kind):
        # relative paths: the manifest records the resolved config
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETTWIN_OUT", raising=False)
        gen = [*TINY_GEN, "--n-train", "4", "--scenario", "reggrid-fixed"]
        assert run_cli("gen-data", *gen, "--out", "ds") == 0
        assert run_cli(
            "train", "--data", "ds", "--out", "m.ckpt", "--model", kind,
            "--epochs", "2", "--batch-size", "2", "--seed", "1",
        ) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("m.ckpt", "m.ckpt.state")
        }
        assert got == TRAIN_DIGESTS[kind]


def test_parser_is_built_once_and_stays_usable(run_cli, toy_dataset_dir, capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        run_cli("inspect", "--no-such-flag")
    assert exc.value.code == 2
    assert run_cli("train") == 2  # a required option, checked after parsing
    assert "--data is required" in capsys.readouterr().err
    assert run_cli("inspect", "--data", toy_dataset_dir) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "dataset"
    assert cli.build_parser() is parser


class TestInspect:
    def test_dataset_summary(self, run_cli, toy_dataset_dir, capsys):
        assert run_cli("inspect", "--data", toy_dataset_dir) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "dataset"
        assert info["scenario"] == "reggrid-fixed"
        assert info["manifest"]["splits"] == {"train": 8, "val": 2, "test": 2}
        assert set(info["clean_report"]) == {"train", "val", "test"}

    def test_checkpoint_summary(self, run_cli, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        model = write_ckpt(ckpt)
        assert run_cli("inspect", "--checkpoint", str(ckpt)) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["kind"] == "checkpoint"
        assert info["model_kind"] == "glance"
        assert info["param_count"] == model.params.count()
        assert info["has_adam_state"] is False

    def test_malformed_manifest_is_usage_error(self, run_cli, tmp_path, capsys):
        # inspect checks a checkpoint's manifest as eval does
        ckpt = tmp_path / "bad.ckpt"
        model = write_ckpt(ckpt)
        save_checkpoint(ckpt, model.params, {"kind": 7, "tasks": "nope"})
        assert run_cli("inspect", "--checkpoint", str(ckpt)) == 2
        captured = capsys.readouterr()
        assert "bad.ckpt: 'kind'" in captured.err
        assert captured.out == ""

    def test_stdout_is_stable(self, run_cli, toy_dataset_dir, capsys):
        assert run_cli("inspect", "--data", toy_dataset_dir) == 0
        first = capsys.readouterr().out
        assert run_cli("inspect", "--data", toy_dataset_dir) == 0
        assert capsys.readouterr().out == first

    def test_requires_exactly_one_source(self, run_cli, toy_dataset_dir, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        write_ckpt(ckpt)
        assert run_cli("inspect") == 2
        assert run_cli("inspect", "--data", toy_dataset_dir, "--checkpoint", str(ckpt)) == 2


#: the flags each command needs besides the option under test
REQUIRED_FLAGS = {
    "train": ["--data", "d", "--out", "o"],
    "eval": ["--data", "d", "--out", "o"],
    "manage-traffic": ["--data", "d", "--checkpoint", "c", "--out", "o"],
    "manage-flows": ["--data", "d", "--checkpoint", "c", "--out", "o"],
}

#: one flag-only run per command; {out} holds every artifact it writes
ROUND_TRIP_ARGV = {
    "gen-data": ["--scenario", "reggrid-fixed", *TINY_GEN, "--out", "{out}/ds"],
    "train": [
        "--data", "{data}", "--out", "{out}/m.ckpt", "--model", "routenet",
        "--epochs", "1", "--lr", "0.01", "--curves", "{out}/c.csv",
    ],
    "eval": [
        "--data", "{data}", "--checkpoint", "{ckpt}", "--checkpoint", "{ckpt}",
        "--out", "{out}/e.json",
    ],
    "benchmark": ["--data", "{data}", "--out", "{out}/b.json"],
    "manage-traffic": [
        "--data", "{data}", "--checkpoint", "{ckpt}", "--max-iters", "3",
        "--alpha0", "0.5", "--kpi", "delay", "--verify",
        "--out", "{out}/mt.json", "--trajectory", "{out}/mt.csv",
    ],
    "manage-flows": [
        "--data", "{data}", "--checkpoint", "{ckpt}", "--split", "val",
        "--n-init", "2", "--n-restarts", "1",
        "--out", "{out}/mf.json", "--trajectory", "{out}/mf.csv",
    ],
}


class TestConfigFiles:
    @pytest.mark.parametrize(
        "command, accepted, rejected",
        [
            ("manage-flows", {"n_init": 3}, {"n_init": 2.9}),
            ("manage-flows", {"n_restarts": 2}, {"n_restarts": True}),
            ("manage-traffic", {"alpha0": 1}, {"alpha0": "0.5"}),
            ("manage-traffic", {"verify": False}, {"verify": "false"}),
            ("manage-traffic", {"kpi": ["delay", "drops"]}, {"kpi": ["latency"]}),
            ("eval", {"checkpoints": ["a.ckpt"]}, {"checkpoints": "a.ckpt"}),
            ("train", {"model": "gnn"}, {"model": "gcn"}),
            ("train", {"curves": "c.csv"}, {"curves": 5}),
            ("train", {"lr": None}, {"epochs": None}),
        ],
        ids=[
            "int", "int-not-bool", "float-takes-int", "store-true", "append-choices",
            "append-list", "string-choices", "string", "null-only-for-null-default",
        ],
    )
    def test_values_are_type_checked(
        self, run_cli, tmp_path, capsys, command, accepted, rejected
    ):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(accepted))
        argv = [command, "--config", str(cfg), *REQUIRED_FLAGS[command]]
        resolved = cli._resolve(cli.build_parser().parse_args(argv))
        for key, value in accepted.items():  # kept as written
            assert resolved[key] == value and type(resolved[key]) is type(value)

        cfg.write_text(json.dumps(rejected))
        assert run_cli(*argv) == 2
        [key] = rejected  # named, or its first element for a list option
        assert re.search(
            rf"{re.escape(str(cfg))}: '{key}(\[0\])?' must be", capsys.readouterr().err
        )

    @pytest.mark.parametrize("command", sorted(ROUND_TRIP_ARGV))
    def test_resolved_config_round_trips(
        self, run_cli, tmp_path, toy_dataset_dir, manage_ckpt, capsys, command
    ):
        """The echoed config, given back as --config alone, redoes the run."""
        out = tmp_path / "out"
        argv = [
            a.format(out=out, data=toy_dataset_dir, ckpt=manage_ckpt)
            for a in ROUND_TRIP_ARGV[command]
        ]
        assert run_cli(command, *argv) == 0
        resolved = stdout_objects(capsys)[0]["resolved_config"]
        by_flags = read_tree(out)
        shutil.rmtree(out)
        cfg = tmp_path / "resolved.json"
        cfg.write_text(json.dumps(resolved))
        assert run_cli(command, "--config", str(cfg)) == 0
        assert stdout_objects(capsys)[0]["resolved_config"] == resolved
        assert read_tree(out) == by_flags
