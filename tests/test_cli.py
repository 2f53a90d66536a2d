"""End-to-end command tests: exit codes, files written, reproducibility."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import copy_with_missing_link, copy_with_truncated_line
from nettwin.autodiff import AdamState, load_checkpoint, save_checkpoint
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
from nettwin.twin import GlanceDims, make_model

#: small but l_max=3 so grid paths from the toy dataset fit
CKPT_DIMS = GlanceDims(
    d_node=4, d_link=4, d_path=8, t_layers=1, l_max=3,
    link_hidden=(8,), readout_hidden=(8,),
)

CKPT_NORM = Normalizer(
    np.array([2.0, 1.0, 10.0, 1.0]), np.full(4, 1.0), np.full(4, 2.0)
)


def write_ckpt(path, *, seed=0, tasks=TASKS, config=None, zero=False, scenario=None):
    model = make_model("glance", tasks, seed, dims=CKPT_DIMS)
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

    def test_missing_data_dir(self, run_cli, tmp_path):
        assert run_cli(
            "train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "x")
        ) == 2

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

    def test_checkpoint_scenario_mismatch(self, run_cli, tmp_path, toy_dataset_dir):
        ckpt = tmp_path / "other.ckpt"
        write_ckpt(ckpt, scenario="nsfnet-fixed")
        assert run_cli(
            "manage-flows", "--data", toy_dataset_dir,
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "x.json"),
        ) == 2


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
