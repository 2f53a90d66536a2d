"""Every JSON artifact the package writes fits its schema, and every input
that does not is a usage error (exit 2) naming its file and field, before
any output is written."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nettwin import cli
from nettwin.autodiff import CHECKPOINT
from nettwin.fileio import ListOf, MapOf, OneOf, check_json
from nettwin.nettopo import TOPOLOGY
from nettwin.pipeline import (
    CHECKPOINT_MANIFESTS,
    DATASET_MANIFEST,
    RECORD,
    SCENARIOS,
    SPLITS,
    GenConfig,
    _generate_record,
    load_dataset,
)
from nettwin.twin import GlanceDims

SRC = Path(cli.__file__).parents[1]


@pytest.fixture(scope="module")
def trained(toy_dataset_dir, tmp_path_factory) -> Path:
    """A checkpoint trained for one epoch on the toy dataset, beside its
    .state file."""
    out = tmp_path_factory.mktemp("trained") / "m.ckpt"
    argv = ["train", "--data", toy_dataset_dir, "--out", str(out), "--epochs", "1"]
    assert cli.main([*argv, "--batch-size", "4"]) == 0
    return out


# -- the artifacts and their schemas --------------------------------------------

#: name -> (file, JSON-lines line or None, schema, how a failure names the file)
DATASET_FILES = {
    "manifest": ("manifest.json", None, DATASET_MANIFEST, "manifest.json"),
    "topology": ("topology.json", None, TOPOLOGY, "topology.json"),
    "train record": ("train.jsonl", 1, RECORD, "train.jsonl line 1"),
    "test record": ("test.jsonl", 1, RECORD, "test.jsonl line 1"),
}
STATE_MANIFEST = CHECKPOINT_MANIFESTS[GlanceDims]
CONFIG = cli._config_spec(cli.TRAIN_OPTIONS)
ARTIFACTS = [*DATASET_FILES, "checkpoint", "checkpoint manifest", "config"]


def read_artifact(name: str, data: Path, state: Path) -> tuple[object, dict]:
    """A valid artifact of the name, and its schema."""
    if name in DATASET_FILES:
        file, line, spec, _ = DATASET_FILES[name]
        text = (data / file).read_text()
        return json.loads(text.splitlines()[line - 1] if line else text), spec
    payload = json.loads(state.read_text())
    if name == "checkpoint":
        return payload, CHECKPOINT
    if name == "checkpoint manifest":
        return payload["manifest"], STATE_MANIFEST
    return payload["manifest"]["resolved_config"], CONFIG


def run_with(name: str, value, data: Path, state: Path) -> tuple[int, str, bool]:
    """Exit code, stderr and whether any output was written, of the command
    that reads the artifact of the name, once it holds value."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp, out = Path(tmp), Path(tmp) / "out" / "report.json"
        if name in DATASET_FILES:
            file, line, _, _ = DATASET_FILES[name]
            data = Path(shutil.copytree(data, tmp / "data"))
            if line:
                lines = (data / file).read_text().splitlines()
                lines[line - 1] = json.dumps(value)
                (data / file).write_text("\n".join(lines) + "\n")
            else:
                (data / file).write_text(json.dumps(value))
            argv = ["benchmark", "--data", str(data), "--out", str(out)]
        elif name == "config":  # its relative out goes under NETTWIN_OUT
            (tmp / "config.json").write_text(json.dumps(value))
            argv = ["train", "--config", str(tmp / "config.json")]
            os.environ["NETTWIN_OUT"] = str(tmp / "out")
        else:
            payload = json.loads(state.read_text())
            if name == "checkpoint":
                payload = value
            else:
                payload["manifest"] = value
            (tmp / "m.ckpt").write_text(json.dumps(payload))
            argv = ["eval", "--data", str(data), "--checkpoint", str(tmp / "m.ckpt")]
            argv += ["--out", str(out)]
        try:
            code, err = main_logged(argv, tmp / "log")
        finally:
            os.environ.pop("NETTWIN_OUT", None)
        return code, err, (tmp / "out").exists()


def main_logged(argv: list[str], log: Path) -> tuple[int, str]:
    """cli.main's exit code, and what it printed, run in this process."""
    saved = sys.stderr, sys.stdout
    with open(log, "w") as fh:
        sys.stderr = sys.stdout = fh
        try:
            code = cli.main(argv)
        finally:
            sys.stderr, sys.stdout = saved
    return code, log.read_text()


def where(name: str) -> str:
    """How the message for an artifact of the name names its file."""
    if name in DATASET_FILES:
        return DATASET_FILES[name][3]
    return "config.json" if name == "config" else "m.ckpt"


def field_text(path: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


# -- mutations ----------------------------------------------------------------------

#: a value of each JSON kind, one of which fails any schema
WRONG = ["zzz", 2.5, True, None, [], {}]


def kind(value) -> str:
    return {str: "string", float: "number", bool: "bool", type(None): "null",
            list: "list", dict: "object", int: "integer"}[type(value)]


def kinds(spec) -> set[str]:
    """The JSON kinds that spec accepts; none of WRONG is a choice of a OneOf."""
    if isinstance(spec, tuple):
        return kinds(spec[0]) | {"null"}
    if isinstance(spec, OneOf):
        return set()
    if isinstance(spec, (dict, MapOf)) or spec is dict:
        return {"object"}
    if isinstance(spec, (list, ListOf)) or spec is list:
        return {"list"}
    return {int: {"integer"}, float: {"integer", "number"}, bool: {"bool"},
            str: {"string"}}[spec]


def fields(spec, value, path=()):
    """(path, mutations) of each field under the top level of value: a wrong
    type for any, a wrong length for a list of fixed length, and removal for
    a required field of an object."""
    if isinstance(spec, tuple):
        if value is None:
            return
        spec = spec[0]
    if isinstance(spec, dict):
        parts = [(k.rstrip("?"), sub, not k.endswith("?")) for k, sub in spec.items()]
        parts = [(k, sub, required) for k, sub, required in parts if k in value]
    elif isinstance(spec, MapOf):
        parts = [(k, spec.value, False) for k in value]
    elif isinstance(spec, list):
        parts = [(k, sub, False) for k, sub in enumerate(spec)]
    elif isinstance(spec, ListOf):
        parts = [(k, spec.item, False) for k in range(len(value))]
    else:
        return
    for key, sub, required in parts:
        entry = value[key]
        mutations = [("type", wrong) for wrong in WRONG if kind(wrong) not in kinds(sub)]
        fixed = isinstance(sub, list) or isinstance(sub, ListOf) and sub.length is not None
        if fixed and isinstance(entry, list) and entry:
            mutations.append(("length", entry[:-1]))
        if required:
            mutations.append(("remove", None))
        yield path + (key,), mutations
        yield from fields(sub, entry, path + (key,))


def mutated(value, path: tuple, how: str, new):
    """A copy of value with the field at path given new, or removed."""
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    if how == "remove":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return value


@pytest.fixture(scope="module")
def valid(toy_dataset_dir, trained):
    """Each artifact, its schema and its fields; each loads as it is."""
    data, state = Path(toy_dataset_dir), Path(f"{trained}.state")
    out = {}
    for name in ARTIFACTS:
        value, spec = read_artifact(name, data, state)
        if name == "config":
            value["out"] = "m.ckpt"
        out[name] = value, list(fields(spec, value))
    return data, state, out


@settings(max_examples=100)
@given(st.data())
def test_fuzzed_field_is_usage_error_naming_it(valid, data):
    """One field of one artifact gets a wrong type or length, or goes; the
    command that reads the artifact exits 2, names the field and writes nothing."""
    root, state, artifacts = valid
    name = data.draw(st.sampled_from(ARTIFACTS), label="artifact")
    value, paths = artifacts[name]
    path, mutations = data.draw(st.sampled_from(paths), label="field")
    how, new = data.draw(st.sampled_from(mutations), label="mutation")
    code, err, wrote = run_with(name, mutated(value, path, how, new), root, state)
    assert code == 2, err
    assert f"{where(name)}: '{field_text(path)}' " in err, err
    assert not wrote


@pytest.mark.parametrize("name", ARTIFACTS)
def test_unmutated_artifacts_run(valid, name):
    root, state, artifacts = valid
    code, err, wrote = run_with(name, artifacts[name][0], root, state)
    assert (code, wrote) == (0, True), err


#: (artifact, path, value): one-field edits that each once crashed a load
#: (exit 1) or slipped through it (exit 0)
ONCE_MISSED = [
    ("manifest", ("l_max",), "3"),
    ("checkpoint manifest", ("dims", "d_link"), "16"),
    ("checkpoint manifest", ("normalizer",), []),
    ("checkpoint manifest", ("dataset",), []),
    ("train record", ("tau_on", 0), None),
    ("manifest", ("sim_config", "queue_buffer_pkts"), 2.5),
    ("manifest", ("sim_config", "wireless_contention"), "x"),
    ("manifest", ("sim_config", "t_gen"), True),
    ("checkpoint manifest", ("dims", "t_layers"), True),
    ("checkpoint manifest", ("normalizer", "iqr", 1), -1.0),
    ("train record", ("tau_on", 0), "3"),
    ("topology", ("wired",), "no"),
    ("topology", ("nodes",), 14.9),
    ("topology", ("edges", 0, 2), "1"),
]


@pytest.mark.parametrize("name, path, new", ONCE_MISSED)
def test_once_missed_edit_is_usage_error(valid, name, path, new):
    root, state, artifacts = valid
    value = mutated(artifacts[name][0], path, "set", new)
    code, err, wrote = run_with(name, value, root, state)
    assert code == 2, err
    if path[-2:] == ("iqr", 1):  # out of range, which the Normalizer checks
        assert f"{where(name)}: iqr entries must be positive and finite" in err, err
    else:
        assert f"{where(name)}: '{field_text(path)}' " in err, err
    assert not wrote


@pytest.mark.parametrize(
    "name, path, new, message",
    [
        ("checkpoint manifest", ("dims", "t_layers"), 0, "t_layers and l_max must be >= 1"),
        ("checkpoint manifest", ("dims", "link_hidden"), [-1], "hidden sizes must be >= 1"),
        ("checkpoint manifest", ("tasks",), [], "invalid task list ()"),
        ("manifest", ("sim_config", "t_gen"), -1.0, "bad sim_config"),
    ],
    ids=["t_layers", "hidden", "no-tasks", "t_gen"],
)
def test_value_out_of_range_is_usage_error_naming_the_file(valid, name, path, new, message):
    """A value of the right type that its constructor rejects."""
    root, state, artifacts = valid
    code, err, wrote = run_with(name, mutated(artifacts[name][0], path, "set", new), root, state)
    assert code == 2 and not wrote, err
    assert f"{where(name)}: " in err and message in err, err


# -- what the package writes fits the schemas ----------------------------------------


@settings(max_examples=8)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    sizes=st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(1, 2)),
    n_r_test=st.integers(2, 3),
    n_flows=st.integers(1, 4),
    seed=st.integers(0, 2**40),
)
def test_generated_dataset_round_trips(scenario, sizes, n_r_test, n_flows, seed):
    """gen-data writes files that fit their schemas, load_dataset gives back
    the samples it generated, and its resolved_config.json redoes the run."""
    n_train, n_val, n_test = sizes
    config = GenConfig(
        scenario, n_train=n_train, n_val=n_val, n_test=n_test, n_r_test=n_r_test,
        n_flows=n_flows, t_gen=1.0, l_max=4, seed=seed,
    )
    argv = [
        "gen-data", "--scenario", scenario, "--n-train", str(n_train), "--n-val", str(n_val),
        "--n-test", str(n_test), "--n-r-test", str(n_r_test), "--n-flows", str(n_flows),
        "--t-gen", "1.0", "--l-max", "4", "--seed", str(seed),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "ds"
        assert main_logged([*argv, "--out", str(root)], Path(tmp) / "log")[0] == 0
        manifest = json.loads((root / "manifest.json").read_text())
        check_json(DATASET_MANIFEST, manifest, "manifest.json", {})
        for topology in [root / "topology.json", *root.glob("topologies/*.json")]:
            if topology.exists():
                check_json(TOPOLOGY, json.loads(topology.read_text()), str(topology), {})
        resolved = json.loads((root / "resolved_config.json").read_text())
        check_json(cli._config_spec(cli.GEN_OPTIONS), resolved, "resolved_config.json", {})

        dataset = load_dataset(root)
        for split in SPLITS:
            samples = dataset.splits[split]
            lines = (root / f"{split}.jsonl").read_text().splitlines()
            assert len(samples) == len(lines) == manifest["splits"][split]
            lengths = {"n_flows": n_flows, "n_runs": n_r_test if split == "test" else 1}
            for number, (sample, line) in enumerate(zip(samples, lines), start=1):
                check_json(RECORD, json.loads(line), f"{split}.jsonl line {number}", lengths)
                record, _ = _generate_record(config, split, sample.index)
                assert sample.index == number - 1
                assert sample.flows.sources == tuple(record["sources"])
                assert sample.flows.destinations == tuple(record["destinations"])
                assert sample.traffic.tau_on == tuple(record["tau_on"])
                assert sample.traffic.tau_off == tuple(record["tau_off"])
                assert [list(map(list, p.links)) for p in sample.table.paths] == record["paths"]
                assert sample.table.seed == record["routing_seed"]
                runs = [np.array(run["kpis"], dtype=np.float64) for run in record["runs"]]
                assert sample.labels.tobytes() == runs[0].tobytes()
                assert [r.tobytes() for r in sample.bench_runs] == [r.tobytes() for r in runs[1:]]

        again = Path(tmp) / "again"
        redo = ["gen-data", "--config", str(root / "resolved_config.json")]
        assert main_logged([*redo, "--out", str(again)], Path(tmp) / "log")[0] == 0
        for path in root.rglob("*"):
            if path.is_file() and path.name != "resolved_config.json":
                assert (again / path.relative_to(root)).read_bytes() == path.read_bytes()


def test_checkpoint_and_state_fit_their_schemas(trained):
    for path, is_state in ((trained, False), (Path(f"{trained}.state"), True)):
        payload = json.loads(path.read_text())
        check_json(CHECKPOINT, payload, str(path), {})
        check_json(STATE_MANIFEST, payload["manifest"], str(path), {})
        # only the state holds the optimizer and the history that resuming reads
        assert (payload["adam"] is not None) == ("history" in payload["manifest"]) == is_state


# -- exit codes ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags", [["--seed", "-1"], ["--n-flows", "500"]], ids=["negative-seed", "too-many-flows"]
)
def test_gen_data_that_fails_on_its_flags_writes_nothing(run_cli, tmp_path, flags):
    out = tmp_path / "ds"
    argv = ["gen-data", "--scenario", "nsfnet-fixed", "--n-train", "1", "--n-val", "0"]
    assert run_cli(*argv, "--n-test", "0", "--t-gen", "1.0", *flags, "--out", str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train", "manage-flows"])
def test_negative_seed_is_usage_error(run_cli, tmp_path, toy_dataset_dir, trained, capsys, command):
    out = tmp_path / "out"
    argv = {
        "gen-data": ["--scenario", "reggrid-fixed", "--n-train", "1", "--n-val", "0",
                     "--n-test", "0"],
        "train": ["--data", toy_dataset_dir, "--epochs", "1"],
        "manage-flows": ["--data", toy_dataset_dir, "--checkpoint", str(trained)],
    }[command]
    assert run_cli(command, *argv, "--seed", "-1", "--out", str(out)) == 2
    assert "seed components must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_internal_error_exits_1(toy_dataset_dir, tmp_path):
    """A bug inside a command, here a KeyError, is no usage error: the
    traceback shows and the exit code is 1."""
    script = (
        "import sys\n"
        "from nettwin import cli\n"
        "def broken(*args, **kwargs):\n"
        "    raise KeyError('internal')\n"
        "cli.filter_and_impute = broken\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["benchmark", "--data", toy_dataset_dir, "--out", str(tmp_path / "b.json")]
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=False,
    )
    assert done.returncode == 1
    assert "KeyError: 'internal'" in done.stderr
    assert "Traceback" in done.stderr
