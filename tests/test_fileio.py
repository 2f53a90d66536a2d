"""Artifact files are created anew on every write, parents included, and
the schema checker names the field that a JSON value fails at."""

import json
import math
import os
from dataclasses import dataclass

import pytest

from nettwin.fileio import (
    ListOf,
    MapOf,
    OneOf,
    SchemaError,
    check_json,
    dataclass_spec,
    open_fresh,
)


def write(path, text):
    with open_fresh(path) as fh:
        fh.write(text)


def test_new_path(tmp_path):
    write(tmp_path / "a.json", "one\n")
    assert (tmp_path / "a.json").read_text() == "one\n"


def test_existing_file_is_replaced_not_truncated(tmp_path):
    path, other = tmp_path / "a.json", tmp_path / "link.json"
    write(path, "old\n")
    os.link(path, other)  # a second name for the old file keeps its bytes
    write(path, "new\n")
    assert path.read_text() == "new\n"
    assert other.read_text() == "old\n"
    assert not os.path.samefile(path, other)


def test_symlink_is_written_through(tmp_path):
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    write(target, "old\n")
    link.symlink_to(target)
    write(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"


def test_missing_parent_directories_created(tmp_path):
    write(tmp_path / "a" / "b" / "c.json", "one\n")
    assert (tmp_path / "a" / "b" / "c.json").read_text() == "one\n"


# -- schemas -------------------------------------------------------------------

SPEC = {
    "n": int,
    "x?": float,
    "flag?": bool,
    "kind?": OneOf("a", "b"),
    "rows?": ListOf(ListOf((float, None), 2), "n"),
    "pairs?": ListOf([int, str]),
    "named?": MapOf({"v": int}),
    "maybe?": (ListOf(int, 2), None),
}


def fails(value) -> str:
    with pytest.raises(SchemaError) as info:
        check_json(SPEC, value, "f.json", {})
    return str(info.value)


@pytest.mark.parametrize(
    "value",
    [
        {"n": 0},
        {"n": 2, "x": 1, "flag": False, "kind": "b", "rows": [[1.5, None], [2, 3]]},
        {"n": 1, "pairs": [[1, "a"]], "named": {"k": {"v": 3}}, "maybe": None},
        {"n": 1, "maybe": [1, 2], "x": math.inf},
    ],
)
def test_fitting_values_pass(value):
    check_json(SPEC, value, "f.json", {})


@pytest.mark.parametrize(
    "value, message",
    [
        ([], "the top level must be an object, not []"),
        ({}, "'n' is missing"),
        ({"n": True}, "'n' must be an integer, not true"),  # a bool is no number
        ({"n": 1.0}, "'n' must be an integer, not 1.0"),
        ({"n": 1, "x": False}, "'x' must be a number, not false"),
        ({"n": 1, "y": 2}, "'y' is not a field of this file"),
        ({"n": 1, "kind": "c"}, """'kind' must be one of ["a", "b"], not "c\""""),
        ({"n": 1, "rows": [[1.0, 2.0], [3.0, 4.0]]}, "'rows' must have length 1 (n), not 2"),
        ({"n": 1, "rows": [[1.0]]}, "'rows[0]' must have length 2, not 1"),
        ({"n": 1, "rows": [[1.0, "2"]]}, """'rows[0][1]' must be a number or null, not "2\""""),
        ({"n": 1, "pairs": [[1, "a"], ["b", 2]]}, """'pairs[1][0]' must be an integer, not "b\""""),
        ({"n": 1, "named": {"k": {"v": "1"}}}, """'named.k.v' must be an integer, not "1\""""),
        ({"n": 1, "maybe": [1]}, "'maybe' must have length 2, not 1"),
        ({"n": 1, "maybe": 5}, "'maybe' must be a list or null, not 5"),
    ],
)
def test_misfits_are_named(value, message):
    assert fails(value) == f"f.json: {message}"


def test_a_size_from_the_caller():
    check_json({"v": ListOf(int, "k")}, {"v": [1, 2]}, "f.json", {"k": 2})
    with pytest.raises(SchemaError, match=r"'v' must have length 3 \(k\), not 2$"):
        check_json({"v": ListOf(int, "k")}, {"v": [1, 2]}, "f.json", {"k": 3})


def test_records_of_a_json_lines_file_are_named_by_line():
    records = [{"n": 1}, {"n": 1, "rows": [[1.0, 2.0]]}, {"n": 3}]
    lines = ["f.jsonl line 1", "f.jsonl line 3", "f.jsonl line 4"]  # line 2 blank
    check_json(ListOf(SPEC), records, lines, {})
    records[1]["rows"][0][1] = "2"
    with pytest.raises(SchemaError) as info:
        check_json(ListOf(SPEC), records, lines, {})
    message = "'rows[0][1]' must be a number or null, not \"2\""
    assert str(info.value) == f"f.jsonl line 3: {message}"


def test_long_values_are_cut_short():
    message = fails({"n": "x" * 100})
    assert message.endswith('not "' + "x" * 36 + "...")


def test_dataclass_spec():
    @dataclass(frozen=True)
    class Dims:
        a: int
        b: float = 1.0
        c: tuple[int, ...] = ()
        d: str | None = None
        e: bool = False

    spec = dataclass_spec(Dims)
    assert list(spec) == ["a", "b", "c", "d", "e"]
    check_json(spec, json.loads(json.dumps(Dims(1, 2, (3, 4), None).__dict__)), "f", {})
    with pytest.raises(SchemaError, match="'c' must be a list, not 3"):
        check_json(spec, {"a": 1, "b": 2, "c": 3, "d": None, "e": True}, "f", {})
    with pytest.raises(SchemaError, match="'d' must be a string or null, not 3"):
        check_json(spec, {"a": 1, "b": 2, "c": [], "d": 3, "e": True}, "f", {})
