"""Artifact files are created anew on every write, parents included, and
the schema checker names the field that a JSON value fails at."""

import json
import math
import os
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from nettwin.fileio import (
    ListOf,
    MapOf,
    OneOf,
    SchemaError,
    check_json,
    dataclass_spec,
    open_fresh,
)
from nettwin.pipeline import RECORD
from nettwin.simulator import TASKS
from oracles import reference_check


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
        # the first misfit in document order, not in the first column that fails
        ({"n": 1, "pairs": [[1, 2], ["b", "a"]]}, "'pairs[0][1]' must be a string, not 2"),
        ({"n": 1, "x": "1", "kind": "c", "y": 2}, "'y' is not a field of this file"),
        ({"n": 1, "x": "1", "kind": "c"}, "'x' must be a number, not \"1\""),
        ({"n": 1, "x?": 2.0}, "'x?' is not a field of this file"),  # keys are names
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


def test_the_first_record_with_a_misfit_is_named():
    """A record with a misfit in a later field comes before one with a
    misfit in an earlier field; the second record holds two misfits."""
    records = [{"n": 1}, {"n": 1, "pairs": [[1, 2]]}, {"n": 1, "x": "1", "kind": "c"}]
    lines = ["f.jsonl line 1", "f.jsonl line 2", "f.jsonl line 3"]
    with pytest.raises(SchemaError) as info:
        check_json(ListOf(SPEC), records, lines, {})
    assert str(info.value) == "f.jsonl line 2: 'pairs[0][1]' must be a string, not 2"
    with pytest.raises(SchemaError) as info:
        check_json(ListOf(SPEC), records[2:], lines[2:], {})
    assert str(info.value) == "f.jsonl line 3: 'x' must be a number, not \"1\""


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


# -- the column-wise checker against the walk that checks value by value -----------

#: fields no schema here declares, and values of every JSON kind
STRAYS = ["zz", "x?"]
JUNK = ["zzz", 2.5, -1, True, None, [], {}, [1], {"v": 1}]
SCALAR_DRAWS = {
    int: st.integers(0, 3),
    float: st.sampled_from([0, 1.5, -2.0, 3]),
    bool: st.booleans(),
    str: st.sampled_from(["a", "topo"]),
    dict: st.just({}),
    list: st.just([]),
    None: st.none(),
}


def draw_value(data, spec, sizes: dict, odds: int):
    """A value of spec, in which each value drawn is broken with chance 1 in
    odds (never for odds 0): swapped for junk, or, for a list, cut short or
    lengthened, and for an object, given a stray field or stripped of one."""
    broken = odds and data.draw(st.integers(0, odds - 1)) == 0
    if broken and data.draw(st.booleans()):
        return data.draw(st.sampled_from(JUNK))
    if isinstance(spec, tuple):
        value = None if data.draw(st.booleans()) else draw_value(data, spec[0], sizes, odds)
    elif isinstance(spec, OneOf):
        value = data.draw(st.sampled_from(spec.choices))
    elif isinstance(spec, dict):
        value, sizes = {}, dict(sizes)
        for key, sub in spec.items():
            if key.endswith("?") and data.draw(st.booleans()):
                continue
            value[key.rstrip("?")] = sizes[key.rstrip("?")] = draw_value(data, sub, sizes, odds)
        if broken and value and data.draw(st.booleans()):
            del value[data.draw(st.sampled_from(sorted(value)))]
        elif broken:
            value[data.draw(st.sampled_from(STRAYS))] = 0
    elif isinstance(spec, MapOf):
        keys = data.draw(st.lists(st.sampled_from("abc"), max_size=2, unique=True))
        value = {key: draw_value(data, spec.value, sizes, odds) for key in keys}
    elif isinstance(spec, list):
        value = [draw_value(data, sub, sizes, odds) for sub in spec]
    elif isinstance(spec, ListOf):
        n = sizes.get(spec.length, spec.length)
        if type(n) is not int or not 0 <= n <= len(TASKS):
            n = data.draw(st.integers(0, 2))
        value = [draw_value(data, spec.item, sizes, odds) for _ in range(n)]
    else:
        value = data.draw(SCALAR_DRAWS[spec])
    if broken and isinstance(value, list):
        value = value[:-1] if value and data.draw(st.booleans()) else value + value[:1] + [0]
    return value


def failure(check, spec, value, where, sizes) -> str | None:
    try:
        check(spec, value, where, sizes)
    except SchemaError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_names_the_misfit_the_value_by_value_walk_names(data):
    """Records of the test schema or of a dataset line, each value broken
    with a drawn chance: none, one or several misfits over records and
    fields. check_json fails with the walk's message, or passes with it."""
    spec = data.draw(st.sampled_from([SPEC, RECORD]), label="schema")
    sizes = {"n_flows": data.draw(st.integers(1, 2)), "n_runs": data.draw(st.integers(1, 2))}
    odds = data.draw(st.sampled_from([0, 40, 10, 3]), label="odds")
    records = [draw_value(data, spec, sizes, odds) for _ in range(data.draw(st.integers(1, 3)))]
    lines = [f"f.jsonl line {k}" for k in range(1, len(records) + 1)]
    for spec, value, where in [(ListOf(spec), records, lines), (spec, records[-1], "f.json")]:
        want = failure(reference_check, spec, value, where, sizes)
        assert failure(check_json, spec, value, where, sizes) == want
