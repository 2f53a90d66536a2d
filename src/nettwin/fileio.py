"""Artifact files: each is written anew, never truncated in place, and each
JSON artifact is checked at load against its schema.

A schema is plain data, declared next to the code that writes the artifact:

* ``int``, ``float``, ``bool``, ``str``, ``dict`` and ``list`` are a JSON
  value of that type, and ``None`` is null; a ``float`` may be written as an
  integer, and true or false is no number;
* a dict is an object of exactly its keys, each required unless it ends
  in ``?``; a list is a list of as many entries, each of its own schema;
* ``(schema, None)`` is that schema or null;
* ``ListOf``, ``MapOf`` and ``OneOf`` are a list of one kind, an object of
  any keys holding one kind, and one of a few fixed values.

Value ranges are no part of a schema: the constructors that take the
values check them.

One checker checks every value, a column at a time: the values that share
one schema are checked together by set operations, and a column that fails
is checked again value by value, in order, to locate the first misfit.
"""

from __future__ import annotations

import json
import os
import stat
import typing
from dataclasses import fields
from itertools import chain
from pathlib import Path
from typing import TextIO


def open_fresh(path: str | Path) -> TextIO:
    """Open ``path`` for writing UTF-8 text as a new file.

    An existing regular file is unlinked first rather than truncated: on a
    journaling file system, truncating a file that holds data can wait for
    a journal commit (about 60 ms on ext4 with ``data=ordered``), while
    creating a file does not. The bytes written are the same either way;
    the new file takes its permissions from the umask. A symlink is kept
    and written through, as plain ``open(path, "w")`` would. Missing parent
    directories are created here, so a command that fails before it writes
    leaves none behind.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", encoding="utf-8")


def write_json(path: str | Path, payload: dict) -> None:
    """Write payload as a fresh JSON artifact: sorted keys, indent 1, newline."""
    with open_fresh(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


# -- schemas -------------------------------------------------------------------


class SchemaError(ValueError):
    """A JSON artifact that does not fit its schema; the message names the
    file, the line of a JSON-lines file, and the field."""


#: the Python types of the JSON values each scalar schema accepts, and its name
_SCALARS = {
    int: ({int}, "an integer"),
    float: ({int, float}, "a number"),
    bool: ({bool}, "true or false"),
    str: ({str}, "a string"),
    dict: ({dict}, "an object"),
    list: ({list}, "a list"),
    None: ({type(None)}, "null"),
}


class ListOf:
    """A list of ``item`` entries. ``length`` is a count, or the name of a
    size that the caller or a field of an enclosing object gives."""

    def __init__(self, item, length: int | str | None = None):
        self.item, self.length = item, length


class MapOf:
    """An object of any keys, each holding a ``value``."""

    def __init__(self, value):
        self.value = value


class OneOf:
    """One of ``choices``, JSON strings or integers."""

    def __init__(self, *choices):
        self.choices, self.types = choices, {type(c) for c in choices}


def _kind(spec):
    """The scalar schema of the JSON type of spec, no tuple or OneOf: dict
    for objects, list for lists."""
    if isinstance(spec, (dict, MapOf)):
        return dict
    return list if isinstance(spec, (list, ListOf)) else spec


def _what(spec) -> str:
    """What spec accepts, as an error message names it."""
    if isinstance(spec, tuple):
        return _what(spec[0]) + " or null"
    if isinstance(spec, OneOf):
        return f"one of {json.dumps(spec.choices)}"
    return _SCALARS[_kind(spec)][1]


class _Mismatch(Exception):
    """A value that fails its schema; the path grows outward as it rises."""

    def __init__(self, problem: str, *path: str | int):
        self.problem, self.path = problem, list(path)


def _fits(spec, values, lone: bool, sizes: dict) -> None:
    """Raise _Mismatch unless every value of the column fits spec; sizes
    gives named lengths. Only for a lone column, one value whose path is
    known, is the message written and do an object's fields join sizes."""
    shown, kinds = spec, set(map(type, values))
    if isinstance(spec, tuple):  # (spec, None)
        if type(None) in kinds:
            values = [value for value in values if value is not None]
            kinds.discard(type(None))
        spec = spec[0]
    if not values:
        return
    types = spec.types if isinstance(spec, OneOf) else _SCALARS[_kind(spec)][0]
    if not kinds <= types or isinstance(spec, OneOf) and not set(values) <= set(spec.choices):
        text = json.dumps(values[0]) if lone else ""
        text = text if len(text) <= 40 else text[:37] + "..."
        raise _Mismatch(f"must be {_what(shown)}, not {text}")
    if isinstance(spec, dict):
        names = {key.rstrip("?") for key in spec}
        stray = set().union(*values) - names
        if stray:
            first = [key for key in values[0] if key in stray][:1]  # the lone value's
            raise _Mismatch("is not a field of this file", *first)
        if lone:
            sizes = {**sizes, **values[0]}
        else:  # a caller's size never stands in for a field of one of these objects
            sizes = {name: n for name, n in sizes.items() if name not in names}
        for key, sub in spec.items():
            name = key.rstrip("?")
            column = [value[name] for value in values if name in value]
            if name == key and len(column) < len(values):
                raise _Mismatch("is missing", name)
            _check(sub, column, [name] if lone else None, sizes)
    elif isinstance(spec, MapOf):
        column = list(chain.from_iterable(map(dict.values, values)))
        _check(spec.value, column, list(values[0]) if lone else None, sizes)
    elif isinstance(spec, list):
        if set(map(len, values)) - {len(spec)}:
            raise _Mismatch(f"must have length {len(spec)}, not {len(values[0])}")
        for k, (sub, column) in enumerate(zip(spec, zip(*values))):
            _check(sub, column, [k] if lone else None, sizes)
    elif isinstance(spec, ListOf):
        named = isinstance(spec.length, str)
        want = sizes[spec.length] if named and lone else sizes.get(spec.length, spec.length)
        if want is not None and set(map(len, values)) - {want}:
            label = f" ({spec.length})" if named else ""
            raise _Mismatch(f"must have length {want}{label}, not {len(values[0])}")
        column = list(chain.from_iterable(values))
        _check(spec.item, column, range(len(values[0])) if lone else None, sizes)


def _check(spec, values, keys, sizes: dict) -> None:
    """Raise _Mismatch unless every value fits spec. If keys names the
    values, a failed column is rechecked value by value and the first misfit
    adds its key to the path; if none fails alone, as where a length is named
    by a field of each object, the column fits."""
    try:
        _fits(spec, values, False, sizes)
    except _Mismatch:
        if keys is None:
            raise
        for key, value in zip(keys, values):
            try:
                _fits(spec, [value], True, sizes)
            except _Mismatch as exc:
                exc.path.append(key)
                raise


def check_json(spec, value, where: str | list[str], sizes: dict) -> None:
    """Raise SchemaError, naming ``where`` and the field as in
    ``runs[0].kpis[2][1]``, unless value fits spec; ``sizes`` gives the
    lengths that the schema names. For the records of a JSON-lines file,
    value is their list and ``where`` names each record's file and line."""
    try:
        _fits(spec, [value], True, sizes)
    except _Mismatch as exc:
        path = exc.path[::-1]
        if isinstance(where, list) and path:
            where, path = where[path[0]], path[1:]
        field = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
        field = repr(field.lstrip(".")) if field else "the top level"
        raise SchemaError(f"{where}: {field} {exc.problem}") from None


def dataclass_spec(cls) -> dict:
    """The schema of an object of every field of dataclass cls, of the JSON
    type its annotation names: ``tuple[X, ...]`` is a list of X, and
    ``X | None`` is X or null."""
    hints, spec = typing.get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            hint = ListOf(args[0])
        elif type(None) in args:
            hint = (args[0], None)
        spec[f.name] = hint
    return spec
