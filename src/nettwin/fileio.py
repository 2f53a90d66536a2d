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


def _scalar_types(spec) -> set[type] | None:
    """The types spec accepts if it is a scalar, or a scalar or null."""
    if spec is None or isinstance(spec, type):
        return _SCALARS[spec][0]
    if isinstance(spec, tuple) and all(map(_scalar_types, spec)):
        return set().union(*map(_scalar_types, spec))
    return None


class _Mismatch(Exception):
    """A value that fails its schema; the path grows outward as it rises."""

    def __init__(self, problem: str, *path: str | int):
        self.problem, self.path = problem, list(path)


def _fits_in_bulk(spec, value: list, sizes: dict) -> bool:
    """Whether every entry of value is seen to fit spec with no call per
    entry: nested lists are flattened, and what the innermost lists hold is
    checked by type if it is a scalar, column by column if it is a row of
    scalars, and field by field if it is an object. False can mean unseen."""
    while isinstance(spec, ListOf):
        n = sizes.get(spec.length, spec.length)  # an unknown name fits no length
        if not set(map(type, value)) <= _SCALARS[list][0]:
            return False
        if n is not None and set(map(len, value)) - {n}:
            return False
        value, spec = list(chain.from_iterable(value)), spec.item
    cells = _scalar_types(spec)
    if cells is not None:
        return set(map(type, value)) <= cells
    if isinstance(spec, list) and all(map(_scalar_types, spec)):
        if not set(map(type, value)) <= _SCALARS[list][0]:
            return False
        if set(map(len, value)) - {len(spec)}:
            return False
        columns = zip(zip(*value), map(_scalar_types, spec))
        return all(set(map(type, column)) <= cells for column, cells in columns)
    if not isinstance(spec, dict) or not set(map(type, value)) <= _SCALARS[dict][0]:
        return False
    if not all(map({key.rstrip("?") for key in spec}.issuperset, value)):
        return False
    for key, sub in spec.items():
        name = key.rstrip("?")
        column = [entry[name] for entry in value if name in entry]
        if name == key and len(column) < len(value) or not _fits_in_bulk(sub, column, sizes):
            return False
    return True


def _fields(spec: dict, value: dict):
    """(key, schema, entry) of each field of value, in the order of spec;
    raises at the first required field that value lacks."""
    for key, sub in spec.items():
        name = key.rstrip("?")
        if name in value:
            yield name, sub, value[name]
        elif name == key:
            raise _Mismatch("is missing", name)


def _check(spec, value, sizes: dict) -> None:
    """Raise _Mismatch unless value fits spec; sizes gives named lengths."""
    shown = spec
    if isinstance(spec, tuple):  # (spec, None)
        if value is None:
            return
        spec = spec[0]
    types = spec.types if isinstance(spec, OneOf) else _SCALARS[_kind(spec)][0]
    if type(value) not in types or isinstance(spec, OneOf) and value not in spec.choices:
        text = json.dumps(value)
        text = text if len(text) <= 40 else text[:37] + "..."
        raise _Mismatch(f"must be {_what(shown)}, not {text}")
    if isinstance(spec, dict):
        stray = [key for key in value if key not in spec and key + "?" not in spec]
        if stray:
            raise _Mismatch("is not a field of this file", stray[0])
        sizes = {**sizes, **value}
        entries = _fields(spec, value)
    elif isinstance(spec, MapOf):
        if _fits_in_bulk(spec.value, list(value.values()), sizes):
            return
        entries = [(key, spec.value, entry) for key, entry in value.items()]
    elif isinstance(spec, list):
        if len(value) != len(spec):
            raise _Mismatch(f"must have length {len(spec)}, not {len(value)}")
        entries = [(k, sub, entry) for k, (sub, entry) in enumerate(zip(spec, value))]
    elif isinstance(spec, ListOf):
        want = sizes[spec.length] if isinstance(spec.length, str) else spec.length
        if want is not None and len(value) != want:
            named = f" ({spec.length})" if isinstance(spec.length, str) else ""
            raise _Mismatch(f"must have length {want}{named}, not {len(value)}")
        if _fits_in_bulk(spec.item, value, sizes):
            return
        entries = [(k, spec.item, entry) for k, entry in enumerate(value)]
    else:
        return
    for key, sub, entry in entries:
        try:
            _check(sub, entry, sizes)
        except _Mismatch as exc:
            exc.path.append(key)
            raise


def check_json(spec, value, where: str | list[str], sizes: dict) -> None:
    """Raise SchemaError, naming ``where`` and the field as in
    ``runs[0].kpis[2][1]``, unless value fits spec; ``sizes`` gives the
    lengths that the schema names. For the records of a JSON-lines file,
    value is their list and ``where`` names each record's file and line."""
    try:
        _check(spec, value, sizes)
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
