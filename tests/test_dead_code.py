"""Dead-code guard: every public definition has a user in the package.

The package's modules are parsed with ``ast``. A public name (no leading
underscore) must be read somewhere in the package outside its own
definition; an import alone does not count. This holds for module-level
functions and classes, and for the methods and properties of those classes.
The check goes by name: a method counts as used when any attribute of that
name is read. Code that only tests need belongs in the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nettwin

PACKAGE = Path(nettwin.__file__).parent

#: public names kept on purpose though no package code calls them
ORACLES = {
    "enumerate_shortest_paths": (
        "exhaustive routing oracle that the routing tests compare the seeded "
        "shortest paths against"
    ),
    "bootstrap_mean_diff_ci": (
        "paired bootstrap interval behind the acceptance gate's repeat-average "
        "trend check"
    ),
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def modules() -> list[tuple[str, ast.Module]]:
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
    ]


def public_definitions() -> dict[str, tuple[str, ast.AST]]:
    """Public module-level functions and classes, and the public methods and
    properties of those classes ("Class.method"), each with its module file
    and its node."""
    out: dict[str, tuple[str, ast.AST]] = {}
    for module, tree in modules():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS) or node.name.startswith("_"):
                continue
            out[node.name] = (module, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                        out[f"{node.name}.{item.name}"] = (module, item)
    return out


def names_read() -> list[tuple[str, str, int]]:
    """(name, module file, line) of every name and attribute read."""
    seen = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                seen.append((node.id, module, node.lineno))
            elif isinstance(node, ast.Attribute):
                seen.append((node.attr, module, node.lineno))
    return seen


def unused_definitions() -> list[tuple[str, str]]:
    """(module file, label) of the public definitions whose name nothing
    reads outside their own lines."""
    read: dict[str, list[tuple[str, int]]] = {}
    for name, module, line in names_read():
        read.setdefault(name, []).append((module, line))
    out = []
    for label, (module, node) in public_definitions().items():
        name = label.rsplit(".", 1)[-1]
        own = range(node.lineno, node.end_lineno + 1)
        if label not in ORACLES and not any(
            m != module or line not in own for m, line in read.get(name, [])
        ):
            out.append((module, label))
    return sorted(out)


def test_every_public_definition_has_a_user():
    unused = [f"{m}: {label}" for m, label in unused_definitions() if "." not in label]
    assert not unused, f"public definitions nothing in the package uses: {unused}"


def test_every_public_method_has_a_user():
    unused = [f"{m}: {label}" for m, label in unused_definitions() if "." in label]
    assert not unused, f"public methods nothing in the package uses: {unused}"


def test_oracle_list_names_live_definitions():
    assert set(ORACLES) <= set(public_definitions())
    assert all(reason.strip() for reason in ORACLES.values())
