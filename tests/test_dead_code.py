"""Dead-code guard: every public top-level function and class has a user.

The package's modules are parsed with ``ast``. A public name (no leading
underscore) defined at module level must be read somewhere in the package
outside its own definition; an import alone does not count. Code that only
tests need belongs in the tests.
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


def public_definitions() -> dict[str, str]:
    """Public module-level function and class names -> defining module file."""
    out: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def names_read() -> set[str]:
    """Every name and attribute read in the package, each top-level
    definition's references to itself left out."""
    seen: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    seen.add(name)
    return seen


def test_every_public_definition_has_a_user():
    read = names_read()
    unused = sorted(
        f"{module}: {name}"
        for name, module in public_definitions().items()
        if name not in read and name not in ORACLES
    )
    assert not unused, f"public definitions nothing in the package uses: {unused}"


def test_oracle_list_names_live_definitions():
    assert set(ORACLES) <= set(public_definitions())
    assert all(reason.strip() for reason in ORACLES.values())
