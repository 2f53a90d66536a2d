"""Dead-code guard: every public definition, option and import has a user
in the package.

The package's modules are parsed with ``ast``. A public name (no leading
underscore) must be read somewhere in the package outside its own
definition; an import alone does not count. This holds for module-level
functions and classes, and for the methods and properties of those classes.
Every defaulted parameter of those functions and methods must be passed by
some package call, every imported name must be read in its module, and no
module imports an underscore name from another. A private definition (a
leading underscore, no dunder) must be read in its own module outside its
definition. The checks go by name: a
method counts as used when any attribute of that name is read, and a
parameter counts as passed when any call of a function or method of that
name passes it. Code that only tests need belongs in the tests.
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
    "twin_objective": (
        "the lone-forward J that the hill-climb's stacked scores are checked "
        "against, and that perfbench's tracer counts"
    ),
}

#: defaulted parameters ("function.parameter") kept on purpose though no
#: package call passes them, each with the reason
OPTIONS = {
    "main.argv": "the argument list that tests and the benchmark hand the CLI",
    **{
        f"build_pert_grid.{name}": (
            "tests need grids small enough for the exhaustive routing oracle, "
            "and an unperturbed one"
        )
        for name in ("rows", "cols", "radius")
    },
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


def unread_private_definitions() -> list[tuple[str, str]]:
    """(module file, label) of the private module-level functions and
    classes, and the private methods of module-level classes
    ("Class._method"), whose name nothing in their module reads outside
    their own lines. Python itself calls a dunder method."""
    read: dict[tuple[str, str], list[int]] = {}
    for name, module, line in names_read():
        read.setdefault((module, name), []).append(line)
    out = []
    for module, tree in modules():
        labelled = []
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                continue
            labelled += [(node.name, node)] if node.name.startswith("_") else []
            if isinstance(node, ast.ClassDef):
                labelled += [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, FUNCTIONS)
                    and item.name.startswith("_")
                    and not item.name.endswith("__")
                ]
        for label, node in labelled:
            own = range(node.lineno, node.end_lineno + 1)
            lines = read.get((module, label.rsplit(".", 1)[-1]), [])
            if all(line in own for line in lines):
                out.append((module, label))
    return sorted(out)


def test_every_private_definition_is_read_in_its_module():
    unread = [f"{m}: {label}" for m, label in unread_private_definitions()]
    assert not unread, f"private definitions nothing in their module reads: {unread}"


def test_oracle_list_names_live_definitions():
    assert set(ORACLES) <= set(public_definitions())
    assert all(reason.strip() for reason in ORACLES.values())


def defaulted_parameters() -> dict[str, tuple[str, ast.AST, str, int | None]]:
    """Every defaulted parameter of a public function or method, as
    "function.parameter" ("Class.method.parameter" for a method), with its
    module file, the function's node and name, and the parameter's position
    among the arguments a call passes (None for keyword-only)."""
    out = {}
    for label, (module, node) in public_definitions().items():
        if not isinstance(node, FUNCTIONS):
            continue
        name = label.rsplit(".", 1)[-1]
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if "." in label else 0  # a method's self or cls
        first = len(positional) - len(args.defaults)
        for k, arg in enumerate(positional[first:], start=first):
            out[f"{label}.{arg.arg}"] = (module, node, name, k - skip)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                out[f"{label}.{arg.arg}"] = (module, node, name, None)
    return out


def calls() -> list[tuple[str, str, int, ast.Call]]:
    """(called name, module file, line, node) of every package call."""
    out = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    out.append((func.id, module, node.lineno, node))
                elif isinstance(func, ast.Attribute):
                    out.append((func.attr, module, node.lineno, node))
    return out


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether call passes parameter: by keyword, at its position, or
    through ``*`` or ``**``."""
    if any(kw.arg in (parameter, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    for k, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return position >= k
        if k == position:
            return True
    return False


def unpassed_parameters() -> list[tuple[str, str]]:
    """(module file, "function.parameter") of the defaulted parameters no
    package call outside their own function passes."""
    by_name: dict[str, list[tuple[str, int, ast.Call]]] = {}
    for name, module, line, node in calls():
        by_name.setdefault(name, []).append((module, line, node))
    out = []
    for label, (module, node, name, position) in defaulted_parameters().items():
        own = range(node.lineno, node.end_lineno + 1)
        parameter = label.rsplit(".", 1)[-1]
        if label not in OPTIONS and not any(
            passes(call, parameter, position)
            for m, line, call in by_name.get(name, [])
            if m != module or line not in own
        ):
            out.append((module, label))
    return sorted(out)


def test_every_defaulted_parameter_is_passed():
    unpassed = [f"{m}: {label}" for m, label in unpassed_parameters()]
    assert not unpassed, f"parameters no package call passes: {unpassed}"


def test_option_list_names_live_parameters():
    assert set(OPTIONS) <= set(defaulted_parameters())
    assert all(reason.strip() for reason in OPTIONS.values())


def unread_imports() -> list[tuple[str, str]]:
    """(module file, name) of every name a package module imports and never
    reads."""
    out = []
    for module, tree in modules():
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound += [
                    alias.asname or alias.name.split(".")[0] for alias in node.names
                ]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [(module, name) for name in bound if name not in read]
    return sorted(out)


def test_every_import_is_read():
    unread = [f"{m}: {name}" for m, name in unread_imports()]
    assert not unread, f"imports nothing in their module reads: {unread}"


def private_imports() -> list[tuple[str, str]]:
    """(module file, "module.name") of every underscore name a package module
    imports from another package module."""
    out = []
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                out += [
                    (module, f"{node.module}.{alias.name}")
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return sorted(out)


def test_no_private_import_across_modules():
    private = [f"{m}: {name}" for m, name in private_imports()]
    assert not private, f"underscore names imported from another module: {private}"
