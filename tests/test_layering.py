"""Each module of the package imports only the modules below it."""

import ast
import subprocess
import sys
from pathlib import Path

import oppmix

LAYERS = ["exactnum", "gf", "linalg", "forms", "spectrum", "bounds", "oracle", "sweep", "cli"]
PACKAGE = Path(oppmix.__file__).parent


def package_imports(path: Path) -> set:
    """Names of the sibling modules that `from .x import` / `from . import x` pull in."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_point_downward():
    for i, name in enumerate(LAYERS):
        above = package_imports(PACKAGE / f"{name}.py") - set(LAYERS[:i])
        assert not above, f"{name} imports {sorted(above)}, which sit above it"


def private_definitions(tree: ast.Module):
    """The module- and class-level `def _name` / `class _Name` nodes, dunders exempt."""
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            name = getattr(node, "name", "")
            dunder = name.startswith("__") and name.endswith("__")
            if isinstance(node, defines) and name.startswith("_") and not dunder:
                yield node


def referenced_names(node: ast.AST) -> list:
    """Every name read under node, as a bare name, an attribute or an import."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_every_private_helper_is_referenced():
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    everywhere = [name for tree in trees for name in referenced_names(tree)]
    dead = [
        node.name
        for tree in trees
        for node in private_definitions(tree)
        # a use inside its own body, such as a recursive call, does not count
        if everywhere.count(node.name) == referenced_names(node).count(node.name)
    ]
    assert not dead, f"private helpers that nothing else references: {dead}"


def test_no_module_imports_a_process_pool():
    # every count runs serially: a pool would have to pay for itself on the
    # benchmark first, and then edit this test
    pools = {"multiprocessing", "concurrent"}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found = {name.split(".")[0] for name in names} & pools
            assert not found, f"{path.name} imports {sorted(found)}"


def test_cli_import_loads_no_process_pool():
    # no module imports a pool (see above), and none of the standard-library
    # modules the CLI loads pulls one in either
    probe = (
        "import sys, oppmix.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_only_what_commands_use():
    # the brute-force and spectral layers load inside the commands that run
    # them, and the package resolves its public names on first access
    probe = (
        "import sys, oppmix, oppmix.cli; "
        "heavy = {'oppmix.oracle', 'oppmix.sweep', 'oppmix.spectrum'}; "
        "print(sorted(heavy & set(sys.modules))); "
        "print(all(getattr(oppmix, name) is not None for name in oppmix.__all__)); "
        "print(sorted(heavy - set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.split("\n")[:3] == ["[]", "True", "[]"]
