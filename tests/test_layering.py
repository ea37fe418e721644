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


def definitions(tree: ast.Module):
    """(node, is_method) for the module- and class-level def and class nodes,
    dunders exempt."""
    defines = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            name = getattr(node, "name", "")
            dunder = name.startswith("__") and name.endswith("__")
            if isinstance(node, defines) and not dunder:
                yield node, scope is not tree


def referenced_names(node: ast.AST, attributes_only: bool = False) -> list:
    """Every name read under node, as a bare name, an attribute or an import;
    with attributes_only, as an attribute only (x.name)."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.append(sub.attr)
        elif attributes_only:
            continue
        elif isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def attribute_stores(tree: ast.Module) -> set:
    """Names that the module's classes store on an instance: self.<name> = ..."""
    return {
        sub.attr
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for sub in ast.walk(cls)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
    }


def unreferenced_definitions() -> list:
    """Names of the definitions, and of the attributes stored on self, that
    nothing in the package references.

    A method or a stored attribute counts as referenced only by an attribute
    read, so that a local variable of the same name elsewhere does not keep
    it alive.
    """
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    reads = {
        attributes_only: [n for tree in trees for n in referenced_names(tree, attributes_only)]
        for attributes_only in (False, True)
    }
    stored = set().union(*map(attribute_stores, trees))
    return [
        node.name
        for tree in trees
        for node, method in definitions(tree)
        # a use inside its own body, such as a recursive call, does not count
        if reads[method].count(node.name) == referenced_names(node, method).count(node.name)
    ] + sorted(stored - set(reads[True]))


def test_every_private_helper_is_referenced():
    dead = [name for name in unreferenced_definitions() if name.startswith("_")]
    assert not dead, f"private helpers that nothing else references: {dead}"


# Public definitions that no package code names, each kept because perfbench's
# tracer needs it by name
TRACED_ONLY = {
    "orthogonal_tail_checks",  # tracer: bounds.tail_checks (sweep calls it by getattr)
    "symplectic_tail_checks",  # tracer: bounds.tail_checks (sweep calls it by getattr)
    "unitary_tail_checks",  # tracer: bounds.tail_checks (sweep calls it by getattr)
    "Subspace",  # tracer: install() wraps Subspace.bit_rows (tests build references from it)
    "bit_rows",  # tracer: install() wraps Subspace.bit_rows (tests call it too)
    "sub",  # tracer: FIELD_OPS folds Field.sub, so every traced run would break without it
}


def test_every_public_definition_is_referenced_or_exported():
    # code that only tests reach belongs in tests/reference.py
    kept = {*oppmix.__all__, *TRACED_ONLY}
    dead = [n for n in unreferenced_definitions() if not n.startswith("_") and n not in kept]
    assert not dead, f"public definitions that nothing references or exports: {dead}"


def absolute_imports(path: Path) -> set:
    """Top-level names of the modules that `import x` / `from x import` pull in."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_a_process_pool():
    # every count runs serially: a pool would have to pay for itself on the
    # benchmark first, and then edit this test
    for path in sorted(PACKAGE.glob("*.py")):
        found = absolute_imports(path) & {"multiprocessing", "concurrent"}
        assert not found, f"{path.name} imports {sorted(found)}"


def test_no_module_imports_dataclasses():
    # records are NamedTuples: dataclasses pulls in inspect, ast, dis and
    # tokenize, which every short CLI process would then import
    for path in sorted(PACKAGE.glob("*.py")):
        assert "dataclasses" not in absolute_imports(path), path.name


def test_no_module_asserts():
    # `python -O` strips assert statements, and an AssertionError escapes
    # cli.main as a traceback: a broken invariant raises ArithmeticError, and
    # no module names AssertionError either
    def asserts(node) -> bool:
        return isinstance(node, ast.Assert) or getattr(node, "id", None) == "AssertionError"

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if asserts(node)]
        assert not lines, f"{path.name} asserts on lines {lines}"


def probe(code: str, *argv) -> str:
    """stdout of `code` run in a fresh interpreter, with argv as sys.argv[1:]."""
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout


def test_cli_import_loads_no_process_pool():
    # no module imports a pool (see above), and none of the standard-library
    # modules the CLI loads pulls one in either
    code = (
        "import sys, oppmix.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    assert probe(code).strip() == "[]"


def test_cli_import_loads_only_what_commands_use():
    # every layer but exactnum loads inside the commands that run it, and the
    # package resolves its public names on first access
    code = (
        "import sys, oppmix, oppmix.cli; "
        "layers = ('gf', 'linalg', 'forms', 'spectrum', 'bounds', 'oracle', 'sweep'); "
        "heavy = {'oppmix.' + m for m in layers}; "
        "print(sorted((heavy | {'dataclasses'}) & set(sys.modules))); "
        "print(all(getattr(oppmix, name) is not None for name in oppmix.__all__)); "
        "print(sorted(heavy - set(sys.modules)))"
    )
    assert probe(code).split("\n")[:3] == ["[]", "True", "[]"]


def modules_after_command(*argv) -> set:
    """The modules loaded by the end of one CLI command in a fresh interpreter."""
    script = (
        "import io, sys; from oppmix import cli; "
        "out, sys.stdout = sys.stdout, io.StringIO(); "
        "out.write(f'{cli.main(sys.argv[1:])}\\n' + '\\n'.join(sys.modules))"
    )
    code, *modules = probe(script, *argv).split("\n")
    assert code == "0", argv
    return set(modules)


def test_spectrum_command_loads_no_forms_or_oracle():
    loaded = modules_after_command("spectrum", "--e1", "3", "--e2", "2", "--q", "2")
    assert "oppmix.spectrum" in loaded
    assert not {"oppmix.linalg", "oppmix.forms", "oppmix.oracle", "dataclasses"} & loaded
    assert "oppmix.bounds" not in loaded


def test_mixing_check_command_loads_no_bounds():
    loaded = modules_after_command(
        "mixing-check", "--e1", "2", "--e2", "2", "--q", "3", "--trials", "10"
    )
    assert "oppmix.oracle" in loaded
    assert not {"oppmix.bounds", "oppmix.sweep", "dataclasses"} & loaded


def test_count_command_loads_no_spectrum():
    loaded = modules_after_command(
        "count", "--family", "symplectic", "--e1", "2", "--e2", "2", "--q", "3"
    )
    assert "oppmix.oracle" in loaded
    assert not {"oppmix.spectrum", "dataclasses"} & loaded
