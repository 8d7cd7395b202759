"""Static checks over the package source."""

import ast
from pathlib import Path

import bemopt

PACKAGE = Path(bemopt.__file__).parent


def _unused_imports(path: Path) -> list:
    """Names a module binds by import and never reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [u for path in modules for u in _unused_imports(path)] == []


# Public API that no package code calls, each kept for a reader outside it.
UNCALLED_API = {
    "rcsim.simulate_week_detailed": "the reference the simulator tests compare against",
    "training.load_history_csv": "perfbench reads the training history with it",
    "pareto.BmsSpace.settings_vector": "perfbench's tracer keys distinct schedules with it",
}


def _public_api(path: Path) -> list:
    """Dotted names of a module's public top-level functions and classes
    and of its public classes' methods."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def test_every_public_function_class_and_method_is_used_by_the_package():
    """Public API that only tests call belongs in the tests: every public
    name must be read, as a name or an attribute, somewhere in the package,
    or be listed in UNCALLED_API with its reason."""
    modules = sorted(PACKAGE.glob("*.py"))
    read = set()
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    api = [name for path in modules for name in _public_api(path)]
    assert set(UNCALLED_API) <= set(api)
    assert [name for name in api
            if name.rsplit(".", 1)[1] not in read and name not in UNCALLED_API] == []
    assert all(name.rsplit(".", 1)[1] not in read for name in UNCALLED_API)
