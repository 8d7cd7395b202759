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
