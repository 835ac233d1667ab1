"""Source hygiene that a linter would check: no dead imports, a clean `__all__`."""

import ast
from collections import Counter
from pathlib import Path

import voterlim as vl

SRC = Path(vl.__file__).resolve().parent


def _imported_names(tree):
    """Names bound by the module-level imports of a parsed module."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_imports_are_used_and_all_is_unique():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(vl.__all__)  # re-exports
        unused += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert unused == []
    repeated = [name for name, count in Counter(vl.__all__).items() if count > 1]
    assert repeated == []
    assert [name for name in vl.__all__ if not hasattr(vl, name)] == []
