"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import biphoton

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "biphoton"}


def _top_level_imports(path):
    """Top-level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(Path(biphoton.__file__).parent.glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in _top_level_imports(path)
        if name not in ALLOWED
    }
    assert not foreign, sorted(foreign)
