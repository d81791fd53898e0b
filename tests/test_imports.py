"""The runtime stays stdlib-only: every absolute import in the package
names a standard library module or the package itself."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "photoauth"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    """(line, top-level module) for each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_the_package_has_sources():
    assert PACKAGE / "__init__.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_stdlib_and_the_package(path):
    allowed = sys.stdlib_module_names | {"photoauth"}
    outside = [(line, name) for line, name in absolute_imports(path) if name not in allowed]
    assert outside == []
