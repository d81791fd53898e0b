"""The runtime stays stdlib-only: every absolute import in the package
names a standard library module or the package itself. And what the
server and the corpus generator import at start stays small."""

import ast
import json
import os
import pathlib
import subprocess
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


def modules_loaded_by(statement):
    """The modules a fresh interpreter holds after `statement`.

    `-S` skips site-packages, so no `.pth` file there can load a module
    the package itself does not. The list is taken before the helper
    imports `json` to print it.
    """
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\n{statement}\nloaded = sorted(sys.modules)\n"
         "import json\nprint(json.dumps(loaded))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out))


def test_the_server_loads_no_dataclasses_inspect_or_logging():
    loaded = modules_loaded_by("import photoauth.cli")
    assert "photoauth.service" in loaded
    assert loaded & {"dataclasses", "inspect", "logging"} == set()


def test_the_corpus_path_loads_no_dataclasses():
    loaded = modules_loaded_by("import photoauth.synth, photoauth.verify, photoauth.domain")
    assert "photoauth.synth" in loaded
    assert "dataclasses" not in loaded


def test_the_corpus_path_loads_no_json_or_difflib():
    loaded = modules_loaded_by("import photoauth.synth, photoauth.verify, photoauth.domain")
    assert "photoauth.synth" in loaded
    assert loaded & {"json", "difflib"} == set()


def test_no_module_imports_dataclasses():
    # Every value type is a NamedTuple.
    uses = [(path.name, line) for path in SOURCES
            for line, name in absolute_imports(path) if name == "dataclasses"]
    assert uses == []
