"""numpy is the package's only runtime dependency.

The first scan parses ``src/hermipir`` and fails on an absolute import of
a module that is neither in the standard library nor numpy nor hermipir
itself, wherever in a module it appears.  The second reads the runtime
``dependencies`` of ``pyproject.toml``; test-only packages such as scipy
belong to the ``test`` extra.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hermipir"
RUNTIME = {"numpy", "hermipir"}


def _imported_roots():
    """(file name, top-level module) of each absolute import in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                yield path.name, name.split(".")[0]


def test_package_imports_only_stdlib_and_numpy():
    foreign = sorted({(file, root) for file, root in _imported_roots()
                      if root not in sys.stdlib_module_names and root not in RUNTIME})
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in project["dependencies"]]
    assert names == ["numpy"]
    assert any(spec.startswith("scipy") for spec in project["optional-dependencies"]["test"])
