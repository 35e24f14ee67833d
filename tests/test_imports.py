"""Source scans of the package: every name a module imports is read in that
module, and one module owns the feature-row layout and the values file."""

import ast
from pathlib import Path

import pytest

import connectogen

MODULES = sorted(Path(connectogen.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names the module's imports bind that it never reads.

    A name is read where it appears as a name, or as a string of the
    module's ``__all__`` (a package re-export).
    """
    imported, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_and_keeps_read_names():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .data import devectorize, feature_count\n__all__ = ['feature_count']\n"
              "x = np.zeros(3)\n")
    assert unused_imports(source) == ["os (line 2)", "devectorize (line 4)"]


def test_only_data_knows_the_feature_layout():
    # data.edge_index and data.devectorize own the row layout for every module
    assert [path.name for path in MODULES
            if "triu_indices" in path.read_text(encoding="utf-8")] == ["data.py"]


def test_only_data_knows_the_values_file():
    # data._write_views writes each view's values file and data._read_views reads it
    assert [path.name for path in MODULES
            if "values.bin" in path.read_text(encoding="utf-8")] == ["data.py"]
