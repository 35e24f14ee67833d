"""Source scans of the package: every name a module imports is read in that
module, every public definition has a caller, and one module owns the
feature-row layout and the values file."""

import ast
import importlib
import inspect
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


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each public top-level function or class that no
    module of ``sources`` (module name -> source) references, as a name or
    as an attribute (``topology.closeness``)."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [name for name in defined if name.split(".")[1] not in referenced]


# public API with no caller in the package: the benchmark's networkx check
# (perfbench/workloads.py) scores these two by name
NO_CALLER_IN_THE_PACKAGE = ["topology.closeness", "topology.betweenness"]


def test_every_public_definition_has_a_caller():
    found = unreferenced_definitions({path.stem: path.read_text(encoding="utf-8")
                                      for path in MODULES})
    unexported = [name for name in found if name.split(".")[1] not in connectogen.__all__]
    assert unexported == NO_CALLER_IN_THE_PACKAGE


def test_caller_scan_finds_definitions_nothing_references():
    sources = {
        "a": "def used():\n    pass\n\ndef unused():\n    used()\n\nclass Lone:\n    pass\n"
             "\ndef _private():\n    pass\n",
        "b": "from . import a\n\nclass Held:\n    pass\n\nx = a.unused(Held)\n",
    }
    assert unreferenced_definitions(sources) == ["a.Lone"]


def test_only_data_knows_the_feature_layout():
    # data.edge_index and data.devectorize own the row layout for every module
    assert [path.name for path in MODULES
            if "triu_indices" in path.read_text(encoding="utf-8")] == ["data.py"]


def test_only_data_knows_the_values_file():
    # data._write_views writes each view's values file and data._read_views reads it
    assert [path.name for path in MODULES
            if "values.bin" in path.read_text(encoding="utf-8")] == ["data.py"]


# the hyperparameters no caller varied are module constants; these are the
# parameters and fields that carried them (the README's API-change note)
@pytest.mark.parametrize("owner, name", [
    ("affinity.learn_affinity", "cfg"),
    ("clustering.cluster_source_embeddings", "mkml"),
    ("training.train", "mkml"),
    ("training.predict_multigraph", "mkml"),
    ("training._ClusterContext", "mkml"),
    ("evaluation.evaluate", "hist"),
    ("evaluation.kl_divergence", "spec"),
    ("training.TrainingConfig", "beta1"),
    ("training.TrainingConfig", "beta2"),
    ("autodiff.Adam", "beta1"),
    ("autodiff.Adam", "beta2"),
    ("autodiff.Adam", "epsilon"),
    ("autodiff.AdamState", "lr"),
])
def test_fixed_hyperparameters_take_no_parameter(owner, name):
    module, attr = owner.split(".")
    target = getattr(importlib.import_module(f"connectogen.{module}"), attr)
    assert name not in inspect.signature(target).parameters


@pytest.mark.parametrize("owner", ["affinity.MKMLConfig", "evaluation.HistogramSpec"])
def test_fixed_hyperparameter_classes_are_gone(owner):
    module, attr = owner.split(".")
    assert not hasattr(importlib.import_module(f"connectogen.{module}"), attr)
    assert attr not in connectogen.__all__ and not hasattr(connectogen, attr)


# the tape's node ids and record list; an op sees neither, it hands _emit a
# backward that returns one gradient per input
ENGINE_NAMES = {"_node_id", "node_id", "_records"}


def engine_names_read(source: str) -> list[str]:
    """The names of ``ENGINE_NAMES`` that ``source`` reads, as a name or
    as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted(read & ENGINE_NAMES)


def test_only_autodiff_sees_node_ids():
    assert [path.name for path in MODULES
            if engine_names_read(path.read_text(encoding="utf-8"))] == ["autodiff.py"]


def test_engine_scan_finds_attribute_and_name_reads():
    source = ("def f(t, tape):\n    node_id = t._node_id\n    return tape._records, node_id\n"
              "# node_id in a comment\n")
    assert engine_names_read(source) == ["_node_id", "_records", "node_id"]
    assert engine_names_read("x = 'node_id'\n") == []


def test_ec_op_records_through_emit():
    from connectogen import topology

    tree = ast.parse(inspect.getsource(topology.batched_eigenvector_rows))
    assert "_emit" in {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
