"""Module boundaries: modules share only public names."""

import ast
from pathlib import Path

import lsvkit


def test_no_private_names_imported_across_modules():
    offenders = []
    for path in sorted(Path(lsvkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("lsvkit"):
                continue
            offenders += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert offenders == []


def _lu_references(tree):
    """Names, attributes, imports and strings that reach LAPACK's LU (lu_factor, *getrf)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name == "lu_factor" or name.endswith("getrf"):
            yield name


def test_only_linalg_factors_lu():
    # one factorization path: every pivot test and LU solve goes through linalg
    found = {path.name: list(_lu_references(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))}
    assert found.pop("linalg.py")
    assert {name: refs for name, refs in found.items() if refs} == {}


def _blas_thread_references(tree):
    """ctypes imports and names of OpenBLAS's thread-count setter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.partition(".")[0] == "ctypes")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "ctypes":
            yield node.module
        elif isinstance(node, ast.Name) and node.id == "openblas_set_num_threads_local":
            yield node.id
        elif isinstance(node, ast.Attribute) and node.attr == "openblas_set_num_threads_local":
            yield node.attr
        elif isinstance(node, ast.Constant) and node.value == "openblas_set_num_threads_local":
            yield node.value


def test_only_harness_sets_blas_threads():
    # one owner of the process-wide BLAS thread count: map_trials' pin
    found = {path.name: list(_blas_thread_references(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))}
    assert found.pop("harness.py")
    assert {name: refs for name, refs in found.items() if refs} == {}
