"""Module boundaries: modules share only public names."""

import ast
import importlib
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


def _sampler_calls(tree):
    """(top-level definition, callee) of every call to a matrix sampler."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("sample_matrix", "sample_matrices"):
                yield owner, name


def test_only_map_trials_samples_matrices():
    # one sampling path: every trial loop gets its matrices from map_trials
    found = {path.name: sorted(set(_sampler_calls(ast.parse(path.read_text(encoding="utf-8")))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))
             if path.name != "ensembles.py"}
    assert {name: calls for name, calls in found.items() if calls} == {
        "harness.py": [("map_trials", "sample_matrices")]}


def _dotted(node) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    assert isinstance(node, ast.Attribute), ast.dump(node)
    return _dotted(node.value) + [node.attr]


def test_bench_patch_targets_exist():
    # bench/layers.py rebinds owner.__dict__[name]; a name the owner lost
    # would fail only at `bench/run.py --trace 1`
    layers = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    targets = []
    for node in ast.walk(ast.parse(layers.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and _dotted(node.func.value) == ["rec"]):
            module, *attrs = _dotted(node.args[0])
            owner = importlib.import_module(f"lsvkit.{module}")
            for attr in attrs:
                owner = getattr(owner, attr)
            targets.append((owner, node.args[1].value))
    assert targets
    assert [(owner.__name__, name) for owner, name in targets if name not in vars(owner)] == []
