"""Module boundaries: modules share only public names."""

import ast
import ctypes
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import scipy

import lsvkit
from lsvkit import harness, linalg


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


def test_each_shared_cli_flag_declared_once():
    # one declaration per flag; --n means three things and --trials has two types
    tree = ast.parse((Path(lsvkit.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    flags = Counter(node.args[0].value for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and node.args
                    and getattr(node.func, "attr", None) == "add_argument"
                    and isinstance(node.args[0], ast.Constant))
    assert {flag: count for flag, count in flags.items() if count > 1} == {"--n": 3, "--trials": 2}


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


def test_one_linalg_function_factors_lu():
    # the module binds getrf once, and only the stacked pivot test calls it
    tree = ast.parse((Path(lsvkit.__file__).parent / "linalg.py").read_text(encoding="utf-8"))
    owners = {getattr(top, "name", "<module>") for top in tree.body if any(_lu_references(top))}
    assert owners == {"<module>", "_pivoted_lu"}


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


_LIBRARY_LOADERS = {"glob", "load_library", "CDLL", "cdll", "RTLD_NOLOAD"}


def _library_loader_references(tree):
    """Names, attributes and imports that find or load a shared library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rpartition(".")[2]
        else:
            continue
        if name in _LIBRARY_LOADERS:
            yield name


def test_only_linalg_loads_bundled_libraries():
    # one discovery of numpy's and scipy's OpenBLAS: linalg.bundled_openblas
    found = {path.name: sorted(set(_library_loader_references(
                 ast.parse(path.read_text(encoding="utf-8")))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))}
    assert found.pop("linalg.py")
    assert {name: refs for name, refs in found.items() if refs} == {}
    # map_trials pins the copies in that table that export the setter, LAPACK's among them
    libs = linalg.bundled_openblas(np) + linalg.bundled_openblas(scipy)
    assert harness.PINNED_BLAS == tuple(name for name, lib in libs
                                        if hasattr(lib, "openblas_set_num_threads_local"))
    getrf = ctypes.cast(linalg._getrf, ctypes.c_void_p).value
    lapack = {name for name, lib in libs for symbol in ("scipy_dgetrf_", "dgetrf_")
              if hasattr(lib, symbol)
              and ctypes.cast(getattr(lib, symbol), ctypes.c_void_p).value == getrf}
    assert lapack and lapack <= set(harness.PINNED_BLAS)


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


def _pool_references(tree):
    """(top-level definition, name) of every use of the thread pool or the BLAS pin."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("ThreadPoolExecutor", "_one_blas_thread") and isinstance(
                    getattr(node, "ctx", None), ast.Load):
                yield owner, name


def test_only_map_trials_runs_the_pool_and_pins_blas():
    # one parallel path: map_trials pins BLAS once per call around its one pool
    found = {path.name: sorted(set(_pool_references(ast.parse(path.read_text(encoding="utf-8")))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))}
    assert {name: refs for name, refs in found.items() if refs} == {
        "harness.py": [("map_trials", "ThreadPoolExecutor"), ("map_trials", "_one_blas_thread")]}


def _rounding_references(tree):
    """(top-level definition, name) of every reference to trunc or copysign."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("trunc", "copysign"):
                yield owner, name


def test_only_round_half_away_rounds_to_the_lattice():
    # one rounding rule: dist_to_lattice and the LCD scan both call _round_half_away
    path = Path(lsvkit.__file__).parent / "structure.py"
    found = set(_rounding_references(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == {("_round_half_away", "trunc"), ("_round_half_away", "copysign")}


def _writer_references(tree):
    """(top-level definition, name) of every reference to a data-file writer."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("write_tail_csv", "_write_data_json"):
                yield owner, node.id


def test_only_execute_writes_data_files():
    # one writer: each runner returns its data and _execute writes --out
    path = Path(lsvkit.__file__).parent / "cli.py"
    found = set(_writer_references(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == {("_execute", "write_tail_csv"), ("_execute", "_write_data_json")}


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


def _index_references(tree):
    """(top-level definition, reference) of every use of operator.index."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr == "index"
                    and isinstance(node.value, ast.Name) and node.value.id == "operator"):
                yield owner, "operator.index"
            elif isinstance(node, ast.ImportFrom) and node.module == "operator":
                yield from ((owner, f"from operator import {a.name}") for a in node.names
                            if a.name in ("index", "*"))


def test_only_as_int_coerces_integers():
    # one integer-argument check: every count, index and dimension goes through errors.as_int
    found = {path.name: sorted(set(_index_references(ast.parse(path.read_text(encoding="utf-8")))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))}
    assert {name: refs for name, refs in found.items() if refs} == {
        "errors.py": [("as_int", "operator.index")]}


def _float64_conversions(tree):
    """Every np.asarray / np.array call that passes dtype=np.float64 (or float, "float64")."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("asarray", "array")):
            for kw in node.keywords:
                value = kw.value
                if kw.arg == "dtype" and (
                        getattr(value, "attr", None) == "float64"
                        or getattr(value, "id", None) == "float"
                        or getattr(value, "value", None) == "float64"):
                    yield f"line {node.lineno}: np.{node.func.attr}(..., dtype=float64)"


def test_only_linalg_converts_arrays_to_float64():
    # one array conversion: every real array argument goes through linalg.as_vector/as_matrix
    found = {path.name: list(_float64_conversions(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted(Path(lsvkit.__file__).parent.glob("*.py"))}
    assert found.pop("linalg.py")
    assert {name: refs for name, refs in found.items() if refs} == {}
