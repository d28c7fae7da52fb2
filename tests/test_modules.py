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
