"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcnconn"


def _outside_imports(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue  # relative imports stay inside the package
        out += [f"{path.name}:{node.lineno} {name}" for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert _outside_imports(path) == []


def test_the_check_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import graph\nimport networkx\nfrom hypothesis import given\n")
    assert _outside_imports(probe) == ["probe.py:3 networkx", "probe.py:4 hypothesis"]
