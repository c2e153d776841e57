"""The library imports nothing outside the standard library, every name a
library module imports is used (by `__init__.py`: exported in `__all__`),
every parameter of a library function is read, every top-level function,
class and constant, private or public, and every public method and dataclass
field is read by library or benchmark code (or named as kept on purpose),
only the CLI writes to the terminal, the scan kernel tests its hit rule in
one place and floods nowhere else, and the library and benchmark parse as
the oldest Python that `pyproject.toml` admits."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcnconn"
BENCH = SRC.parent.parent / "bench"
PYPROJECT = SRC.parent.parent / "pyproject.toml"


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


def _declared_minimum() -> tuple[int, int]:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.M)
    return int(found[1]), int(found[2])


def _too_new_syntax(path: Path, version: tuple[int, int]) -> list[str]:
    """The syntax error `path` raises when parsed as Python `version`, if any."""
    try:
        ast.parse(path.read_text(), str(path), feature_version=version)
    except SyntaxError as exc:
        return [f"{path.name}:{exc.lineno} {exc.msg}"]
    return []


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *BENCH.glob("*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_module_parses_as_the_declared_minimum_python(path):
    assert _too_new_syntax(path, _declared_minimum()) == []


def test_the_check_sees_syntax_past_the_declared_minimum(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("try:\n    pass\nexcept* ValueError:\n    pass\n")
    assert _too_new_syntax(probe, (3, 10)) == [
        "probe.py:4 Exception groups are only supported in Python 3.11 and greater"]
    assert _too_new_syntax(probe, (3, 11)) == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # __init__.py imports only to re-export
    assert _unused_imports(path) == []


def _export_mismatch(path: Path) -> list[str]:
    """Names `path` imports but leaves out of its `__all__`, and names in
    `__all__` it does not import (or lists twice)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names]
    exported = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]]
    exported = exported[0] if exported else []
    out = [f"{path.name} imports {name} but does not export it"
           for name in imported if name not in exported]
    out += [f"{path.name} exports {name} but does not import it"
            for name in exported if name not in imported]
    out += [f"{path.name} exports {name} twice" for name in sorted(set(exported))
            if exported.count(name) > 1]
    return out


def test_the_package_exports_exactly_what_it_imports():
    assert _export_mismatch(SRC / "__init__.py") == []
    namespace: dict = {}
    exec("from dcnconn import *", namespace)
    import dcnconn

    assert sorted(set(namespace) - {"__builtins__"}) == sorted(dcnconn.__all__)


def test_the_check_sees_an_export_mismatch(tmp_path):
    probe = tmp_path / "__init__.py"
    probe.write_text("from .graph import Graph, build_graph\nfrom .cuts import verify_cut\n\n"
                     "__all__ = ['Graph', 'verify_cut', 'gone', 'Graph']\n")
    assert _export_mismatch(probe) == ["__init__.py imports build_graph but does not export it",
                                       "__init__.py exports gone but does not import it",
                                       "__init__.py exports Graph twice"]


def test_the_check_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nfrom . import graph\nimport networkx\nfrom hypothesis import given\n")
    assert _outside_imports(probe) == ["probe.py:3 networkx", "probe.py:4 hypothesis"]


def test_the_check_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nimport sys as system\n"
                     "from . import graph\nfrom .errors import ParameterError\n\n"
                     "def f(g: graph.Graph) -> str:\n    return os.sep\n")
    assert _unused_imports(probe) == ["probe.py:3 system", "probe.py:5 ParameterError"]


def _unused_parameters(path: Path) -> list[str]:
    """Parameters a function body never reads; `self` and dunder methods are
    exempt. A read inside a nested function counts."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = filter(None, [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg])
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [f"{path.name}:{node.lineno} {node.name}({p.arg})" for p in params
                if p.arg != "self" and p.arg not in read]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unused_parameters(path) == []


def test_the_check_sees_an_unused_parameter(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("class C:\n    def __init__(self, x):\n        pass\n\n"
                     "    def m(self, a, b):\n        return a\n\n\n"
                     "def f(g, *args, shape, **kw):\n    def inner():\n        return g\n"
                     "    return inner, kw\n")
    assert sorted(_unused_parameters(probe)) == ["probe.py:5 m(b)", "probe.py:9 f(args)",
                                                 "probe.py:9 f(shape)"]


def _terminal_writes(path: Path) -> list[str]:
    """Calls of `print` and uses of `sys.stdout` or `sys.stderr`. Progress
    goes through `logging`, so only the CLI writes to the terminal."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            out.append(f"{path.name}:{node.lineno} print")
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            out.append(f"{path.name}:{node.lineno} sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            out += [f"{path.name}:{node.lineno} sys.{alias.name}" for alias in node.names
                    if alias.name in ("stdout", "stderr")]
    return out


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "cli.py"),
                         ids=lambda p: p.name)
def test_only_the_cli_writes_to_the_terminal(path):
    assert _terminal_writes(path) == []


def test_the_check_sees_a_terminal_write(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import sys\nfrom sys import stderr\n\n\ndef f(log):\n"
                     "    log.info('quiet')\n    print('loud')\n    sys.stdout.write('x')\n"
                     "    return sys.stderr, stderr, sys.argv\n")
    assert sorted(_terminal_writes(probe)) == ["probe.py:2 sys.stderr", "probe.py:7 print",
                                               "probe.py:8 sys.stdout", "probe.py:9 sys.stderr"]


def _is_read(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _reads(path: Path, name: str) -> list[str]:
    """The places where the module at `path` reads `name`, as a name or an
    attribute: each call of a function is one, and so is each alias of it."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _is_read(node, name)]


def _reads_outside(path: Path, name: str, function: str) -> list[str]:
    """The places where the module at `path` reads `name`, as `_reads` finds
    them, outside the body of its top-level function `function`."""
    tree = ast.parse(path.read_text(), str(path))
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == function
              for node in ast.walk(top)}
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if id(node) not in inside and _is_read(node, name)]


def test_the_scan_kernel_tests_the_hit_rule_in_one_place():
    # the scan kernel's one survivor loop holds every per-subset rule before
    # the flood, so a new rule lands there, not beside a second flood site
    assert len(_reads(SRC / "search.py", "_separates")) == 1


def test_only_the_hit_rule_floods():
    # every rule that skips a subset or a block decides from the masks alone:
    # `_separates` reads the flood, and no other code in the module does
    assert _reads_outside(SRC / "search.py", "flood_mask", "_separates") == []
    assert _reads(SRC / "search.py", "flood_mask")


def test_progress_is_logged_in_one_place():
    # the size loop logs progress from the results it reads, so a scan logs
    # the same records wherever its tasks run; the kernel logs nothing
    assert len(_reads(SRC / "search.py", "_log_progress")) == 1


def test_the_check_sees_a_second_hit_rule_site(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _separates(x):\n    return x\n\n\ndef scan(xs, search):\n"
                     "    '_separates(x)'\n    for x in xs:\n        if _separates(x):\n"
                     "            return x\n    test = search._separates\n    return test(xs)\n")
    assert sorted(_reads(probe, "_separates")) == ["probe.py:10", "probe.py:8"]


def test_the_check_sees_a_flood_outside_the_hit_rule(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .graph import flood_mask\n\n\ndef _separates(t, a):\n"
                     "    return flood_mask(t, a, a & -a) != a\n\n\n"
                     "def _pair_covers(t, a):\n    return flood_mask(t, a, 1)\n\n\n"
                     "def scan(graph):\n    'flood_mask'\n    return graph.flood_mask\n")
    assert sorted(_reads_outside(probe, "flood_mask", "_separates")) == ["probe.py:14",
                                                                         "probe.py:9"]
    assert sorted(_reads_outside(probe, "flood_mask", "scan")) == ["probe.py:5", "probe.py:9"]


# public names that no library or benchmark code reads, each kept on purpose
UNREAD_BY_DESIGN = {
    "line_graph": "the independent reference that B_n is checked against",
    "build_graph": "the constructor from label edges, for graphs no builder makes",
    "t_size": "the paper's t_{m,n}, the server count of D(m,n)",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment; dunder names are left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def _unread_names(modules: list[Path], readers: list[Path]) -> list[str]:
    """Top-level functions, classes and constants of `modules`, private ones
    included, and the public methods of the public classes, whose name no
    code in `readers` reads, as a name or an attribute; and the public fields
    of those classes that are dataclasses, which no code in `readers` reads
    as an attribute. Strings, docstrings, imports, keyword arguments and
    assignments are not reads, and neither is the definition itself."""
    read, attributes = set(), set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    read |= attributes
    out = []
    for path in modules:
        for node in ast.parse(path.read_text(), str(path)).body:
            out += [f"{path.name} {name}" for name in _top_level_names(node) if name not in read]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                out += [f"{path.name} {node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                        and sub.name not in read]
                if _is_dataclass(node):
                    out += [f"{path.name} {node.name}.{sub.target.id}" for sub in node.body
                            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
                            and not sub.target.id.startswith("_")
                            and sub.target.id not in attributes]
    return out


def test_every_public_name_is_read_by_the_library_or_the_benchmark():
    modules = sorted(SRC.glob("*.py"))
    unread = _unread_names(modules, modules + sorted(BENCH.glob("*.py")))
    assert [name for name in unread if name.rpartition(" ")[2] not in UNREAD_BY_DESIGN] == []
    # a name kept on purpose that code now reads needs no reason any more
    assert sorted(UNREAD_BY_DESIGN) == sorted(name.rpartition(" ")[2] for name in unread)


def test_the_check_sees_an_unread_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def used():\n    return _private()\n\n\ndef unused():\n    \"used()\"\n\n\n"
                     "def _private():\n    pass\n\n\nclass C:\n    def called(self):\n"
                     "        pass\n\n    def uncalled(self):\n        return used()\n\n"
                     "    def _hidden(self):\n        pass\n\n\n"
                     "@dataclass(frozen=True)\nclass D:\n    kept: int\n    branch: str\n"
                     "    _own: int = 0\n\n\n@dataclass\nclass E:\n    tag: str\n\n\n"
                     "class F:\n    plain: int\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from probe import C, D, E, F, unused\n\n'C().uncalled()'\nC().called()\n"
                      "branch = D(kept=1, branch='x').kept\nE(tag='t')\nF()\n")
    assert _unread_names([probe], [probe, reader]) == [
        "probe.py unused", "probe.py C.uncalled", "probe.py D.branch", "probe.py E.tag"]


def test_the_check_sees_an_orphaned_private_helper(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("_LIMIT = 3\n_UNUSED: int = 4\n__all__ = []\n\n\ndef run():\n"
                     "    return _helper(_LIMIT)\n\n\ndef _helper(x):\n    return x\n\n\n"
                     "def _orphan():\n    _UNUSED = 5\n    return '_helper()'\n\n\n"
                     "class _Box:\n    def uncalled(self):\n        pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from probe import run\n\nrun()\n")
    assert _unread_names([probe], [probe, reader]) == [
        "probe.py _UNUSED", "probe.py _orphan", "probe.py _Box"]
