"""No module in ``src/repro`` imports a name it never uses.

A stdlib ``ast`` scan in place of a linter: every top-level import
outside a package ``__init__.py`` must bind a name that the module
reads, lists in ``__all__`` or names in a string annotation. A line
marked ``# noqa: F401`` is exempt; that marks a deliberate re-export.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _used_names(tree: ast.Module) -> set:
    """Every name the module reads, exports or annotates with."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__"
            for t in node.targets
        ):
            used |= {e.value for e in node.value.elts}
        # A forward reference such as ``"_RunState"``.
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(
                    sub.value, str
                ):
                    used |= _used_names(ast.parse(sub.value))
    return used


def _unused_imports(path: pathlib.Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    return [
        f"{path}:{alias.lineno}: {alias.asname or alias.name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in used
        and "# noqa: F401" not in lines[alias.lineno - 1]
    ]


def test_no_unused_top_level_imports():
    modules = sorted(SRC.rglob("*.py"))
    assert [
        line
        for path in modules
        if path.name != "__init__.py"
        for line in _unused_imports(path)
    ] == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import List, Optional\n"
        "x: 'List[int]' = []\n"
    )
    assert _unused_imports(module) == [
        f"{module}:1: os", f"{module}:3: Optional"
    ]
