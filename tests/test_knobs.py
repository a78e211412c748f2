"""Each tuning knob has one binding: the module that owns it.

Every other module reads a knob from its owner when it is called, so a
test or a tuning run changes it with one assignment, and forked workers
inherit the change.  A by-value import, a default argument value or a
class field default would keep the old value.
"""

import ast
from pathlib import Path

import pytest

import strsort

SRC = Path(strsort.__file__).parent
# upper-case names that no tuning changes: the word format of strset and
# the registry, a dict every importer shares by reference
FIXED = {"WORD_CHARS", "LCP_UNDEF", "ALGORITHMS"}


def _knob(name: str) -> bool:
    return name.isupper() and name not in FIXED


def _knobs_read(expr) -> list[str]:
    """The knobs an expression reads, by name or as a module attribute."""
    names = [
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(expr)
        if isinstance(n, (ast.Name, ast.Attribute))
    ]
    return [name for name in names if _knob(name)]


def knob_bindings(src: Path) -> list[str]:
    """Every binding of a knob outside its owning module, in the modules under src."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ImportFrom):
                if node.level or node.module.startswith("strsort"):
                    found += [f"{where} imports {a.name}" for a in node.names if _knob(a.name)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
                    found += [f"{where} defaults to {name}" for name in _knobs_read(default)]
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                        found += [f"{where} field defaults to {n}" for n in _knobs_read(stmt.value)]
        for stmt in tree.body:  # a module-level copy, NAME = other.KNOB
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
                found += [
                    f"{path.name}:{stmt.lineno} copies {node.attr}"
                    for node in ast.walk(stmt.value)
                    if isinstance(node, ast.Attribute) and _knob(node.attr)
                ]
    return found


def test_no_module_binds_another_modules_knob():
    assert knob_bindings(SRC) == []


@pytest.mark.parametrize("code, binding", [
    ("from .basecase import LEAF_THRESHOLD\n", "imports LEAF_THRESHOLD"),
    ("from strsort.ssss import T_MEDIUM as T\n", "imports T_MEDIUM"),
    ("def f(n, v=DEFAULT_V):\n    return v\n", "defaults to DEFAULT_V"),
    ("def f(n, *, v=ssss.DEFAULT_V):\n    return v\n", "defaults to DEFAULT_V"),
    ("class C:\n    t: int = T_MEDIUM\n", "field defaults to T_MEDIUM"),
    ("from . import radix\nWIDE = radix.RADIX16_THRESHOLD\n", "copies RADIX16_THRESHOLD"),
])
def test_each_kind_of_binding_is_found(tmp_path, code, binding):
    (tmp_path / "mod.py").write_text(code)
    (tmp_path / "ok.py").write_text(
        "from .strset import WORD_CHARS, StringSet\nfrom . import basecase\n"
        "def f(n):\n    return n < basecase.LEAF_THRESHOLD\n"
    )
    found = knob_bindings(tmp_path)
    assert len(found) == 1 and found[0].startswith("mod.py:") and found[0].endswith(binding)
