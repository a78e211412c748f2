"""Each sorter module owns its one step; parallel.py runs steps but holds none.

ssss.s5_step, radix.radix_step and mkqs.mkqs_step each take a classify
function: their sequential drivers pass an in-process classifier and
parallel.phased_sort passes phased_step bound to a pool.  So the pool
module never needs what happens inside a step, and a second copy of a
step there would drift from the first.
"""

import ast
from pathlib import Path

import pytest

import strsort

SRC = Path(strsort.__file__).parent
# what only a step needs: its pivot, splitter tree, classification,
# bucket settling, boundary LCPs, digits and one-bucket rule
STEP_INTERNALS = {
    "_median3",
    "step_tree",
    "classify_keys",
    "finish_buckets",
    "write_boundary_lcps",
    "step_digits",
    "digit_width",
    "skip_shared",
    "bucket_spans",
}
# module -> (its step, the sequential driver that calls it)
STEPS = {
    "ssss": ("s5_step", "s5_sort_items"),
    "radix": ("radix_step", "radix8_items"),
    "mkqs": ("mkqs_step", "mkqs_cached_items"),
}


def step_logic(path: Path) -> list[str]:
    """Every import or use of a step-internal name in the module at path,
    and every function it defines as a step or bucket function of its own."""
    found = []
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom):
            found += [f"{where} imports {a.name}" for a in node.names if a.name in STEP_INTERNALS]
        elif isinstance(node, ast.Name) and node.id in STEP_INTERNALS:
            found.append(f"{where} uses {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in STEP_INTERNALS:
            found.append(f"{where} uses {node.attr}")
        elif isinstance(node, ast.FunctionDef) and node.name != "phased_step":
            if node.name.endswith(("_step", "_buckets")):
                found.append(f"{where} defines {node.name}")
    return found


def _calls(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _name(expr) -> str | None:
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def test_parallel_holds_no_step_logic():
    assert step_logic(SRC / "parallel.py") == []


@pytest.mark.parametrize("module", STEPS)
def test_driver_and_phased_sort_call_the_one_step(module):
    step, driver = STEPS[module]
    tree = ast.parse((SRC / f"{module}.py").read_text())
    (body,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == driver]
    assert step in {_name(call.func) for call in _calls(body)}
    pool_side = ast.parse((SRC / "parallel.py").read_text())
    passed = [
        _name(arg) for call in _calls(pool_side) if _name(call.func) == "phased_sort" for arg in call.args
    ]
    assert step in passed


@pytest.mark.parametrize("code, use", [
    ("from .ssss import finish_buckets\n", "imports finish_buckets"),
    ("from .radix import digit_width as width\n", "imports digit_width"),
    ("from . import radix\ndef f(s, seg):\n    return radix.skip_shared(s, seg, 0)\n", "uses skip_shared"),
    ("import functools\nSTEP = functools.partial(step_tree)\n", "uses step_tree"),
    ("def _pivot_step(pool, sh, lo, hi, depth):\n    pass\n", "defines _pivot_step"),
    ("def _s5_buckets(sh, lo, hi, arg):\n    pass\n", "defines _s5_buckets"),
])
def test_each_kind_of_step_logic_is_found(tmp_path, code, use):
    path = tmp_path / "parallel.py"
    path.write_text(code)
    found = step_logic(path)
    assert len(found) == 1 and found[0].endswith(use)
    (tmp_path / "ok.py").write_text(
        "from .ssss import s5_step\nfrom . import basecase\n"
        "def phased_step(pool, sh, lo, hi, k, arg):\n    return basecase.distribute\n"
    )
    assert step_logic(tmp_path / "ok.py") == []
