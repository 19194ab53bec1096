"""Structure gate: the core folds ring points in one place, by floor.

``np.mod(x, 1.0)`` costs about twenty times ``x − ⌊x⌋`` on a 32,768-lane
float64 array (510 vs 22 µs) and gives the same bits on every finite
float, so :func:`~repro.core.segments.normalize_array` is the one array
fold of ``src/repro/core``, and it floors.  This stdlib ``ast`` check,
in the style of ``test_row_passes.py``, fails on any ``np.mod`` /
``np.remainder`` / ``np.fmod`` call there, and on any ``%`` (or ``%=``)
with a float constant operand.  The scalar ``interval.normalize`` keeps
its ``x % 1``: it serves exact ``Fraction`` ids, and its operand is an
int.  ``src/repro/faults`` is held to the NumPy-call half: its array
folds floor through :func:`~repro.faults.overlap.ring_gap` (which keeps
1.0, as ``np.mod`` does), and its scalar twins keep their ``% 1.0``.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro" / "core"
FAULTS = ROOT.parent / "faults"
FOLDS = {"mod", "remainder", "fmod"}


def _float_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def float_folds(tree: ast.AST) -> list:
    """``(line, what)`` of every NumPy fold call and float-constant ``%``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in FOLDS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")):
                found.append((node.lineno, func.attr))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if _float_constant(node.left) or _float_constant(node.right):
                found.append((node.lineno, "%"))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
            if _float_constant(node.value):
                found.append((node.lineno, "%="))
    return sorted(found)


def test_no_float_fold_but_the_floor():
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for path in sorted(ROOT.rglob("*.py"))
             for line, what in float_folds(ast.parse(path.read_text()))]
    assert found == []


def test_no_numpy_fold_call_in_faults():
    found = [f"{path.relative_to(FAULTS)}:{line}: {what}"
             for path in sorted(FAULTS.rglob("*.py"))
             for line, what in float_folds(ast.parse(path.read_text()))
             if what in FOLDS]
    assert found == []


def test_the_gate_sees_what_it_guards():
    tree = ast.parse(
        "np.mod(x, 1.0)\nnumpy.remainder(x, 1.0)\nnp.fmod(a, b)\n"
        "x % 1.0\n2.5 % x\nx %= 1.0\nx % -1.0\n"
        "x % 1\nx % n\nx - np.floor(x)\nmod(x, 1.0)\nq.mod(x)\n"
        "'%s' % x\nx %= 3\n")
    assert float_folds(tree) == [(1, "mod"), (2, "remainder"), (3, "fmod"),
                                 (4, "%"), (5, "%"), (6, "%="), (7, "%")]
