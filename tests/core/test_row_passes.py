"""Structure gate: the engines reduce lane matrices in row passes.

NumPy runs ``argmax`` / ``argmin`` / ``cumsum`` along axis 0 of a
C-ordered ``(K, B)`` lane matrix as one inner-loop call per lane: a
``(2, 4096)`` ``argmin`` costs about as much as twenty ``min`` calls
over the same axis.  So the engines of ``src/repro/{core,peer,faults}``
pick and count through :func:`~repro.core.walk.first_rows`,
:func:`~repro.core.walk.count_rows` and running sums added row by row.
This stdlib ``ast`` check, in the style of ``test_unused_imports.py``,
fails on any of the three called with axis 0, by keyword or by position
(``np.argmax(a, 0)``, ``a.argmax(0)``).
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
LAYERS = ("core", "peer", "faults")
PER_LANE = {"argmax", "argmin", "cumsum"}


def axis0_calls(tree: ast.AST) -> list:
    """``(line, name)`` of every per-lane reduction along axis 0."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None))
        if name not in PER_LANE:
            continue
        # np.argmax(a, axis) or a.argmax(axis)
        on_module = (isinstance(func, ast.Name)
                     or isinstance(func, ast.Attribute)
                     and isinstance(func.value, ast.Name)
                     and func.value.id in ("np", "numpy"))
        axis = [kw.value for kw in node.keywords if kw.arg == "axis"]
        at = 1 if on_module else 0
        if len(node.args) > at:
            axis.append(node.args[at])
        if any(isinstance(a, ast.Constant) and a.value == 0 for a in axis):
            found.append((node.lineno, name))
    return found


def test_no_per_lane_reduction_along_axis_0():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for layer in LAYERS
             for path in sorted((ROOT / layer).rglob("*.py"))
             for line, name in axis0_calls(ast.parse(path.read_text()))]
    assert found == []


def test_the_gate_sees_what_it_guards():
    tree = ast.parse(
        "np.argmax(a, axis=0)\nnp.argmin(a, 0)\na.cumsum(axis=0)\n"
        "a.argmax(0)\nnumpy.cumsum(a, 0)\nargmin(a, axis=0)\n"
        "np.argmax(a)\nnp.argmax(a, axis=1)\na.cumsum()\nnp.cumsum(a, 1)\n"
        "a.sum(axis=0)\nnp.argmax(a[0])\n")
    assert axis0_calls(tree) == [(1, "argmax"), (2, "argmin"), (3, "cumsum"),
                                 (4, "argmax"), (5, "cumsum"), (6, "argmin")]
