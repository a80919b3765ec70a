"""No module but `rep` factors a map out of an epi by its own solve.

An `ast` scan of the package for `X.transpose().solve_right(...)`: the
per-vertex solve g * e = f through the transposes, which
`rep.descend_through_epi` does once for every epi.  `rep` itself is skipped.
"""

import ast
from pathlib import Path

import quivrep

PACKAGE = Path(quivrep.__file__).parent


def _transposed_solves(tree):
    """Line numbers of the `solve_right` calls whose receiver is a
    `.transpose()` call."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "solve_right"
            and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "transpose"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_rep_solves_through_the_transpose():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rep.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, line) for line in _transposed_solves(tree)]
    assert not found, "solve out of an epi with rep.descend_through_epi:\n" + "\n".join(found)


def test_the_scan_sees_a_transposed_solve():
    tree = ast.parse(
        "sol = proj_v.transpose().solve_right(g_v.transpose())\n"
        "x = a.solve_right(b.transpose())\n"
        "y = a.transpose().rref()\n"
        "z = through.transpose().solve_right(g.transpose())\n"
    )
    assert _transposed_solves(tree) == [1, 4]
