"""Nothing writes into a matrix's `rows` after construction.

Over Q a `Mat` keeps its canonical integer form, made once from its rows or
the other way round, so a write into `rows` would leave the two forms of one
matrix disagreeing.  Library code assembles row lists first and builds the
`Mat` from them; only `linalg`'s constructors bind `rows`.
"""

import ast
from pathlib import Path

import quivrep

SOURCES = sorted(Path(quivrep.__file__).parent.rglob("*.py"))
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
WRITE = (ast.Store, ast.Del)


def _reaches_rows(node):
    """True iff node is `<expr>.rows`, possibly subscripted."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def _rows_writes(tree, may_bind=False):
    """Line numbers of every write into `.rows`: item or slice assignment,
    augmented assignment and deletion through `.rows[...]`, a mutating list
    method called on `.rows` or one of its rows, and, unless `may_bind`, a
    binding of `.rows` itself."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, WRITE):
            hit = _reaches_rows(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, WRITE):
            hit = node.attr == "rows" and not may_bind
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in MUTATORS and _reaches_rows(node.func.value)
        else:
            hit = False
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_detects_rows_writes():
    tree = ast.parse(
        "m.rows[i][j] = x\n"
        "m.rows[i][a:b] = list(r)\n"
        "m.rows[i] += r\n"
        "m.rows[0].append(x)\n"
        "m.rows = []\n"
        "rows[i][j] = m.rows[i][j]\n"
        "del m.rows[0]\n"
        "y = [r[:] for r in m.rows[:k]]\n"
    )
    assert _rows_writes(tree) == [1, 2, 3, 4, 5, 7]
    assert _rows_writes(tree, may_bind=True) == [1, 2, 3, 4, 7]


def test_no_writes_into_rows():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, line)
                  for line in _rows_writes(tree, may_bind=path.name == "linalg.py")]
    assert found == []
