"""Nothing changes a matrix after construction.

A `Mat` holds one form, its integer rows over a denominator (`_ints` and
`_den`), and a flag saying it is an identity (`_is_identity`), all bound in
`Mat.__init__`, `Mat.from_ints` or `Mat.identity` and never again.  A
product returns the partner of a flagged operand as it is, so a flag bound
anywhere else could make a product wrong.  A matrix's `rows` are read from
its form (over GF(p) they are the stored rows themselves), so a write into
`rows` or `_ints` would change a value that other code already holds.
Library code assembles row lists first and builds the `Mat` from them.
"""

import ast
from pathlib import Path

import quivrep

SOURCES = sorted(Path(quivrep.__file__).parent.rglob("*.py"))
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}
WRITE = (ast.Store, ast.Del)
FORM = {"_ints", "_den", "_is_identity"}
BUILDERS = {"__init__", "from_ints", "identity"}


def _reaches_rows(node):
    """True iff node is `<expr>.rows` or `<expr>._ints`, possibly subscripted."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr in ("rows", "_ints")


def _in_builders(tree):
    """The ids of the nodes inside the constructors named in BUILDERS."""
    inside = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Mat":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in BUILDERS:
                    inside.update(map(id, ast.walk(fn)))
    return inside


def _setattr_name(node):
    """The attribute name a `setattr(obj, "name", ...)` or
    `<expr>.__setattr__(obj, "name", ...)` call sets, else None."""
    func = node.func
    if not (isinstance(func, ast.Name) and func.id == "setattr"
            or isinstance(func, ast.Attribute) and func.attr == "__setattr__"):
        return None
    if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
        return node.args[1].value
    return None


def _rows_writes(tree):
    """Line numbers of every write into a matrix: item or slice assignment,
    augmented assignment and deletion through `.rows[...]` or `._ints[...]`,
    a mutating list method called on them or one of their rows, a binding of
    `.rows`, and a binding of `._ints`, `._den` or `._is_identity` outside
    the constructors named in BUILDERS, also through `setattr`."""
    builders = _in_builders(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, WRITE):
            hit = _reaches_rows(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, WRITE):
            hit = node.attr == "rows" or node.attr in FORM and id(node) not in builders
        elif isinstance(node, ast.Call):
            func = node.func
            hit = _setattr_name(node) in FORM | {"rows"} or (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
                and _reaches_rows(func.value)
            )
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


def test_detects_form_bindings_outside_the_constructors():
    tree = ast.parse(
        "class Mat:\n"
        "    def __init__(self, rows):\n"
        "        self._ints, self._den = rows, 1\n"
        "    @staticmethod\n"
        "    def from_ints(rows, den):\n"
        "        m = Mat.__new__(Mat)\n"
        "        m._ints, m._den = rows, den\n"
        "    def remake(self):\n"
        "        self._ints = []\n"
        "        del self._den\n"
        "        self._ints[0][0] = 1\n"
        "        self._ints[0].append(1)\n"
        "def f(m, other):\n"
        "    m._den = 2\n"
        "    setattr(m, '_ints', [])\n"
        "    object.__setattr__(m, '_den', 1)\n"
        "    m._ints += [[1]]\n"
        "    x = m._ints[0][0] + other._den\n"
    )
    assert _rows_writes(tree) == [9, 10, 11, 12, 14, 15, 16, 17]


def test_detects_identity_flag_bindings_outside_the_constructors():
    tree = ast.parse(
        "class Mat:\n"
        "    def __init__(self, rows):\n"
        "        self._is_identity = False\n"
        "    @staticmethod\n"
        "    def identity(field, n):\n"
        "        m = Mat.__new__(Mat)\n"
        "        m._is_identity = True\n"
        "    def transpose(self):\n"
        "        t = Mat.from_ints(self.field, [], 1, 0, 0)\n"
        "        t._is_identity = self._is_identity\n"
        "def f(m):\n"
        "    m._is_identity = True\n"
        "    setattr(m, '_is_identity', True)\n"
        "    object.__setattr__(m, '_is_identity', False)\n"
        "    del m._is_identity\n"
        "    return m._is_identity\n"
    )
    assert _rows_writes(tree) == [10, 12, 13, 14, 15]


def test_no_writes_into_rows():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, line) for line in _rows_writes(tree)]
    assert found == []
