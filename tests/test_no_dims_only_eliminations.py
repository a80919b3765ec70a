"""No module of the library builds a kernel or cokernel module only to read
its dimension vector: `kernel`, `cokernel` and `cokernel_data` solve for
bases, build the module and check its relations and commutations, while
the dimensions are ncols - rank and nrows - rank of each block."""

import ast
from pathlib import Path

import quivrep

SOURCES = sorted(Path(quivrep.__file__).parent.rglob("*.py"))


def _called(node):
    """The name of the function a Call node calls, or None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dims_only_uses(tree):
    """(line, pattern) of every `kernel(...)[0].dims`,
    `cokernel(...)[0].dims` and `cokernel_data(...).rep.dims`."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "dims"):
            continue
        base = node.value
        if (
            isinstance(base, ast.Subscript)
            and isinstance(base.slice, ast.Constant)
            and base.slice.value == 0
            and _called(base.value) in ("kernel", "cokernel")
        ):
            found.append((node.lineno, "%s(...)[0].dims" % _called(base.value)))
        elif (
            isinstance(base, ast.Attribute)
            and base.attr == "rep"
            and _called(base.value) == "cokernel_data"
        ):
            found.append((node.lineno, "cokernel_data(...).rep.dims"))
    return found


def test_detects_dims_only_modules():
    tree = ast.parse(
        "a = kernel(f)[0].dims\n"
        "b = rep.cokernel(f)[0].dims\n"
        "c = cokernel_data(v).rep.dims\n"
        "d = kernel(f)[1].dims, cokernel_data(v).proj, kernel(f)[0], image(f)[0].dims\n"
        "e = self.ladder.cokernels()[0].rep.dims\n"
    )
    assert sorted(_dims_only_uses(tree)) == [
        (1, "kernel(...)[0].dims"),
        (2, "cokernel(...)[0].dims"),
        (3, "cokernel_data(...).rep.dims"),
    ]


def test_no_module_built_only_for_its_dims():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, what) for line, what in _dims_only_uses(tree)]
    assert found == []
