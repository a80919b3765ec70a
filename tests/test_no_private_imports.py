"""No module of the library imports or reads another module's private
(`_`-prefixed) name: what one module needs from another is public there."""

import ast
from pathlib import Path

import quivrep

SOURCES = sorted(Path(quivrep.__file__).parent.rglob("*.py"))
MODULES = {p.stem for p in SOURCES}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_uses(tree):
    """(line, name) of every private name taken from another library module."""
    aliases = set()  # local names bound to library modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "quivrep"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "quivrep") and alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "quivrep":
                    aliases.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.append((node.lineno, node.attr))
    return found


def test_detects_private_imports_and_reads():
    tree = ast.parse(
        "from .rep import _unvec_hom, hom_space\n"
        "from . import ladder as ladder_mod\n"
        "import quivrep.selfext\n"
        "def f(x):\n"
        "    from .ladder import _h1_ident\n"
        "    return ladder_mod._solve(x), quivrep.selfext._hom_u_image, x._private\n"
    )
    assert sorted(_private_uses(tree)) == [
        (1, "_unvec_hom"), (5, "_h1_ident"), (6, "_hom_u_image"), (6, "_solve"),
    ]


def test_no_cross_module_private_names():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d %s" % (path.name, line, name) for line, name in _private_uses(tree)]
    assert found == []
