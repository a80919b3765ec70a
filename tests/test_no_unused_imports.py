"""Every name a module of the package imports is used in that module.

An `ast` scan: a name bound by an `import` or `from ... import` statement
counts as used when the module reads it anywhere (as a bare name, or as the
base of an attribute).  `__init__.py` is skipped, since its imports are the
package's public names.
"""

import ast
from pathlib import Path

import quivrep

PACKAGE = Path(quivrep.__file__).parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused += ["%s:%d: %s" % (path.name, line, name) for line, name in _unused_imports(tree)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom .rep import ModHom, kernel\n\nkernel(os.sep)\n")
    assert _unused_imports(tree) == [(2, "ModHom")]
