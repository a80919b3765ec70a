"""Library checks must survive `python -O`, which strips `assert`."""

import ast
from pathlib import Path

import quivrep

SOURCES = sorted(Path(quivrep.__file__).parent.rglob("*.py"))


def test_sources_found():
    assert any(p.name == "linalg.py" for p in SOURCES)


def test_no_assert_statements_in_library():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
