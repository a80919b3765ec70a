"""Library checks must survive `python -O`, which strips `assert`."""

import ast
import subprocess
import sys
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


def _cli_output(env, *python_flags):
    cmd = [sys.executable, *python_flags, "-m", "quivrep.cli", "example", "kronecker"]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_example_under_optimize_matches_plain_run(src_env):
    assert _cli_output(src_env, "-O") == _cli_output(src_env)
