"""Every target that `perfbench/tracing.py` wraps still exists.

The tracer resolves its `TARGETS` only when a traced benchmark run installs
it, so a renamed or deleted function would break that run alone.  This test
reads the file's `TARGETS` literal without importing the benchmark and
resolves each "module:attribute" or "module:Class.method" entry.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in %s" % TRACING)


def test_every_tracing_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for layer, name, target in targets:
        module_name, path = target.split(":")
        obj = importlib.import_module(module_name)
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append("%s.%s -> %s" % (layer, name, target))
    assert not missing, "tracing targets that no longer resolve:\n" + "\n".join(missing)
