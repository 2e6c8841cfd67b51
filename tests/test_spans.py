"""Every function the benchmark's tracer wraps exists in the package.

perfbench/spans.py names (module, function) pairs that `Tracer.install`
looks up with a bare getattr, so a traced run stops as soon as the program
drops one of them.  The table is read from the file's source, without
importing or executing it.
"""

import ast
import importlib
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets():
    tree = ast.parse(SPANS_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            spans = ast.literal_eval(node.value)
            return [target for targets in spans.values() for target in targets]
    raise AssertionError("no SPANS table in perfbench/spans.py")


def test_every_traced_function_resolves():
    targets = _span_targets()
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"modequiv.{module}"), name, None)), (
            f"modequiv.{module}.{name} is traced but not defined"
        )
    # kept only for its span until the benchmark drops it
    assert ("linalg", "inverse_table") in targets
