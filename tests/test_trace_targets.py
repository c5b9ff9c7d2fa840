"""The names that the benchmark's tracer wraps exist in the program.

``perfbench/tracing.py`` looks up every entry of its ``TARGETS`` in its
``longeq`` module when ``Tracer.install`` runs, so deleting or renaming
one of those names makes the traced benchmark pass raise. This test fails
first, in the tier-1 suite.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_its_module():
    """Load ``perfbench/tracing.py`` by path (it imports only the standard
    library) and resolve each ``TARGETS`` entry as ``Tracer.install`` does:
    a ``Class.method`` entry names a classmethod in the class's own
    namespace, a class entry a class with its own ``__init__``, and any
    other entry a function."""
    imported = set()
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.partition(".")[0])
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    spans = set()
    for short, names in tracing.TARGETS.items():
        module = importlib.import_module(f"longeq.{short}")
        for name in names:
            span = f"{short}.{name}"
            spans.add(span)
            owner_name, _, attr = name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                assert isinstance(owner, type), span
                assert isinstance(vars(owner).get(attr), classmethod), span
                continue
            obj = getattr(module, name, None)
            if isinstance(obj, type):
                assert "__init__" in vars(obj), span
            else:
                assert callable(obj), span
    assert tracing.COUNTED | tracing.CAPTURE <= spans
