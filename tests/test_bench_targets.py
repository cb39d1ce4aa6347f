"""Every callable the benchmark traces exists under the name it traces.

`bench/tracing.py` patches its targets by name and reports the ones it cannot
find instead of failing, so a renamed public name would silently drop a layer
from the benchmark.  The file is parsed, not imported.
"""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced_names():
    """(module, attribute) of each entry of the TARGETS tuple."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TARGETS"]):
            return [(entry.elts[1].value, entry.elts[2].value)
                    for entry in node.value.elts]
    raise AssertionError(f"{TRACING} assigns no TARGETS")


def test_every_traced_target_resolves():
    names = _traced_names()
    assert names
    missing = []
    for module_name, attr in names:
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            # methods are patched on the class that defines them
            cls = getattr(module, owner_name, None)
            found = cls is not None and member in vars(cls)
        else:
            found = hasattr(module, member)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing
