"""Every srbox name the benchmark reaches still resolves.

``perfbench/`` drives srbox from outside the package: its tracer wraps each
``(module, attribute)`` of ``TARGETS``, its probes wrap ``train`` functions,
and its workloads call ``evalgen``, ``params`` and ``cli`` functions by
name. A deletion in ``src/`` that takes one of these names breaks the
benchmark while every other test passes. This test reads ``perfbench/``,
edits nothing there, and checks each name it finds.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name: str):
    """A ``perfbench/`` module, imported as the benchmark imports it: with
    its own directory on the path."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


def _workload_names() -> set[tuple[str, str]]:
    """(srbox module, attribute) of every attribute that ``workloads.py``
    reads off a module it imports ``from srbox``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "srbox"
        for alias in node.names
    }
    return {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def _reached() -> set[tuple[str, str]]:
    tracer = _perfbench_module("tracer")
    workloads = _perfbench_module("workloads")
    names = {(mod, attr) for mod, attr, _ in tracer.TARGETS}
    names |= {(mod, attr) for mod, attr, _ in workloads._Probe().replacements()}
    return names | _workload_names()


def test_every_name_the_benchmark_reaches_resolves():
    names = _reached()
    # the scan finds each kind of use: a traced class, a probe, and calls
    # of evalgen, params and cli functions
    assert {("evalgen", "EdgeIndex"), ("train", "_loss_and_grads"), ("evalgen", "query_distances"),
            ("params", "load"), ("cli", "main")} <= names
    missing = []
    for mod, attr in sorted(names):
        found = getattr(importlib.import_module(f"srbox.{mod}"), attr, None)
        # the tracer wraps a class through the ``__init__`` it defines
        if found is None or (isinstance(found, type) and "__init__" not in found.__dict__):
            missing.append(f"srbox.{mod}.{attr}")
    assert not missing, f"perfbench reaches names srbox no longer has: {missing}"
