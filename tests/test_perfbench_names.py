"""Every srbox name the benchmark reaches still resolves.

``perfbench/`` drives srbox from outside the package: its tracer wraps each
``(module, attribute)`` of ``TARGETS``, its probes wrap ``train`` functions,
and its workloads call ``evalgen``, ``params`` and ``cli`` functions by
name. A deletion in ``src/`` that takes one of these names breaks the
benchmark while every other test passes. The first test reads
``perfbench/``, edits nothing there, and checks each name it finds; the
second runs CLI rounds under the benchmark's tracer, which also reads
attributes of what the traced functions take and return.
"""

import ast
import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np

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


# traced names that no CLI stage calls: list-form adapters that only the
# benchmark's oracle reaches, and it runs outside the tracer
UNTRACED_BY_THE_CLI = {"evalgen.query_distances", "evalgen.ranks_from_distances"}


def _text_inputs(tmp_path):
    """A one-document corpus, with a vectors file that covers every entity
    and relation, whose windows hold paths and shared heads and tails."""
    from srbox.params import ContextualVectors, write_vectors

    names = ["A", "B", "C", "D"]
    record = {
        "id": "d0",
        "tokens": [f"w{i}" for i in range(12)],
        "mentions": [{"entity": e, "start": 2 * i, "end": 2 * i} for i, e in enumerate(names)],
        "triplets": [{"head": h, "relation": r, "tail": t} for h, r, t in
                     (("A", "r1", "B"), ("B", "r2", "C"), ("A", "r3", "C"), ("D", "r1", "C"))],
    }
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(record) + "\n")
    vectors = tmp_path / "tokens.vec"
    mat = np.random.default_rng(0).normal(size=(12, 4))
    spans = {"r1": (1, 1), "r2": (3, 3), "r3": (5, 5)}
    write_vectors(str(vectors), ContextualVectors(4, {"d0": mat}, {"d0": spans}))
    return corpus, vectors


def test_a_traced_round_runs_every_counter(tmp_path):
    """Both kinds of round, kg and text, run under the benchmark's tracer
    (``--trace 1``): every stage exits 0, and every traced name a stage calls
    counts its calls and its counters. A rename the tracer reads, such as one
    of ``Grads``' tables, fails here."""
    from srbox import cli, evalgen

    kg = tmp_path / "kg"
    kg.mkdir()
    evalgen.save_kg(evalgen.build_grid_kg(width=5, height=4, seed=0), str(kg))
    corpus, vectors = _text_inputs(tmp_path)
    train = ["--steps", 2, "--batch-size", 4, "--dim", 4]
    stages = [
        ("train", "--mode", "kg", "--kg", kg, "--complex-pool", 3, *train),
        ("gen-queries", "--kg", kg, "--types", "1p,2i", "--count", 3),
        ("eval", "--kg", kg, "--checkpoint", tmp_path / "train" / "params.ckpt",
         "--queries", tmp_path / "gen-queries" / "queries_2i.jsonl"),
        ("mine", "--corpus", corpus),
        ("init-embeddings", "--corpus", corpus, "--vectors", vectors, "--dim", 4,
         "--checkpoint-out", tmp_path / "init.ckpt"),
        ("train", "--mode", "text", "--corpus", corpus, "--checkpoint", tmp_path / "init.ckpt",
         *train),
    ]
    tracer = _perfbench_module("tracer").Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        for name, *argv in stages:
            code = cli.main([name, *map(str, argv), "--out", str(tmp_path / name)])
            assert code == 0, name
    unreached = {name for name, stat in tracer.stats.items() if stat.calls == 0}
    assert unreached == UNTRACED_BY_THE_CLI
    idle = [f"{name}.{key}" for name, stat in tracer.stats.items() if name not in unreached
            for key, count in stat.counts.items() if count <= 0]
    assert not idle, f"counters that read 0: {idle}"
