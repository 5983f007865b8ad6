"""Per-layer tracing installed from outside the package.

Each traced name is replaced, for the duration of a ``with`` block, in every
srbox module whose namespace binds it, so a caller that imported the name
(``from srbox.boxalg import execute_with_trace``) sees the wrapper too.
Classes are traced through their ``__init__``. Spans nest: a wrapper adds
its inclusive time to its parent's child time, which gives self time as
inclusive minus children.

Everything stays in memory; the caller reads ``Tracer.stats`` at the end.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

MODULES = ("cli", "corpus", "structures", "boxalg", "params", "train", "evalgen")


def _adam_rows(args, kwargs, result) -> int:
    grads = args[1]
    return len(grads.entity) + len(grads.rel_center) + len(grads.rel_offset) + len(grads.net)


def _batch_rows(args, kwargs, result) -> int:
    return int(args[0].shape[0])


def _ranked(args, kwargs, result) -> int:
    return len(result)


def _with_replacement(args, kwargs, result) -> int:
    return int(result is not None and result.with_replacement)


# (module, attribute, {counter name: f(args, kwargs, result) -> int})
TARGETS: tuple[tuple[str, str, dict[str, Callable]], ...] = (
    ("boxalg", "execute_with_trace", {}),
    ("boxalg", "intersect_with_cache", {}),
    ("boxalg", "intersect_backward", {}),
    ("boxalg", "backward_through_dag", {}),
    ("boxalg", "distance_backward", {}),
    ("boxalg", "distance_batch", {"rows": _batch_rows}),
    ("train", "adam_step", {"rows": _adam_rows}),
    ("train", "sample_negatives", {"with_replacement": _with_replacement}),
    ("train", "train", {}),
    ("evalgen", "EdgeIndex", {}),
    ("evalgen", "generate_queries", {}),
    ("evalgen", "query_distances", {}),
    ("evalgen", "ranks_from_distances", {"ranked": _ranked}),
    ("corpus", "load_corpus", {}),
    ("corpus", "chunk_sequences", {}),
    ("structures", "mine_structures", {}),
    ("structures", "sample_pair_from_structures", {}),
    ("params", "load_vectors", {}),
    ("params", "import_contextual", {}),
    ("params", "save", {}),
    ("params", "load", {}),
)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {
            f"{mod}.{attr}": Stat(counts={c: 0 for c in counters})
            for mod, attr, counters in TARGETS
        }
        self._stack: list[list[float]] = []

    def _wrap(self, name: str, fn: Callable, counters: dict[str, Callable]) -> Callable:
        stat = self.stats[name]
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.s += dt
                stat.child_s += frame[0]
            for key, count in counters.items():
                stat.counts[key] += count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        with patched(
            (mod, attr, lambda orig, n=f"{mod}.{attr}", c=counters: self._wrap(n, orig, c))
            for mod, attr, counters in TARGETS
        ):
            yield self


@contextmanager
def patched(replacements):
    """Replace ``srbox.<mod>.<attr>`` by ``make(original)`` wherever an srbox
    module binds the original object; a class gets a wrapped ``__init__``."""
    modules = [importlib.import_module(f"srbox.{m}") for m in MODULES]
    undo: list[tuple[object, str, object]] = []
    try:
        for mod, attr, make in replacements:
            orig = getattr(importlib.import_module(f"srbox.{mod}"), attr)
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                undo.append((orig, "__init__", init))
                setattr(orig, "__init__", make(init))
                continue
            wrapper = make(orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, key, value))
                        setattr(m, key, wrapper)
        yield
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
