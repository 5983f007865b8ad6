"""Reference answers written apart from the package.

Nothing here imports srbox. Each function recomputes, by the plainest means
available, a quantity the pipeline also produces: answer sets from grid
coordinates, mined-structure counts by all-pairs enumeration, chain-query
distances from d_out + alpha * d_in, ranks by counting, contextual centers
as span-endpoint means, and the checkpoint layout from its byte format.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

# Displacements of the benchmark grid: every relation moves a cell by one of
# these vectors, and a move that leaves the grid makes no edge.
GRID_MOVES: dict[str, tuple[tuple[int, int], ...]] = {
    "east": ((1, 0),),
    "north": ((0, 1),),
    "west": ((-1, 0),),
    "south": ((0, -1),),
    "east_span": ((1, 0), (2, 0)),
    "north_span": ((0, 1), (0, 2)),
    "east_diag": ((1, 1), (1, -1)),
    "west_mix": ((-1, -1), (-2, 0)),
}

# (anchors, edges, sorted operator kinds) of each query shape
SHAPES: dict[str, tuple[int, int, tuple[str, ...]]] = {
    "1p": (1, 1, ("projection",)),
    "2p": (1, 2, ("projection",) * 2),
    "3p": (1, 3, ("projection",) * 3),
    "2i": (2, 2, ("intersection",)),
    "3i": (3, 3, ("intersection",)),
    "ip": (2, 3, ("intersection", "projection")),
    "pi": (2, 3, ("intersection", "projection")),
    "2u": (2, 2, ("union",)),
    "up": (2, 3, ("projection", "union")),
}


class Grid:
    """A width x height grid whose cells carry arbitrary names."""

    def __init__(self, width: int, height: int, cell_of: dict[str, tuple[int, int]],
                 moves: dict[str, tuple[tuple[int, int], ...]]) -> None:
        self.width = width
        self.height = height
        self.cell_of = cell_of
        self.name_of = {xy: name for name, xy in cell_of.items()}
        self.moves = moves

    def step(self, names: set[str], rel: str, inverse: bool) -> set[str]:
        sign = -1 if inverse else 1
        out = set()
        for name in names:
            x, y = self.cell_of[name]
            for dx, dy in self.moves[rel]:
                nx, ny = x + sign * dx, y + sign * dy
                if 0 <= nx < self.width and 0 <= ny < self.height:
                    out.add(self.name_of[(nx, ny)])
        return out

    def all_edges(self) -> set[tuple[str, str, str]]:
        return {
            (h, rel, t)
            for h in self.cell_of
            for rel in self.moves
            for t in self.step({h}, rel, False)
        }


def adjacency(edges) -> dict[tuple[str, str, bool], set[str]]:
    """(entity, relation, inverse) -> neighbour names over an edge list."""
    adj: dict[tuple[str, str, bool], set[str]] = {}
    for h, r, t in edges:
        adj.setdefault((h, r, False), set()).add(t)
        adj.setdefault((t, r, True), set()).add(h)
    return adj


def dag_answers(anchors, edges, kinds: dict, answer_node: int, step) -> set:
    """Set semantics of a query DAG: anchors are singletons, each edge maps
    its source set through ``step(set, relation, inverse)``, intersection and
    union nodes combine their incoming sets. Nodes are resolved in whatever
    order their inputs become available."""
    values = {node: {ent} for node, ent in anchors}
    pending = dict(kinds)
    while pending:
        progressed = False
        for node, kind in list(pending.items()):
            incoming = [e for e in edges if e[1] == node]
            if not all(src in values for src, _, _, _ in incoming):
                continue
            images = [step(values[src], rel, inv) for src, _, rel, inv in incoming]
            values[node] = set.intersection(*images) if kind == "intersection" else set.union(*images)
            del pending[node]
            progressed = True
        if not progressed:
            raise ValueError("query DAG has a cycle or a dangling node")
    return values[answer_node]


def check_query_record(rec: dict, grid: Grid, train_adj) -> str | None:
    """None when the record's shape and both answer sets are right, else why not."""
    dag = rec["dag"]
    anchors = [(n, e) for n, e in dag["anchors"]]
    edges = [(s, d, r, bool(i)) for s, d, r, i in dag["edges"]]
    kinds = {n: k for n, k in dag["nodes"]}
    shape = (len(anchors), len(edges), tuple(sorted(kinds.values())))
    if shape != SHAPES[rec["type"]]:
        return f"{rec['type']} query has shape {shape}"
    full = dag_answers(anchors, edges, kinds, dag["answer_node"], grid.step)
    train = dag_answers(
        anchors, edges, kinds, dag["answer_node"],
        lambda names, rel, inv: set().union(*(train_adj.get((n, rel, inv), ()) for n in names)),
    )
    if set(rec["answers_full"]) != full:
        return f"{rec['type']} query full answers differ from the grid's"
    if set(rec["answers_train"]) != train:
        return f"{rec['type']} query train answers differ from the train edges'"
    if not full - train:
        return f"{rec['type']} query has no hard answer"
    return None


# ---------------------------------------------------------------------------
# checkpoints and distances


def read_checkpoint(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and arrays of a checkpoint, parsed from its documented layout:
    magic, u32 version, u64 header length, JSON header, then little-endian
    float64 arrays in manifest order."""
    raw = path.read_bytes()
    if raw[:8] != b"SRBXCKPT":
        raise ValueError(f"{path}: bad magic")
    _, header_len = struct.unpack_from("<IQ", raw, 8)
    pos = 20 + header_len
    header = json.loads(raw[20:pos])
    arrays = {}
    for name, shape in header["arrays"]:
        count = int(np.prod(shape)) if shape else 1
        arrays[name] = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).reshape(shape)
        pos += 8 * count
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return header, arrays


def chain_distances(header: dict, arrays: dict, anchor: str,
                    hops: list[tuple[str, bool]], alpha: float) -> np.ndarray:
    """L1 distance d_out + alpha * d_in of every entity to a chain query's box.

    The box starts as the anchor's point; each hop adds the relation's center
    row (inverse rows follow the R forward rows) and offset row (row 0 when
    offsets are shared)."""
    ents = arrays["entity_centers"]
    rel_index = {r: i for i, r in enumerate(header["relation_ids"])}
    n_rel = len(header["relation_ids"])
    shared = arrays["relation_offsets"].shape[0] == 1
    center = ents[header["entity_ids"].index(anchor)].copy()
    offset = np.zeros_like(center)
    for rel, inverse in hops:
        row = rel_index[rel] + (n_rel if inverse else 0)
        center = center + arrays["relation_centers"][row]
        offset = offset + arrays["relation_offsets"][0 if shared else row]
    hi = center + offset
    lo = center - offset
    d_out = np.maximum(ents - hi, 0.0).sum(axis=1) + np.maximum(lo - ents, 0.0).sum(axis=1)
    d_in = np.abs(center - np.clip(ents, lo, hi)).sum(axis=1)
    return d_out + alpha * d_in


def chain_hops(rec: dict) -> tuple[str, list[tuple[str, bool]]] | None:
    """Anchor and hops of a chain-shaped query record, else None."""
    dag = rec["dag"]
    if len(dag["anchors"]) != 1 or any(k != "projection" for _, k in dag["nodes"]):
        return None
    node, anchor = dag["anchors"][0]
    by_src = {s: (d, r, bool(i)) for s, d, r, i in dag["edges"]}
    hops = []
    while node in by_src:
        node, rel, inverse = by_src[node]
        hops.append((rel, inverse))
    return anchor, hops


def naive_ranks(dist: np.ndarray, hard: list[int], known: list[int]) -> list[float]:
    """Filtered rank of each hard answer: one plus every non-answer entity
    strictly closer, plus half of those exactly as close."""
    competitor = np.ones(dist.shape[0], dtype=bool)
    competitor[known] = False
    pool = dist[competitor]
    return [
        1.0 + int(np.count_nonzero(pool < dist[a])) + 0.5 * int(np.count_nonzero(pool == dist[a]))
        for a in hard
    ]


def rank_metrics(ranks: list[float]) -> dict[str, float]:
    n = len(ranks)
    return {
        "H@1": sum(r <= 1 for r in ranks) / n,
        "H@3": sum(r <= 3 for r in ranks) / n,
        "H@10": sum(r <= 10 for r in ranks) / n,
        "MRR": sum(1.0 / r for r in ranks) / n,
    }


# ---------------------------------------------------------------------------
# corpus side


def sequence_triplets(docs: list[dict], seq_len: int) -> list[set[tuple[str, str, str]]]:
    """Triplet set of every seq_len-token window of the concatenated corpus:
    an entity is in a window when one of its mentions lies wholly inside,
    and a triplet of a covered document counts when both ends are in."""
    starts = []
    pos = 0
    for doc in docs:
        starts.append(pos)
        pos += len(doc["tokens"])
    out = []
    for w0 in range(0, pos, seq_len):
        w1 = w0 + seq_len
        inside = set()
        covered = []
        for doc, s in zip(docs, starts):
            if s < w1 and s + len(doc["tokens"]) > w0:
                covered.append(doc)
                inside |= {m["entity"] for m in doc["mentions"]
                           if s + m["start"] >= w0 and s + m["end"] < w1}
        out.append({(t["head"], t["relation"], t["tail"]) for doc in covered
                    for t in doc["triplets"] if t["head"] in inside and t["tail"] in inside})
    return out


def structure_counts(triplets: set[tuple[str, str, str]]) -> dict[str, int]:
    """Structures of each kind by enumerating every pair of triplets."""
    facts = sorted(triplets)
    counts = {"simple": len(facts), "path": 0, "outward": 0, "inward": 0}
    for i, a in enumerate(facts):
        for j, b in enumerate(facts):
            if i != j and a[2] == b[0] and a[0] != b[2]:
                counts["path"] += 1
            if i < j and a[0] == b[0] and a[2] != b[2]:
                counts["outward"] += 1
            if i < j and a[2] == b[2] and a[0] != b[0]:
                counts["inward"] += 1
    return counts


def contextual_centers(docs: list[dict], vectors: dict[str, np.ndarray]):
    """Entity centers as the mean over mentions of (h_start + h_end) / 2, and
    forward relation centers as the same mean over annotated relation spans."""
    ent_parts: dict[str, list[np.ndarray]] = {}
    rel_parts: dict[str, list[np.ndarray]] = {}
    for doc in docs:
        mat = vectors[doc["id"]]
        for m in doc["mentions"]:
            ent_parts.setdefault(m["entity"], []).append((mat[m["start"]] + mat[m["end"]]) / 2)
        for rel, (s, e) in doc["relation_spans"].items():
            rel_parts.setdefault(rel, []).append((mat[s] + mat[e]) / 2)
    mean = lambda parts: {k: np.mean(v, axis=0) for k, v in parts.items()}
    return mean(ent_parts), mean(rel_parts)
