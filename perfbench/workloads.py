"""The benchmark's workloads: how each makes its inputs, the srbox stages one
round runs, and the checks of every round's outputs.

A round drives the command-line pipeline in process through
``srbox.cli.main``. Two probes ride along on every round: a timer around
``srbox.train.train``, which splits set-up from the optimisation loop, and a
recorder on ``srbox.train._loss_and_grads``, which counts the examples the
loop forms and keeps them so their negatives can be checked afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from srbox import cli, evalgen, params as params_mod

import oracles
from tracer import Tracer, patched

DIM = 32
BATCH = 64
LR = 0.3  # rounds train for tens of steps, so the schedule peaks higher than the 0.05 default
ALPHA = 0.02  # the [train] alpha default, which eval scores with
TYPES = ("1p", "2p", "3p", "2i", "3i", "ip", "pi", "2u", "up")
FILLER = ("the", "a", "near", "then", "so", "and", "also", "here")
TEXT_PASSES = 3


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    width: int
    height: int
    steps: int
    count: int  # eval queries per shape
    complex_pool: int = 0  # kg mode: complex training queries per shape
    text: bool = False
    learning_gate: bool = False  # trained MRR must be at least twice the untrained one


SPECS = {
    s.name: s
    for s in (
        Spec("kg-mixed-200", "200-entity grid, 2p/3p/2i/3i pool: DAG execution, intersection, "
             "distance backward and Adam dominate", 20, 10, steps=80, count=500,
             complex_pool=100, learning_gate=True),
        Spec("kg-1p-5000", "5000-entity grid, 1p only: per-key negative pools, EdgeIndex "
             "rebuilds and ranking against every entity dominate; no intersection", 100, 50,
             steps=30, count=30),
        Spec("text-ctx", "short documents over a grid: chunking, mining, contextual init, "
             "checkpoint I/O and text-mode sampling run only here", 20, 10, steps=40,
             count=500, text=True),
    )
}


@dataclass
class Inputs:
    kg_dir: Path
    grid: oracles.Grid
    entity_names: list[str]  # sorted, which is the order load_kg gives
    relation_names: list[str]
    train_adj: dict
    corpus: Path | None = None
    vectors: Path | None = None
    docs: list[dict] = field(default_factory=list)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)


def _write_kg(kg_dir: Path, splits: dict[str, list[tuple[str, str, str]]]) -> None:
    kg_dir.mkdir(parents=True)
    for split, rows in splits.items():
        (kg_dir / f"{split}.tsv").write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows))


def _grid_split(spec: Spec, seed: int):
    """The seeded grid KG split, as name triplets, with the grid's cell names."""
    kg = evalgen.build_grid_kg(spec.width, spec.height, seed=seed)
    named = {
        split: [(kg.entity_ids[h], kg.relation_ids[r], kg.entity_ids[t]) for h, r, t in kg.edges(split)]
        for split in evalgen.SPLITS
    }
    cell_of = {f"c{x:02d}_{y:02d}": (x, y) for x in range(spec.width) for y in range(spec.height)}
    return named, cell_of


def _inputs(kg_dir: Path, grid: oracles.Grid, splits) -> Inputs:
    edges = [e for rows in splits.values() for e in rows]
    if set(edges) != grid.all_edges() or len(edges) != len(set(edges)):
        raise RuntimeError("grid KG splits do not partition the grid's displacement edges")
    return Inputs(
        kg_dir, grid,
        sorted({h for h, _, _ in edges} | {t for _, _, t in edges}),
        sorted({r for _, r, _ in edges}),
        oracles.adjacency(splits["train"]),
    )


def make_inputs(spec: Spec, work: Path, seed: int) -> Inputs:
    splits, cell_of = _grid_split(spec, seed)
    if not spec.text:
        _write_kg(work / "kg", splits)
        grid = oracles.Grid(spec.width, spec.height, cell_of, oracles.GRID_MOVES)
        return _inputs(work / "kg", grid, splits)
    return _make_text_inputs(spec, work, seed, splits, cell_of)


def _make_text_inputs(spec, work, seed, splits, cell_of) -> Inputs:
    """A corpus of short documents stating the grid's train edges, with a
    matching contextual-vectors file, plus the grid KG for evaluation.

    Every train edge is stated in TEXT_PASSES documents. Within a pass, edges
    are grouped by 4x4 block of their head cell and the blocks shuffled, so
    each token window holds a local subgraph rich in paths and shared heads
    and tails. Entities and relations are renamed in order of first mention,
    so the corpus interns them in the same order the KG loader sorts them and
    a text-trained checkpoint lines up with the KG.
    """
    rng = np.random.default_rng([seed & 0xFFFFFFFF, 2301])
    block = lambda name: (cell_of[name][0] // 4, cell_of[name][1] // 4)
    blocks = sorted({block(h) for h, _, _ in splits["train"]})
    edges = []
    for _ in range(TEXT_PASSES):
        rank = {blocks[b]: i for i, b in enumerate(rng.permutation(len(blocks)))}
        shuffled = [splits["train"][i] for i in rng.permutation(len(splits["train"]))]
        edges += sorted(shuffled, key=lambda e: rank[block(e[0])])

    ent_name: dict[str, str] = {}
    rel_name: dict[str, str] = {}
    name = lambda table, key, fmt: table.setdefault(key, fmt.format(len(table), key))
    u, w = rng.standard_normal((2, DIM)) * 0.05

    docs, matrices = [], {}

    def emit(tokens, mentions, triplets, spans, kinds):
        doc_id = f"d{len(docs):05d}"
        docs.append({"id": doc_id, "tokens": tokens, "mentions": mentions,
                     "triplets": triplets, "relation_spans": spans})
        # entity and relation tokens carry their grid geometry, everything else is noise
        mat = rng.standard_normal((len(tokens), DIM)) * 0.01
        for i, (dx, dy) in kinds.items():
            mat[i] += dx * u + dy * w
        matrices[doc_id] = mat

    def mention(tokens, mentions, kinds, cell):
        i = len(tokens)
        tokens += ["cell", name(ent_name, cell, "e{:04d}")]
        mentions.append({"entity": ent_name[cell], "start": i, "end": i + 1})
        kinds[i + 1] = cell_of[cell]

    pos = 0
    while pos < len(edges):
        group = edges[pos:pos + int(rng.integers(2, 5))]
        pos += len(group)
        tokens, mentions, triplets, spans, kinds = [], [], [], {}, {}
        for h, r, t in group:
            tokens += [FILLER[i] for i in rng.integers(len(FILLER), size=int(rng.integers(4)))]
            mention(tokens, mentions, kinds, h)
            rel = name(rel_name, r, "r{}-{}")
            spans.setdefault(rel, (len(tokens), len(tokens) + 1))
            kinds[len(tokens)] = oracles.GRID_MOVES[r][0]
            tokens += [rel, "of"]
            mention(tokens, mentions, kinds, t)
            tokens.append(".")
            triplets.append({"head": ent_name[h], "relation": rel, "tail": ent_name[t]})
        emit(tokens, mentions, triplets, spans, kinds)
    for cell in cell_of:  # cells on no train edge still need a mention
        if cell not in ent_name:
            tokens, mentions, kinds = [], [], {}
            mention(tokens, mentions, kinds, cell)
            emit(tokens + ["."], mentions, [], {}, kinds)

    work.mkdir(parents=True, exist_ok=True)
    corpus = work / "corpus.jsonl"
    with corpus.open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps({k: doc[k] for k in ("id", "tokens", "mentions", "triplets")}) + "\n")
    vectors = work / "tokens.vec"
    with vectors.open("wb") as fh:
        for doc in docs:
            mat = matrices[doc["id"]]
            header = {"id": doc["id"], "rows": mat.shape[0], "dim": DIM,
                      "relation_spans": {r: list(s) for r, s in doc["relation_spans"].items()}}
            fh.write(json.dumps(header).encode() + b"\n" + mat.astype("<f8").tobytes())

    renamed = {
        split: [(ent_name[h], name(rel_name, r, "r{}-{}"), ent_name[t]) for h, r, t in rows]
        for split, rows in splits.items()
    }
    grid = oracles.Grid(spec.width, spec.height, {ent_name[c]: xy for c, xy in cell_of.items()},
                        {rel_name[r]: moves for r, moves in oracles.GRID_MOVES.items()})
    _write_kg(work / "kg", renamed)
    inputs = _inputs(work / "kg", grid, renamed)
    inputs.corpus, inputs.vectors, inputs.docs, inputs.matrices = corpus, vectors, docs, matrices
    return inputs


# ---------------------------------------------------------------------------
# one round


class StageFailed(Exception):
    pass


def stage_names(spec: Spec) -> tuple[str, ...]:
    head = ("mine", "init-embeddings") if spec.text else ()
    return head + ("train", "gen-queries", "eval")


@dataclass
class Round:
    dir: Path
    stage_s: dict[str, float]
    setup_s: float
    train_s: float
    examples: list
    gen_queries: int
    eval_queries: int
    wall_s: float
    mine_stdout: str = ""

    def sizes(self) -> dict[str, float]:
        return {
            "setup_s": self.setup_s,
            "examples": len(self.examples),
            "train_s": self.train_s,
            "gen_queries": self.gen_queries,
            "gen_s": self.stage_s["gen-queries"],
            "eval_queries": self.eval_queries,
            "eval_s": self.stage_s["eval"],
            "wall_s": self.wall_s,
        }


def summarize(rounds: list[dict[str, float]]) -> dict[str, float]:
    """End-to-end metrics over rounds: set-up time is the median round's, and
    the rest pool every round's work and time. On a machine whose speed jumps
    between states, pooling moves less with one odd round than a median of a
    few rounds does."""
    total = lambda key: sum(r[key] for r in rounds)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "train_examples_per_s": total("examples") / total("train_s"),
        "gen_queries_per_s": total("gen_queries") / total("gen_s"),
        "eval_queries_per_s": total("eval_queries") / total("eval_s"),
        "wall_s": total("wall_s") / len(rounds),
    }


class _Probe:
    """Times train.train and records every example that gets gradients."""

    def __init__(self) -> None:
        self.entered = self.left = 0.0
        self.examples: list = []

    def replacements(self):
        def timed(train):
            def wrapper(*args, **kwargs):
                self.entered = time.perf_counter()
                try:
                    return train(*args, **kwargs)
                finally:
                    self.left = time.perf_counter()
            return wrapper

        def recorded(loss_and_grads):
            def wrapper(example, params, cfg, weight, grads, want_signature=False):
                if grads is not None:
                    self.examples.append(example)
                return loss_and_grads(example, params, cfg, weight, grads, want_signature)
            return wrapper

        return [("train", "train", timed), ("train", "_loss_and_grads", recorded)]


def _cli(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def run_round(spec: Spec, inp: Inputs, rd: Path, seed: int, tracer: Tracer | None) -> Round:
    """Run every stage once; raises StageFailed(name) at the first nonzero exit."""
    stage_s: dict[str, float] = {}
    stdout: dict[str, str] = {}

    def stage(name: str, argv: list) -> None:
        t = time.perf_counter()
        code, stdout[name] = _cli([name, *argv, "--seed", seed, "--out", rd / name])
        stage_s[name] = time.perf_counter() - t
        if code != 0:
            raise StageFailed(name)

    kg = inp.kg_dir
    train_args = ["--steps", spec.steps, "--batch-size", BATCH, "--dim", DIM, "--lr", LR]
    probe = _Probe()
    with patched(probe.replacements()), (tracer.installed() if tracer else contextlib.nullcontext()):
        t0 = time.perf_counter()
        if spec.text:
            stage("mine", ["--corpus", inp.corpus])
            stage("init-embeddings", ["--corpus", inp.corpus, "--vectors", inp.vectors, "--dim", DIM])
            stage("train", ["--mode", "text", "--corpus", inp.corpus,
                            "--checkpoint", rd / "init-embeddings" / "params.ckpt", *train_args])
        else:
            stage("train", ["--mode", "kg", "--kg", kg, "--complex-pool", spec.complex_pool, *train_args])
        stage("gen-queries", ["--kg", kg, "--count", spec.count, "--split", "test"])
        lines = [
            line for t in TYPES
            for line in (rd / "gen-queries" / f"queries_{t}.jsonl").read_text().splitlines()
        ]
        (rd / "queries.jsonl").write_text("".join(line + "\n" for line in lines))
        stage("eval", ["--kg", kg, "--checkpoint", rd / "train" / "params.ckpt",
                       "--queries", rd / "queries.jsonl"])
        wall = time.perf_counter() - t0
    return Round(rd, stage_s, probe.entered - t0, probe.left - probe.entered, probe.examples,
                 len(lines), len(lines), wall, stdout.get("mine", ""))


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _names(inp: Inputs, dag):
    ents, rels = inp.entity_names, inp.relation_names
    anchors = [(n, ents[e]) for n, e in dag.anchors]
    edges = [(e.src, e.dst, rels[e.relation], e.inverse) for e in dag.edges]
    return anchors, edges, {n: k.value for n, k in dag.nodes}


def _train_answers(inp: Inputs, dag) -> set[str]:
    anchors, edges, kinds = _names(inp, dag)
    step = lambda names, rel, inv: set().union(*(inp.train_adj.get((n, rel, inv), ()) for n in names))
    return oracles.dag_answers(anchors, edges, kinds, dag.answer_node, step)


def _check_training(rd: Path, inp: Inputs) -> list[str]:
    problems = []
    trace = [json.loads(line) for line in (rd / "train" / "train_trace.jsonl").read_text().splitlines()]
    losses = [r["loss"] for r in trace]
    if len(losses) < 2 or not all(map(math.isfinite, losses)) or not losses[-1] < losses[0]:
        problems.append(f"traced loss did not fall: {losses}")
    ckpt = rd / "train" / "params.ckpt"
    header, arrays = oracles.read_checkpoint(ckpt)
    if header["entity_ids"] != inp.entity_names or header["relation_ids"] != inp.relation_names:
        problems.append("trained checkpoint ids are not the KG's ids in KG order")
    if not all(np.all(np.isfinite(a)) for a in arrays.values()):
        problems.append("trained parameters are not all finite")
    if np.any(arrays["relation_offsets"] < 0):
        problems.append("a relation offset is negative")
    for path in (ckpt, rd / "init-embeddings" / "params.ckpt"):
        if path.exists():
            copy = rd / "resaved.ckpt"
            params_mod.save(params_mod.load(str(path)), str(copy))
            if copy.read_bytes() != path.read_bytes():
                problems.append(f"{path.name} changed when loaded and saved again")
    return problems


def _check_negatives(spec: Spec, inp: Inputs, examples) -> tuple[list[str], str]:
    """kg mode must never use a known answer as a negative; text mode only
    promises to leave out the sampled answer. Returns problems and a note."""
    problems = []
    with_known = 0
    for ex in examples:
        known = _train_answers(inp, ex.query)
        negatives = {inp.entity_names[e] for e in ex.negatives}
        answer = inp.entity_names[ex.answer]
        if answer not in known or answer in negatives:
            problems.append(f"example answer {answer} is unknown or among its negatives")
            break
        if negatives & known:
            with_known += 1
            if not spec.text:
                problems.append(f"kg-mode negatives {sorted(negatives & known)} are known answers")
                break
    share = with_known / max(1, len(examples))
    return problems, f"examples with a known answer among their negatives: {with_known}/{len(examples)} ({share:.1%})"


def _check_queries(spec: Spec, inp: Inputs, rd: Path) -> list[str]:
    problems = []
    for t in TYPES:
        recs = [json.loads(line) for line in (rd / "gen-queries" / f"queries_{t}.jsonl").read_text().splitlines()]
        if not 1 <= len(recs) <= spec.count:
            problems.append(f"{len(recs)} {t} queries for a count of {spec.count}")
        for rec in recs:
            why = oracles.check_query_record(rec, inp.grid, inp.train_adj)
            if why:
                problems.append(why)
                break
    return problems


def _shape_mrr(per_type_ranks: dict[str, list[float]]) -> float:
    return float(np.mean([oracles.rank_metrics(r)["MRR"] for r in per_type_ranks.values()]))


def _ranks(queries, store) -> tuple[dict[str, list[float]], list[np.ndarray]]:
    per_type: dict[str, list[float]] = {}
    dists = []
    for q in queries:
        dist = evalgen.query_distances(q, store, "box", ALPHA, "l1")
        dists.append(dist)
        per_type.setdefault(q.qtype, []).extend(
            oracles.naive_ranks(dist, sorted(q.hard_answers), sorted(q.answers_full))
        )
    return per_type, dists


def _check_eval(spec: Spec, inp: Inputs, rd: Path, seed: int) -> tuple[list[str], str]:
    problems = []
    reported = {r["query_type"]: r for r in map(json.loads, (rd / "eval" / "metrics.jsonl").read_text().splitlines())}
    if sorted(reported) != sorted(TYPES):
        return [f"eval reported types {sorted(reported)}"], ""
    kg = evalgen.load_kg(*(str(inp.kg_dir / f"{s}.tsv") for s in evalgen.SPLITS))
    queries = evalgen.load_queries(str(rd / "queries.jsonl"), kg)
    records = [json.loads(line) for line in (rd / "queries.jsonl").read_text().splitlines()]
    ckpt = rd / "train" / "params.ckpt"
    per_type, dists = _ranks(queries, params_mod.load(str(ckpt)))

    for t, rep in reported.items():
        if not rep["H@1"] <= rep["H@3"] <= rep["H@10"] or not 0 < rep["MRR"] <= 1:
            problems.append(f"{t}: H@k not monotone or MRR outside (0, 1]: {rep}")
        if rep["n_queries"] != sum(q.qtype == t for q in queries):
            problems.append(f"{t}: eval counted {rep['n_queries']} queries")
        for key, value in oracles.rank_metrics(per_type[t]).items():
            if not _close(value, rep[key]):
                problems.append(f"{t} {key}: eval {rep[key]!r}, counted ranks {value!r}")

    header, arrays = oracles.read_checkpoint(ckpt)
    for rec, dist in zip(records, dists):
        chain = oracles.chain_hops(rec)
        if chain is not None:
            ref = oracles.chain_distances(header, arrays, *chain, ALPHA)
            if np.max(np.abs(ref - dist)) > 1e-9 * (1.0 + np.max(np.abs(ref))):
                problems.append(f"{rec['type']} distances differ from d_out + alpha * d_in")
                break

    trained = float(np.mean([rep["MRR"] for rep in reported.values()]))
    note = f"eval_mrr {trained:.4f}"
    if spec.learning_gate:
        store0 = params_mod.init_random(DIM, kg.n_entities, kg.n_relations, seed,
                                        entity_ids=kg.entity_ids, relation_ids=kg.relation_ids)
        untrained = _shape_mrr(_ranks(queries, store0)[0])
        note += f", untrained {untrained:.4f}"
        if not trained >= 2 * untrained:
            problems.append(f"trained eval_mrr {trained:.4f} is below twice the untrained {untrained:.4f}")
    return problems, note


def _check_mining(inp: Inputs, r: Round) -> list[str]:
    per_seq = oracles.sequence_triplets(inp.docs, 512)  # the [run] seq_len default
    expected = [oracles.structure_counts(s) for s in per_seq]
    got = [{"simple": 0, "path": 0, "outward": 0, "inward": 0} for _ in expected]
    for line in (r.dir / "mine" / "structures.jsonl").read_text().splitlines():
        rec = json.loads(line)
        got[rec["seq"]][rec["kind"]] += 1
    problems = []
    if f"sequences: {len(expected)}" not in r.mine_stdout.splitlines():
        problems.append("mine printed the wrong sequence count")
    bad = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    if bad:
        problems.append(f"structure counts differ from all-pairs enumeration in sequences {bad[:5]}")
    return problems


def _check_contextual(inp: Inputs, rd: Path) -> list[str]:
    ents, rels = oracles.contextual_centers(inp.docs, inp.matrices)
    header, arrays = oracles.read_checkpoint(rd / "init-embeddings" / "params.ckpt")
    want_e = np.stack([ents[e] for e in header["entity_ids"]])
    want_r = np.stack([rels[r] for r in header["relation_ids"]])
    problems = []
    if not np.allclose(arrays["entity_centers"], want_e, rtol=1e-12, atol=1e-15):
        problems.append("contextual entity centers are not the mean of their span-endpoint vectors")
    if not np.allclose(arrays["relation_centers"], np.concatenate([want_r, -want_r]), rtol=1e-12, atol=1e-15):
        problems.append("contextual relation centers are not span means with negated inverse rows")
    return problems


def check_round(spec: Spec, inp: Inputs, r: Round, seed: int) -> tuple[list[str], list[str]]:
    """Problems found in one round's outputs, and notes worth printing."""
    problems = _check_training(r.dir, inp) + _check_queries(spec, inp, r.dir)
    neg_problems, neg_note = _check_negatives(spec, inp, r.examples)
    eval_problems, eval_note = _check_eval(spec, inp, r.dir, seed)
    problems += neg_problems + eval_problems
    if spec.text:
        problems += _check_mining(inp, r) + _check_contextual(inp, r.dir)
    return problems, [neg_note, eval_note]


def output_digest(r: Round) -> str:
    """Hash of the primary outputs, which a fixed seed must reproduce exactly."""
    h = hashlib.sha256()
    for rel in ("train/params.ckpt", "queries.jsonl", "eval/metrics.jsonl"):
        h.update((r.dir / rel).read_bytes())
    return h.hexdigest()
