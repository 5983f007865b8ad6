"""Command-line pipeline: mine, init-embeddings, train, gradcheck,
gen-queries, eval.

Configuration comes from an INI file (sections [run], [paths], [train],
[eval], [gradcheck]) with every value overridable by a command-line flag.
The resolved configuration is echoed to <out>/effective_config.ini. The
only timestamps any command emits live in <out>/run_meta.json, written
when the command starts and rewritten when it returns with its finish
time, duration, exit status and the srbox and numpy versions (gen-queries
adds the queries requested and written per type, eval for the box scorer
the pairs its float32 screen scored and recounted under ``screen``, and
every command but gradcheck the wall time of each phase under
``timings_s``), so repeated runs with the same seed produce
byte-identical primary outputs.

Exit codes: 0 success, 1 usage error, 2 validation/config error, 3 runtime
failure (I/O and the like).
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from operator import attrgetter

import numpy as np

from srbox import __version__, evalgen, params as params_mod, train as train_mod
from srbox.corpus import load_corpus, chunk_sequences
from srbox.errors import ValidationError
from srbox.rng import STREAM_QUERY_GEN, substream
from srbox.structures import StructureKind, mine_structures

# every TrainConfig field but the seed, which [run] holds, is a [train] key
_TRAIN_FIELDS = [f for f in fields(train_mod.TrainConfig) if f.name != "seed"]
# what ``train`` learns from: a corpus's text windows or a KG's train edges
MODES = ("text", "kg")
# gradient checking stays fast and well conditioned up to this dim
GRADCHECK_MAX_DIM = 8


def _ini_value(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


CONFIG_DEFAULTS: dict[str, dict[str, str]] = {
    "run": {"mode": "text", "seed": "0", "out": "out", "dim": "32",
            "seq_len": str(train_mod.TextSource.seq_len)},
    "paths": {
        "corpus": "",
        "vectors": "",
        "kg": "",
        "checkpoint": "",
        "checkpoint_out": "",
        "queries": "",
    },
    "train": {
        **{f.name: _ini_value(f.default) for f in _TRAIN_FIELDS},
        "complex_pool": "0",
    },
    "eval": {
        "types": ",".join(evalgen.EVAL_QUERY_TYPES),
        "count": "200",
        "split": "test",
        "scorer": "box",
        "raw": "false",
    },
    "gradcheck": {"trials": "200", "dim": "6", "entities": "12", "relations": "5"},
}

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _typed(section: str, key: str, value: str, kind: type):
    try:
        if kind is bool:
            low = value.strip().lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(value)
        return kind(value)
    except ValueError:
        raise ValidationError(
            f"config [{section}] {key}: cannot read {value!r} as {kind.__name__}"
        ) from None


@dataclass
class RunConfig:
    """Fully resolved configuration for one command invocation."""

    raw: dict[str, dict[str, str]] = field(default_factory=dict)

    def get(self, section: str, key: str) -> str:
        return self.raw[section][key]

    def get_int(self, section: str, key: str) -> int:
        return _typed(section, key, self.get(section, key), int)

    def get_bool(self, section: str, key: str) -> bool:
        return _typed(section, key, self.get(section, key), bool)

    @property
    def seed(self) -> int:
        return self.get_int("run", "seed")

    @property
    def out_dir(self) -> str:
        return self.get("run", "out")

    def train_config(self) -> train_mod.TrainConfig:
        values = {
            f.name: _typed("train", f.name, self.get("train", f.name), type(f.default))
            for f in _TRAIN_FIELDS
        }
        cfg = train_mod.TrainConfig(seed=self.seed, **values)
        cfg.validate()
        return cfg


def load_config(path: str | None) -> RunConfig:
    resolved = {s: dict(kv) for s, kv in CONFIG_DEFAULTS.items()}
    if path:
        parser = configparser.ConfigParser()
        try:
            read = parser.read(path, encoding="utf-8")
        except (UnicodeDecodeError, configparser.Error) as exc:
            raise ValidationError(f"config file {path}: {exc}") from exc
        if not read:
            raise ValidationError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in CONFIG_DEFAULTS:
                raise ValidationError(f"unknown config section [{section}]")
            for key, value in parser.items(section):
                if key not in CONFIG_DEFAULTS[section]:
                    raise ValidationError(f"unknown config key [{section}] {key}")
                resolved[section][key] = value
    return RunConfig(resolved)


def _flag_key(dest: str) -> tuple[str, str] | None:
    """The (section, key) a flag sets: ``--gc-X`` sets [gradcheck] X, any
    other flag the first section with a key of its name."""
    if dest.startswith("gc_"):
        return "gradcheck", dest[len("gc_"):]
    sections = (section for section, keys in CONFIG_DEFAULTS.items() if dest in keys)
    return next(((section, dest) for section in sections), None)


def apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Flags default to None, which means not given."""
    for dest, value in vars(args).items():
        target = _flag_key(dest)
        if value is not None and target is not None:
            section, key = target
            cfg.raw[section][key] = str(value)
    return cfg


def _prepare_out(cfg: RunConfig) -> str:
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    echo = configparser.ConfigParser()
    for section, kv in cfg.raw.items():
        echo[section] = kv
    with open(os.path.join(out, "effective_config.ini"), "w", encoding="utf-8") as fh:
        echo.write(fh)
    return out


def _write_meta(out: str, meta: dict) -> None:
    with open(os.path.join(out, "run_meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _require(cfg: RunConfig, section: str, key: str, why: str) -> str:
    value = cfg.get(section, key)
    if not value:
        raise ValidationError(f"[{section}] {key} is required {why}")
    return value


def _load_kg_dir(cfg: RunConfig) -> evalgen.KnowledgeGraph:
    kg_dir = _require(cfg, "paths", "kg", "to locate the train/valid/test TSV files")
    return evalgen.load_kg(
        os.path.join(kg_dir, "train.tsv"),
        os.path.join(kg_dir, "valid.tsv"),
        os.path.join(kg_dir, "test.tsv"),
    )


def _id_at(ids: list[str], i: int) -> str:
    return repr(ids[i]) if i < len(ids) else "none"


def _load_checkpoint(
    path: str, entity_ids: list[str], relation_ids: list[str], data: str,
    expected_dim: int | None = None,
) -> params_mod.ParamStore:
    """A checkpoint whose entity and relation rows carry the data's ids in the
    data's order; a mismatch names the first row where the two differ."""
    store = params_mod.load(path, expected_dim=expected_dim)
    for kind, theirs, ours in (
        ("entity", store.entity_ids, entity_ids),
        ("relation", store.relation_ids, relation_ids),
    ):
        if theirs != ours:
            i = next(
                (i for i, (a, b) in enumerate(zip(theirs, ours)) if a != b),
                min(len(theirs), len(ours)),
            )
            raise ValidationError(
                f"checkpoint {kind} row {i} holds {_id_at(theirs, i)} "
                f"where the {data} has {_id_at(ours, i)}"
            )
    return store


def _check_table(key: str, value: int, nbytes: int) -> None:
    """Refuse a config value that sizes a table larger than the machine's
    physical memory, before the table is allocated."""
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > memory:
        raise ValidationError(
            f"{key} = {value} sizes a {nbytes}-byte table, more than the "
            f"machine's {memory} bytes of memory"
        )


def _fresh_store(cfg: RunConfig, entity_ids: list[str], relation_ids: list[str]):
    """A random ``ParamStore`` of [run] dim over the given ids, from the run seed."""
    dim = cfg.get_int("run", "dim")
    _check_table("[run] dim", dim, len(entity_ids) * dim * 8)  # the entity table
    return params_mod.init_random(
        dim, len(entity_ids), len(relation_ids), cfg.seed,
        offset_mode=cfg.get("train", "offset_mode"),
        entity_ids=entity_ids, relation_ids=relation_ids,
    )


def _load_or_init_params(
    cfg: RunConfig, entity_ids: list[str], relation_ids: list[str], data: str
) -> params_mod.ParamStore:
    ckpt = cfg.get("paths", "checkpoint")
    if not ckpt:
        return _fresh_store(cfg, entity_ids, relation_ids)
    return _load_checkpoint(ckpt, entity_ids, relation_ids, data, cfg.get_int("run", "dim"))


# ---------------------------------------------------------------------------
# commands


@contextmanager
def _timed(timings: dict, key: str):
    """Add the wall time of the ``with`` block to ``timings[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0


def cmd_mine(cfg: RunConfig, out: str, meta: dict) -> int:
    timings = meta["timings_s"] = {}
    with _timed(timings, "load_corpus"):
        corpus = load_corpus(_require(cfg, "paths", "corpus", "to mine structures"))
    seq_len = cfg.get_int("run", "seq_len")
    # each record is json.dumps({"kind", "triplets", "seq"}), assembled from
    # names encoded once per id
    ents = [json.dumps(name) for name in corpus.entity_ids]
    rels = [json.dumps(name) for name in corpus.relation_ids]
    heads = {kind: f'{{"kind": {json.dumps(kind.value)}, "triplets": [' for kind in StructureKind}
    counts = dict.fromkeys(StructureKind, 0)
    with _timed(timings, "mine"):
        sequences = chunk_sequences(corpus, seq_len)
    with open(os.path.join(out, "structures.jsonl"), "w", encoding="utf-8") as fh:
        for seq in sequences:
            with _timed(timings, "mine"):
                structures = mine_structures(seq.triplets)
            with _timed(timings, "write"):
                # keyed by identity: a structure holds the window's own triplets
                cells = {
                    id(t): f"[{ents[t.head]}, {rels[t.relation]}, {ents[t.tail]}]"
                    for t in seq.triplets
                }
                tail = f'], "seq": {seq.seq_id}}}\n'
                lines = []
                for kind, group in itertools.groupby(structures, attrgetter("kind")):
                    head, before = heads[kind], len(lines)
                    lines += [
                        head + ", ".join([cells[id(t)] for t in s.triplets]) + tail for s in group
                    ]
                    counts[kind] += len(lines) - before
                fh.write("".join(lines))
    print(f"sequences: {len(sequences)}")
    for kind in StructureKind:
        print(f"{kind.value}: {counts[kind]}")
    return 0


def cmd_init_embeddings(cfg: RunConfig, out: str, meta: dict) -> int:
    timings = meta["timings_s"] = {}
    with _timed(timings, "load_corpus"):
        corpus = load_corpus(_require(cfg, "paths", "corpus", "to size the embedding tables"))
    store = _fresh_store(cfg, corpus.entity_ids, corpus.relation_ids)
    vectors_path = cfg.get("paths", "vectors")
    source = "random"
    if vectors_path:
        with _timed(timings, "load_vectors"):
            vectors = params_mod.load_vectors(vectors_path)
        with _timed(timings, "import_contextual"):
            params_mod.import_contextual(corpus, vectors, store)
        source = "contextual"
    ckpt = cfg.get("paths", "checkpoint_out") or os.path.join(out, "params.ckpt")
    with _timed(timings, "save"):
        params_mod.save(store, ckpt)
    print(
        f"initialized {store.n_entities} entities, {store.n_relations} relations "
        f"(dim {store.dim}, {source}) -> {ckpt}"
    )
    return 0


def cmd_train(cfg: RunConfig, out: str, meta: dict) -> int:
    mode = cfg.get("run", "mode")
    tc = cfg.train_config()
    timings = meta["timings_s"] = {}
    if mode == "text":
        with _timed(timings, "load_corpus"):
            corpus = load_corpus(_require(cfg, "paths", "corpus", "for text-mode training"))
        with _timed(timings, "load_checkpoint"):
            store = _load_or_init_params(cfg, corpus.entity_ids, corpus.relation_ids, "corpus")
        source = train_mod.TextSource(corpus, cfg.get_int("run", "seq_len"))
    elif mode == "kg":
        with _timed(timings, "load_kg"):
            kg = _load_kg_dir(cfg)
        with _timed(timings, "load_checkpoint"):
            store = _load_or_init_params(cfg, kg.entity_ids, kg.relation_ids, "KG")
        rng = substream(cfg.seed, STREAM_QUERY_GEN)
        pool_count = cfg.get_int("train", "complex_pool")
        complex_queries = []
        with _timed(timings, "complex_pool"):
            for qtype in ("2p", "3p", "2i", "3i"):
                for q in evalgen.generate_queries(kg, qtype, pool_count, "train", rng):
                    complex_queries.append((q.dag, tuple(sorted(q.answers_train))))
        source = train_mod.KgSource(
            kg.train, complex_queries, kg.n_entities,
            answer_sets=kg.train_index.fwd,
        )
    else:
        raise ValidationError(f"unknown mode {mode!r}")
    # one example's answer and negative rows
    _check_table("[train] k_negatives", tc.k_negatives, (tc.k_negatives + 1) * store.dim * 8)

    trace_path = os.path.join(out, "train_trace.jsonl")
    with open(trace_path, "w", encoding="utf-8") as fh, _timed(timings, "train"):

        def emit(record: dict) -> None:
            fh.write(json.dumps(record) + "\n")

        store, trace = train_mod.train(source, store, tc, callback=emit)
    ckpt = cfg.get("paths", "checkpoint_out") or os.path.join(out, "params.ckpt")
    with _timed(timings, "save"):
        params_mod.save(store, ckpt)
    last = trace[-1]["loss"] if trace else None
    last = float("nan") if last is None else last
    print(f"trained {tc.steps} steps (mode {mode}); final loss {last:.6f} -> {ckpt}")
    return 0


def cmd_gradcheck(cfg: RunConfig, out: str, meta: dict) -> int:
    for key in CONFIG_DEFAULTS["gradcheck"]:
        value = cfg.get_int("gradcheck", key)
        if value < 1:
            raise ValidationError(f"[gradcheck] {key} must be >= 1, got {value}")
    tc = cfg.train_config()
    ckpt = cfg.get("paths", "checkpoint")
    gc_dim = cfg.get_int("gradcheck", "dim")
    limit = f"gradient checking is restricted to dim <= {GRADCHECK_MAX_DIM}"
    if gc_dim > GRADCHECK_MAX_DIM:
        raise ValidationError(f"{limit}, got {gc_dim}")
    if ckpt:
        store = params_mod.load(ckpt)
        if store.dim > GRADCHECK_MAX_DIM:
            raise ValidationError(f"{limit}, got checkpoint dim {store.dim}")
    else:
        store = params_mod.init_random(
            gc_dim,
            cfg.get_int("gradcheck", "entities"),
            cfg.get_int("gradcheck", "relations"),
            cfg.seed,
            offset_mode=cfg.get("train", "offset_mode"),
        )
    trials = cfg.get_int("gradcheck", "trials")
    check_cfg = train_mod.grad_check_config(tc.alpha, tc.norm)
    err = train_mod.grad_check(store, trials, cfg.seed, check_cfg)
    print(f"max relative error {err:.3e} over {trials} trials")
    with open(os.path.join(out, "gradcheck.json"), "w", encoding="utf-8") as fh:
        json.dump({"trials": trials, "max_relative_error": err}, fh)
        fh.write("\n")
    return 0 if err <= 1e-4 else 2


def _fresh_blocks(cfg: RunConfig, kg: evalgen.KnowledgeGraph) -> list[evalgen.QueryBlock]:
    """A block of [eval] count queries seeded from the [eval] split for each
    [eval] types entry in turn, all drawn from the run seed's one
    query-generation stream."""
    rng = substream(cfg.seed, STREAM_QUERY_GEN)
    split = cfg.get("eval", "split")
    count = cfg.get_int("eval", "count")
    types = [t.strip() for t in cfg.get("eval", "types").split(",") if t.strip()]
    if not types:
        raise ValidationError("no query types requested")
    for t in types:
        if t not in evalgen.EVAL_QUERY_TYPES:
            raise ValidationError(f"unknown query type {t!r}")
    return [evalgen.generate_block(kg, qtype, count, split, rng) for qtype in types]


def cmd_gen_queries(cfg: RunConfig, out: str, meta: dict) -> int:
    timings = meta["timings_s"] = {}
    with _timed(timings, "load_kg"):
        kg = _load_kg_dir(cfg)
    count = cfg.get_int("eval", "count")
    with _timed(timings, "generate"):
        blocks = _fresh_blocks(cfg, kg)
    written = meta["queries"] = {}
    for block in blocks:
        path = os.path.join(out, f"queries_{block.qtype}.jsonl")
        with _timed(timings, "write"):
            evalgen.write_queries([block], kg, path)
        written[block.qtype] = {"requested": count, "written": len(block)}
        print(f"{block.qtype}: {len(block)} queries -> {path}")
    return 0


def cmd_eval(cfg: RunConfig, out: str, meta: dict) -> int:
    scorer = cfg.get("eval", "scorer")
    if scorer not in evalgen.SCORERS:
        raise ValidationError(f"unknown scorer {scorer!r}")
    tc = cfg.train_config()
    raw = cfg.get_bool("eval", "raw")
    screen = None
    if scorer == "box":
        screen = meta["screen"] = {"pairs": 0, "recomputed": 0}
    timings = meta["timings_s"] = {}
    with _timed(timings, "load_kg"):
        kg = _load_kg_dir(cfg)
    with _timed(timings, "load_checkpoint"):
        ckpt = _require(cfg, "paths", "checkpoint", "to score queries")
        store = _load_checkpoint(ckpt, kg.entity_ids, kg.relation_ids, "KG")

    queries_path = cfg.get("paths", "queries")
    with _timed(timings, "queries"):
        if queries_path:
            source = queries_path
            blocks = sorted(evalgen.read_query_blocks(queries_path, kg), key=lambda b: b.qtype)
        else:
            source = f"{cfg.get('eval', 'split')} split"
            blocks = _fresh_blocks(cfg, kg)
    for block in blocks:
        if not len(block):
            raise ValidationError(f"{source}: no {block.qtype} queries to evaluate")
        if not len(block.hard.ids):
            raise ValidationError(
                f"{source}: none of the {len(block)} {block.qtype} queries has a hard answer to rank"
            )

    header = f"{'type':<6}{'scorer':<10}{'H@1':>8}{'H@3':>8}{'H@10':>8}{'MRR':>8}{'n':>7}"
    print(header)
    with open(os.path.join(out, "metrics.jsonl"), "w", encoding="utf-8") as fh:
        for block in blocks:
            with _timed(timings, "score_and_rank"):
                ranks = evalgen.block_ranks(
                    block, store, scorer, tc.alpha, tc.norm, raw, timings, screen
                )
                report = evalgen.rank_report(block.qtype, scorer, ranks.tolist(), len(block))
            fh.write(json.dumps(report) + "\n")
            print(
                f"{block.qtype:<6}{scorer:<10}"
                f"{report['H@1']:>8.4f}{report['H@3']:>8.4f}{report['H@10']:>8.4f}"
                f"{report['MRR']:>8.4f}{report['n_queries']:>7d}"
            )
    return 0


# each command takes the resolved config, its output directory and the
# run_meta dict, to which it may add entries
COMMANDS = {
    "mine": cmd_mine,
    "init-embeddings": cmd_init_embeddings,
    "train": cmd_train,
    "gradcheck": cmd_gradcheck,
    "gen-queries": cmd_gen_queries,
    "eval": cmd_eval,
}


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="srbox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--seed", type=int, help="run seed (overrides config)")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("mine", help="extract knowledge structures from a corpus")
    common(p)
    p.add_argument("--corpus", help="corpus JSONL path")
    p.add_argument("--seq-len", dest="seq_len", type=int, help="sequence window length")

    p = sub.add_parser("init-embeddings", help="build an initial checkpoint")
    common(p)
    p.add_argument("--corpus", help="corpus JSONL path")
    p.add_argument("--vectors", help="contextual vectors file (omit for random init)")
    p.add_argument("--dim", type=int, help="embedding dimension")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", help="checkpoint to write")

    p = sub.add_parser("train", help="run the training loop")
    common(p)
    p.add_argument("--mode", choices=MODES, help="training source kind")
    p.add_argument("--corpus", help="corpus JSONL path (text mode)")
    p.add_argument("--kg", help="directory with train/valid/test TSV files (kg mode)")
    p.add_argument("--checkpoint", help="checkpoint to start from")
    p.add_argument("--checkpoint-out", dest="checkpoint_out", help="checkpoint to write")
    p.add_argument("--dim", type=int, help="embedding dimension for fresh params")
    p.add_argument("--steps", type=int, help="optimization steps")
    p.add_argument("--lr", type=float, help="peak learning rate")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="examples per step")
    p.add_argument("--k-negatives", dest="k_negatives", type=int, help="negatives per query")
    p.add_argument("--seq-len", dest="seq_len", type=int, help="sequence window length")
    p.add_argument("--offset-mode", dest="offset_mode", choices=params_mod.OFFSET_MODES)
    p.add_argument("--negative-pool", dest="negative_pool", choices=train_mod.NEGATIVE_POOLS)
    p.add_argument(
        "--complex-pool", dest="complex_pool", type=int,
        help="complex training queries to pre-generate per shape (kg mode)",
    )

    p = sub.add_parser("gradcheck", help="finite-difference check of the gradients")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint to check (default: small random store)")
    p.add_argument("--trials", type=int, help="number of random examples")
    p.add_argument("--gc-dim", dest="gc_dim", type=int, help="dimension of the random store")
    p.add_argument("--gc-entities", dest="gc_entities", type=int)
    p.add_argument("--gc-relations", dest="gc_relations", type=int)

    p = sub.add_parser("gen-queries", help="sample structured queries from a KG")
    common(p)
    p.add_argument("--kg", help="directory with train/valid/test TSV files")
    p.add_argument("--types", help="comma-separated query types")
    p.add_argument("--count", type=int, help="queries per type")
    p.add_argument("--split", choices=evalgen.SPLITS, help="seed split")

    p = sub.add_parser("eval", help="rank hard answers and report H@k / MRR")
    common(p)
    p.add_argument("--kg", help="directory with train/valid/test TSV files")
    p.add_argument("--checkpoint", help="trained checkpoint")
    p.add_argument("--queries", help="pre-generated query file (else sampled fresh)")
    p.add_argument("--types", help="comma-separated query types")
    p.add_argument("--count", type=int, help="queries per type")
    p.add_argument("--split", choices=evalgen.SPLITS, help="seed split")
    p.add_argument("--scorer", choices=evalgen.SCORERS, help="ranking scorer")
    p.add_argument(
        "--raw", action="store_const", const="true",
        help="rank against all entities instead of the filtered pool",
    )

    return parser


def _message(exc: Exception) -> str:
    """An exception's message, or its type's name if it has none (as a
    ``MemoryError()`` has not)."""
    return str(exc) or type(exc).__name__


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = datetime.now(timezone.utc)
    meta = {"command": args.command, "argv": argv, "started": started.isoformat()}
    out = None
    try:
        cfg = apply_overrides(load_config(args.config), args)
        out = _prepare_out(cfg)
        _write_meta(out, meta)
        status = COMMANDS[args.command](cfg, out, meta)
    except ValidationError as exc:  # includes ParseError
        print(f"error: {_message(exc)}", file=sys.stderr)
        status = 2
    except Exception as exc:  # I/O and other runtime faults
        print(f"error: {_message(exc)}", file=sys.stderr)
        status = 3
    if out is None:
        return status
    finished = datetime.now(timezone.utc)
    meta.update(finished=finished.isoformat(), duration_s=(finished - started).total_seconds())
    meta.update(exit_status=status, srbox_version=__version__, numpy_version=np.__version__)
    try:
        _write_meta(out, meta)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return status


def entry() -> int:
    return main()


if __name__ == "__main__":
    sys.exit(main())
