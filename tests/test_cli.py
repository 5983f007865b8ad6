"""End-to-end tests of the command-line pipeline.

Commands run in-process through cli.main so exit codes and stdout can be
asserted directly; one test goes through a real subprocess to cover the
module entry point.
"""

import configparser
import dataclasses
import hashlib
import json
import struct
import subprocess
import sys

import numpy as np
import pytest

import srbox
from srbox import boxalg, cli, evalgen, structures
from srbox import params as params_mod
from srbox import train as train_mod
from srbox.train import TrainConfig


def doc(doc_id, tokens, mentions=(), triplets=()):
    return {
        "id": doc_id,
        "tokens": list(tokens),
        "mentions": [{"entity": e, "start": s, "end": t} for e, s, t in mentions],
        "triplets": [{"head": h, "relation": r, "tail": t} for h, r, t in triplets],
    }


@pytest.fixture
def corpus_path(tmp_path):
    """Four entities in one document with a path and an intersection."""
    path = tmp_path / "corpus.jsonl"
    record = doc(
        "d0",
        [f"w{i}" for i in range(12)],
        mentions=[("A", 0, 0), ("B", 2, 2), ("C", 4, 4), ("D", 6, 6)],
        triplets=[("A", "r1", "B"), ("B", "r2", "C"), ("A", "r3", "C")],
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return str(path)


# entity and relation names that JSON must escape or may not write as is
MINING_ENTITIES = ["plain", "Ålesund", 'say "hi"', "back\\slash", "東京", "tab\tname", "e6"]
MINING_RELATIONS = ["r1", "rél", 'r"q']


def write_mining_corpus(path) -> str:
    """Four 10-token documents over seven entities; 16-token windows hold
    simple triplets, paths and both intersections, some across documents."""
    r1, r2, r3 = MINING_RELATIONS
    with open(path, "w", encoding="utf-8") as fh:
        for d in range(4):
            a, b, c, e, f = (MINING_ENTITIES[(2 * d + i) % 7] for i in range(5))
            record = doc(
                f"d{d}",
                [f"w{i}" for i in range(10)],
                mentions=[(name, 2 * i, 2 * i) for i, name in enumerate((a, b, c, e, f))],
                triplets=[(a, r1, b), (b, r2, c), (a, r3, c), (e, r1, c), (b, r3, f)],
            )
            fh.write(json.dumps(record) + "\n")
    return str(path)


@pytest.fixture
def kg_dir(tmp_path):
    kg = evalgen.build_grid_kg(width=6, height=5, seed=3)
    out = tmp_path / "kg"
    out.mkdir()
    evalgen.save_kg(kg, str(out))
    return str(out)


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["mine", "--bogus", "1"])
        assert exc.value.code == 1

    def test_bad_flag_type(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--steps", "many"])
        assert exc.value.code == 1


class TestRuntimeFaults:
    def test_an_error_without_a_message_is_named_by_its_type(self, tmp_path, kg_dir, monkeypatch,
                                                           capsys):
        def out_of_memory(cfg, out, meta):
            raise MemoryError()

        monkeypatch.setitem(cli.COMMANDS, "gen-queries", out_of_memory)
        out = tmp_path / "o"
        assert cli.main(["gen-queries", "--kg", kg_dir, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert json.loads((out / "run_meta.json").read_text())["exit_status"] == 3


class TestConfigResolution:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["mine", "--config", str(tmp_path / "nope.ini")]) == 2

    @pytest.mark.parametrize("text", [b"[train]\nlr = 0.1\xff\n", b"lr = 0.1\n"],
                             ids=["byte-0xff", "no-section-header"])
    def test_an_unreadable_config_file_exits_2_naming_it(self, tmp_path, capsys, text):
        ini = tmp_path / "c.ini"
        ini.write_bytes(text)
        assert cli.main(["gradcheck", "--trials", "1", "--config", str(ini),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"error: config file {ini}: " in capsys.readouterr().err

    def test_unknown_section(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[wat]\nx = 1\n")
        assert cli.main(["mine", "--config", str(ini)]) == 2

    def test_unknown_key(self, tmp_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[train]\nmomentum = 0.9\n")
        assert cli.main(["mine", "--config", str(ini)]) == 2

    def test_every_train_field_is_an_ini_key(self, tmp_path):
        other_choice = {"offset_mode": "per_relation", "negative_pool": "global", "norm": "l2"}
        want = {}
        for f in dataclasses.fields(TrainConfig):
            if f.name == "seed":
                continue
            if isinstance(f.default, bool):
                want[f.name] = not f.default
            elif isinstance(f.default, int):
                want[f.name] = f.default + 1
            elif isinstance(f.default, float):
                want[f.name] = f.default / 2
            else:
                want[f.name] = other_choice[f.name]
        ini = tmp_path / "c.ini"
        ini.write_text("[train]\n" + "".join(f"{k} = {v}\n" for k, v in want.items()))
        got = cli.load_config(str(ini)).train_config()
        assert {k: getattr(got, k) for k in want} == want

    def test_default_echo_parses_back_to_defaults(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        assert cli.main(["mine", "--corpus", corpus_path, "--out", str(out)]) == 0
        echoed = cli.load_config(str(out / "effective_config.ini"))
        assert echoed.train_config() == TrainConfig()

    def test_bad_typed_value(self, tmp_path, corpus_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[train]\nsteps = lots\n")
        code = cli.main([
            "train", "--config", str(ini), "--corpus", corpus_path,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_flag_overrides_config(self, tmp_path, corpus_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[run]\nseq_len = 16\n")
        out = tmp_path / "o"
        code = cli.main([
            "mine", "--config", str(ini), "--corpus", corpus_path,
            "--seq-len", "32", "--out", str(out),
        ])
        assert code == 0
        echo = configparser.ConfigParser()
        echo.read(out / "effective_config.ini")
        assert echo["run"]["seq_len"] == "32"

    def test_config_value_used_without_flag(self, tmp_path, corpus_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[run]\nseq_len = 16\n")
        out = tmp_path / "o"
        assert cli.main([
            "mine", "--config", str(ini), "--corpus", corpus_path, "--out", str(out),
        ]) == 0
        echo = configparser.ConfigParser()
        echo.read(out / "effective_config.ini")
        assert echo["run"]["seq_len"] == "16"

    def test_run_meta_holds_the_timestamp(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        assert cli.main(["mine", "--corpus", corpus_path, "--out", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["command"] == "mine"
        assert "--corpus" in meta["argv"]
        assert meta["started"] <= meta["finished"]
        assert meta["duration_s"] >= 0.0
        assert meta["exit_status"] == 0
        assert meta["srbox_version"] == srbox.__version__
        assert meta["numpy_version"] == np.__version__
        failed = tmp_path / "failed"
        assert cli.main(["mine", "--out", str(failed)]) == 2  # no corpus
        meta = json.loads((failed / "run_meta.json").read_text())
        assert meta["exit_status"] == 2
        assert "finished" in meta


class TestPhaseTimings:
    """mine, init-embeddings and train time their phases in run_meta.json, as eval does."""

    def test_keys_and_total(self, tmp_path, corpus_path):
        vectors = params_mod.ContextualVectors(
            4, {"d0": np.ones((12, 4))}, {"d0": {"r1": (1, 1), "r2": (3, 3), "r3": (5, 5)}}
        )
        params_mod.write_vectors(str(tmp_path / "v.bin"), vectors)
        runs = {
            "mine": (["mine", "--corpus", corpus_path], ["load_corpus", "mine", "write"]),
            "random": (
                ["init-embeddings", "--corpus", corpus_path, "--dim", "4"],
                ["load_corpus", "save"],
            ),
            "contextual": (
                ["init-embeddings", "--corpus", corpus_path, "--dim", "4",
                 "--vectors", str(tmp_path / "v.bin")],
                ["load_corpus", "load_vectors", "import_contextual", "save"],
            ),
        }
        for name, (argv, keys) in runs.items():
            out = tmp_path / name
            assert cli.main([*argv, "--out", str(out)]) == 0
            meta = json.loads((out / "run_meta.json").read_text())
            assert list(meta["timings_s"]) == keys
            assert all(v >= 0.0 for v in meta["timings_s"].values())
            assert sum(meta["timings_s"].values()) <= meta["duration_s"]

    def test_train_records_phase_times(self, tmp_path, corpus_path, kg_dir):
        assert cli.main(["init-embeddings", "--corpus", corpus_path, "--dim", "4",
                         "--out", str(tmp_path / "init")]) == 0
        runs = {
            "kg": (["--mode", "kg", "--kg", kg_dir, "--complex-pool", "2"],
                   ["load_kg", "load_checkpoint", "complex_pool", "train", "save"]),
            "text": (["--corpus", corpus_path, "--checkpoint", str(tmp_path / "init" / "params.ckpt")],
                     ["load_corpus", "load_checkpoint", "train", "save"]),
        }
        for name, (argv, keys) in runs.items():
            out = tmp_path / name
            assert cli.main(["train", *argv, "--dim", "4", "--steps", "2", "--batch-size", "2",
                             "--out", str(out)]) == 0
            meta = json.loads((out / "run_meta.json").read_text())
            assert list(meta["timings_s"]) == keys
            assert all(v >= 0.0 for v in meta["timings_s"].values())
            assert sum(meta["timings_s"].values()) <= meta["duration_s"]
            assert b"timings" not in (out / "train_trace.jsonl").read_bytes()


class TestMine:
    def test_writes_structures_and_counts(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["mine", "--corpus", corpus_path, "--out", str(out)]) == 0
        lines = [json.loads(l) for l in (out / "structures.jsonl").read_text().splitlines()]
        # A-r1-B, B-r2-C, A-r3-C: 3 simple, 1 path, 1 outward, 1 inward
        kinds = [rec["kind"] for rec in lines]
        assert len(lines) == 6
        assert all({"kind", "triplets", "seq"} <= set(rec) for rec in lines)
        assert ["A", "r1", "B"] in [rec["triplets"][0] for rec in lines]
        stdout = capsys.readouterr().out
        assert "sequences: 1" in stdout
        for kind in set(kinds):
            assert kind in stdout

    def test_rerun_is_byte_identical(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        assert cli.main(["mine", "--corpus", corpus_path, "--out", str(out)]) == 0
        first = (out / "structures.jsonl").read_bytes()
        assert cli.main(["mine", "--corpus", corpus_path, "--out", str(out)]) == 0
        assert (out / "structures.jsonl").read_bytes() == first

    # sha256 of structures.jsonl and the stdout of mine --seq-len 16 on
    # write_mining_corpus: a miner or writer change that moves one byte fails
    PINNED = "d110360e889a5d1daefbf991a61d4532184577b84d55fd7212dc4b0970637785"
    PINNED_STDOUT = "sequences: 3\nsimple: 20\npath: 17\noutward: 11\ninward: 13\n"

    def test_bytes_are_pinned(self, tmp_path, capsys):
        corpus = write_mining_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "o"
        assert cli.main(["mine", "--corpus", corpus, "--seq-len", "16", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "structures.jsonl").read_bytes()).hexdigest() == self.PINNED
        assert capsys.readouterr().out == self.PINNED_STDOUT
        # every kind is mined, and the records are json.dumps of the names
        recs = [json.loads(line) for line in (out / "structures.jsonl").read_text().splitlines()]
        assert {rec["kind"] for rec in recs} == {"simple", "path", "outward", "inward"}
        assert (out / "structures.jsonl").read_text() == "".join(
            json.dumps(rec) + "\n" for rec in recs
        )

    def test_corpus_required(self, tmp_path):
        assert cli.main(["mine", "--out", str(tmp_path / "o")]) == 2

    def test_missing_corpus_file_is_runtime_error(self, tmp_path):
        code = cli.main([
            "mine", "--corpus", str(tmp_path / "ghost.jsonl"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3


    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(mentions=5), "'mentions'"),
        (lambda d: d["mentions"][0].update(start="0"), "'start'"),
        (lambda d: d["mentions"][0].update(entity=["x"]), "'entity'"),
        (lambda d: d["triplets"][0].update(relation=["r"]), "'relation'"),
    ], ids=["mentions-int", "start-string", "entity-list", "relation-list"])
    def test_a_wrongly_typed_corpus_field_exits_2(self, tmp_path, capsys, edit, field):
        record = doc("d0", ["w0", "w1"], mentions=[("A", 0, 0), ("B", 1, 1)],
                     triplets=[("A", "r1", "B")])
        edit(record)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert cli.main(["mine", "--corpus", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: line 1: " in err and field in err


class TestInitEmbeddings:
    def test_random_checkpoint(self, tmp_path, corpus_path, capsys):
        out = tmp_path / "o"
        code = cli.main([
            "init-embeddings", "--corpus", corpus_path, "--dim", "8",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        store = params_mod.load(str(out / "params.ckpt"))
        want = params_mod.init_random(
            8, 4, 3, 5, entity_ids=["A", "B", "C", "D"], relation_ids=["r1", "r2", "r3"]
        )
        np.testing.assert_array_equal(store.entity_centers, want.entity_centers)
        np.testing.assert_array_equal(store.relation_centers, want.relation_centers)
        assert store.entity_ids == ["A", "B", "C", "D"]
        assert "random" in capsys.readouterr().out

    def test_contextual_checkpoint(self, tmp_path, corpus_path, capsys):
        mat = np.arange(12 * 4, dtype=float).reshape(12, 4)
        vectors = params_mod.ContextualVectors(
            4,
            {"d0": mat},
            {"d0": {"r1": (1, 1), "r2": (3, 3), "r3": (5, 5)}},
        )
        vec_path = tmp_path / "v.bin"
        params_mod.write_vectors(str(vec_path), vectors)
        out = tmp_path / "o"
        code = cli.main([
            "init-embeddings", "--corpus", corpus_path, "--vectors", str(vec_path),
            "--dim", "4", "--out", str(out),
        ])
        assert code == 0
        store = params_mod.load(str(out / "params.ckpt"))
        # entity A is mentioned once at span (0, 0): center = (m[0] + m[0]) / 2
        np.testing.assert_allclose(store.entity_centers[0], mat[0], atol=1e-12)
        fwd = store.relation_centers[store.center_row(0, False)]
        inv = store.relation_centers[store.center_row(0, True)]
        np.testing.assert_allclose(fwd, mat[1], atol=1e-12)
        np.testing.assert_allclose(inv, -mat[1], atol=1e-12)
        assert "contextual" in capsys.readouterr().out


    def test_a_wrongly_typed_vectors_header_exits_2(self, tmp_path, corpus_path, capsys):
        vec_path = tmp_path / "v.bin"
        header = {"id": "d0", "rows": "two", "dim": 4}
        vec_path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(12 * 4 * 8))
        code = cli.main([
            "init-embeddings", "--corpus", corpus_path, "--vectors", str(vec_path),
            "--dim", "4", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {vec_path}: vector-file header field 'rows' is not an int" in err


    def test_a_vectors_header_claiming_more_than_the_file_holds_exits_2(
        self, tmp_path, corpus_path, capsys
    ):
        vec_path = tmp_path / "v.bin"
        header = {"id": "d0", "rows": 1125899906842624, "dim": 1}
        vec_path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(12 * 4 * 8))
        code = cli.main([
            "init-embeddings", "--corpus", corpus_path, "--vectors", str(vec_path),
            "--dim", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {vec_path}: vector file truncated in document 'd0'" in err


def set_header_field(path, key, value) -> None:
    """Set one field of a saved checkpoint's JSON header, in place."""
    data = open(path, "rb").read()
    start = len(params_mod.CHECKPOINT_MAGIC)
    version, n = struct.unpack("<IQ", data[start:start + 12])
    header = json.loads(data[start + 12:start + 12 + n])
    header[key] = value
    blob = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(data[:start] + struct.pack("<IQ", version, len(blob)) + blob + data[start + 12 + n:])


class TestMalformedCheckpointHeader:
    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("key, value, kind", [
        ("dim", "two", "an int"), ("entity_ids", 5, "a list of strings"),
        ("n_relations", "x", "an int"),
    ], ids=["dim-string", "entity-ids-int", "relations-count-string"])
    def test_exits_2_naming_the_file_and_field(self, tmp_path, kg_dir, capsys, command, key, value, kind):
        kg = evalgen.load_kg(f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv")
        path = str(tmp_path / "p.ckpt")
        params_mod.save(params_mod.init_random(8, kg.n_entities, kg.n_relations, 0,
                                               entity_ids=kg.entity_ids,
                                               relation_ids=kg.relation_ids), path)
        set_header_field(path, key, value)
        args = {
            "train": ["--mode", "kg", "--dim", "8", "--steps", "1"],
            "eval": ["--types", "1p", "--count", "2"],
        }[command]
        code = cli.main([command, "--kg", kg_dir, "--checkpoint", path, *args,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {path}: checkpoint header field {key!r} is not {kind}" in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("key, value, problem", [
        ("n_entities", 999, "checkpoint header field 'n_entities' is 999, but 'entity_ids' holds"),
        ("arrays", [["entity_centers", [2**62]]], "checkpoint array manifest entry 0 is "),
        ("dim", 2**50, "checkpoint truncated inside array 'entity_centers'"),
    ], ids=["entities-count", "huge-shape", "huge-dim"])
    def test_a_header_that_contradicts_its_layout_exits_2(
        self, tmp_path, kg_dir, capsys, command, key, value, problem
    ):
        kg = evalgen.load_kg(f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv")
        path = str(tmp_path / "p.ckpt")
        params_mod.save(params_mod.init_random(8, kg.n_entities, kg.n_relations, 0,
                                               entity_ids=kg.entity_ids,
                                               relation_ids=kg.relation_ids), path)
        set_header_field(path, key, value)
        if key == "dim":  # the manifest that a store of this dim would have
            shapes = params_mod.layout(value, kg.n_entities, kg.n_relations, "shared")
            set_header_field(path, "arrays", [[n, list(shape)] for n, shape in shapes.items()])
        dim = value if key == "dim" else 8  # train checks the dim first
        args = {"train": ["--mode", "kg", "--dim", dim, "--steps", "1"],
                "eval": ["--types", "1p", "--count", "2"]}
        code = cli.main([command, "--kg", kg_dir, "--checkpoint", path,
                         *map(str, args[command]), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {path}: {problem}" in capsys.readouterr().err


# a JSON array nested deeper than the decoder's recursion limit
DEEP = b"[" * 100_000 + b"]" * 100_000


def _checkpoint(tmp_path, kg_dir) -> str:
    kg = evalgen.load_kg(f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv")
    path = str(tmp_path / "p.ckpt")
    params_mod.save(params_mod.init_random(4, kg.n_entities, kg.n_relations, 0,
                                           entity_ids=kg.entity_ids,
                                           relation_ids=kg.relation_ids), path)
    return path


def _bad_line_2(path, bad: bytes, newline: bytes) -> None:
    """Put the line ``bad`` second in the file at ``path``, with every line
    ended by ``newline``."""
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(newline.join([first, bad, rest.replace(b"\n", newline)]))


def _hostile_queries(tmp_path, kg_dir, corpus_path, bad, newline=b"\n"):
    kg = evalgen.load_kg(f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv")
    path = tmp_path / "q.jsonl"
    queries = evalgen.generate_queries(kg, "1p", 3, "test", np.random.default_rng(0))
    evalgen.write_queries(evalgen.query_blocks(queries), kg, str(path))
    _bad_line_2(path, bad, newline)
    ckpt = _checkpoint(tmp_path, kg_dir)
    return ["eval", "--kg", kg_dir, "--checkpoint", ckpt, "--queries", path], f"{path}:2: "


def _hostile_corpus(tmp_path, kg_dir, corpus_path, bad, newline=b"\n"):
    path = tmp_path / "corpus.jsonl"
    _bad_line_2(path, bad, newline)
    return ["mine", "--corpus", path], f"{path}: line 2: malformed record: "


def _hostile_kg(tmp_path, kg_dir, corpus_path, bad, newline=b"\n"):
    path = tmp_path / "kg" / "valid.tsv"
    _bad_line_2(path, bad, newline)
    return ["gen-queries", "--kg", kg_dir, "--count", "1"], f"{path}:2: "


def _hostile_checkpoint(tmp_path, kg_dir, corpus_path, bad):
    path = _checkpoint(tmp_path, kg_dir)
    data = open(path, "rb").read()
    start = len(params_mod.CHECKPOINT_MAGIC)
    version, n = struct.unpack("<IQ", data[start:start + 12])
    blob = b'{"dim": ' + bad + b"}"
    with open(path, "wb") as fh:
        fh.write(data[:start] + struct.pack("<IQ", version, len(blob)) + blob + data[start + 12 + n:])
    return ["eval", "--kg", kg_dir, "--checkpoint", path, "--types", "1p", "--count", "2"], \
        f"{path}: bad checkpoint header: "


def _hostile_vectors(tmp_path, kg_dir, corpus_path, bad):
    path = tmp_path / "v.bin"
    path.write_bytes(bad + b"\n")
    return ["init-embeddings", "--corpus", corpus_path, "--vectors", path, "--dim", "4"], \
        f"{path}: bad vector-file header: "


class TestHostileInputs:
    @pytest.mark.parametrize("bad", [b"\xff", DEEP], ids=["byte-0xff", "deep-array"])
    @pytest.mark.parametrize("write", [
        _hostile_queries, _hostile_corpus, _hostile_kg, _hostile_checkpoint, _hostile_vectors,
    ], ids=["queries", "corpus", "kg", "checkpoint", "vectors"])
    def test_exits_2_naming_the_file(self, tmp_path, kg_dir, corpus_path, capsys, write, bad):
        argv, where = write(tmp_path, kg_dir, corpus_path, bad)
        code = cli.main([str(a) for a in [*argv, "--out", tmp_path / "o"]])
        assert code == 2
        assert f"error: {where}" in capsys.readouterr().err

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    @pytest.mark.parametrize("write", [_hostile_queries, _hostile_corpus, _hostile_kg],
                             ids=["queries", "corpus", "kg"])
    def test_every_line_reader_ends_a_line_at_cr_and_crlf(self, tmp_path, kg_dir, corpus_path,
                                                           capsys, write, newline):
        argv, where = write(tmp_path, kg_dir, corpus_path, b"\xff", newline)
        code = cli.main([str(a) for a in [*argv, "--out", tmp_path / "o"]])
        assert code == 2
        assert f"error: {where}" in capsys.readouterr().err


class TestTrainCommand:
    def test_text_mode_writes_trace_and_checkpoint(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        code = cli.main([
            "train", "--corpus", corpus_path, "--dim", "8", "--steps", "4",
            "--batch-size", "2", "--k-negatives", "2", "--out", str(out),
        ])
        assert code == 0
        store = params_mod.load(str(out / "params.ckpt"))
        assert store.dim == 8
        trace = [json.loads(l) for l in (out / "train_trace.jsonl").read_text().splitlines()]
        assert trace and {"step", "loss"} <= set(trace[0])

    def test_zero_steps_checkpoint_equals_init(self, tmp_path, corpus_path):
        out = tmp_path / "o"
        code = cli.main([
            "train", "--corpus", corpus_path, "--dim", "8", "--steps", "0",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        store = params_mod.load(str(out / "params.ckpt"))
        want = params_mod.init_random(
            8, 4, 3, 5, entity_ids=["A", "B", "C", "D"], relation_ids=["r1", "r2", "r3"]
        )
        np.testing.assert_array_equal(store.entity_centers, want.entity_centers)
        np.testing.assert_array_equal(store.relation_centers, want.relation_centers)
        np.testing.assert_array_equal(store.relation_offsets, want.relation_offsets)

    def test_kg_mode_runs(self, tmp_path, kg_dir):
        out = tmp_path / "o"
        code = cli.main([
            "train", "--mode", "kg", "--kg", kg_dir, "--dim", "8", "--steps", "3",
            "--batch-size", "4", "--complex-pool", "2", "--out", str(out),
        ])
        assert code == 0
        assert (out / "params.ckpt").exists()

    def test_kg_mode_builds_each_index_once(self, tmp_path, kg_dir, monkeypatch):
        built = []

        class Counted(evalgen.EdgeIndex):
            def __init__(self, edges):
                built.append(1)
                super().__init__(edges)

        monkeypatch.setattr(evalgen, "EdgeIndex", Counted)
        code = cli.main([
            "train", "--mode", "kg", "--kg", kg_dir, "--dim", "8", "--steps", "2",
            "--batch-size", "4", "--complex-pool", "3", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert len(built) == 2  # train and full index, shared by four shapes and the answer sets

    @pytest.mark.parametrize("flag, key, module, allocator", [
        ("--dim", "[run] dim", params_mod, "init_random"),
        ("--k-negatives", "[train] k_negatives", train_mod, "train"),
    ], ids=["dim", "k-negatives"])
    def test_a_size_beyond_physical_memory_exits_2_naming_it(
        self, tmp_path, kg_dir, capsys, monkeypatch, flag, key, module, allocator
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{allocator} called before the size check")

        monkeypatch.setattr(module, allocator, unreachable)
        code = cli.main([
            "train", "--mode", "kg", "--kg", kg_dir, flag, "100000000000", "--steps", "1",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {key} = 100000000000 sizes a " in err and "bytes of memory" in err

    def test_checkpoint_ids_must_be_the_corpus(self, tmp_path, corpus_path, capsys):
        store = params_mod.init_random(
            8, 4, 3, 0, entity_ids=["A", "B", "C", "D"], relation_ids=["r1", "r3", "r2"]
        )
        path = tmp_path / "other.ckpt"
        params_mod.save(store, str(path))
        code = cli.main([
            "train", "--corpus", corpus_path, "--checkpoint", str(path), "--dim", "8",
            "--steps", "1", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "relation row 1 holds 'r3' where the corpus has 'r2'" in capsys.readouterr().err

    def test_unknown_mode_from_config(self, tmp_path, corpus_path):
        ini = tmp_path / "c.ini"
        ini.write_text("[run]\nmode = dreams\n")
        code = cli.main([
            "train", "--config", str(ini), "--corpus", corpus_path,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_same_seed_checkpoints_are_byte_identical(self, tmp_path, corpus_path):
        args = [
            "train", "--corpus", corpus_path, "--dim", "8", "--steps", "6",
            "--batch-size", "1", "--k-negatives", "2", "--seed", "9",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert (out1 / "params.ckpt").read_bytes() == (out2 / "params.ckpt").read_bytes()
        assert (out1 / "train_trace.jsonl").read_text() == (
            out2 / "train_trace.jsonl"
        ).read_text()


class TestGradcheckCommand:
    def test_passes_on_small_store(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(["gradcheck", "--trials", "10", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "gradcheck.json").read_text())
        assert report["trials"] == 10
        assert report["max_relative_error"] <= 1e-4
        assert "max relative error" in capsys.readouterr().out

    def test_honours_train_norm_and_alpha(self, tmp_path):
        errors = []
        for name, train in (("default", ""), ("l2", "norm = l2\n"),
                            ("l2-alpha", "norm = l2\nalpha = 0.5\n")):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(f"[train]\n{train}")
            out = tmp_path / name
            assert cli.main(["gradcheck", "--trials", "10", "--config", str(ini),
                             "--out", str(out)]) == 0
            errors.append(json.loads((out / "gradcheck.json").read_text())["max_relative_error"])
        assert len(set(errors)) == 3
        assert max(errors) <= 1e-4

    def test_large_dim_rejected(self, tmp_path):
        code = cli.main(["gradcheck", "--gc-dim", "9", "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("key", ["trials", "dim", "entities", "relations"])
    def test_a_size_below_one_exits_2_naming_it(self, tmp_path, capsys, key):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[gradcheck]\n{key} = 0\n")
        out = tmp_path / "o"
        assert cli.main(["gradcheck", "--config", str(ini), "--out", str(out)]) == 2
        assert f"error: [gradcheck] {key} must be >= 1, got 0" in capsys.readouterr().err
        assert not (out / "gradcheck.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("gamma", "inf"), ("gamma", "nan"), ("alpha", "nan"), ("lr", "nan"),
        ("beta1", "inf"), ("eps", "nan"),
    ])
    def test_a_non_finite_train_float_exits_2_naming_it(self, tmp_path, capsys, key, value):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[train]\n{key} = {value}\n")
        assert cli.main(["gradcheck", "--trials", "1", "--config", str(ini),
                         "--out", str(tmp_path / "o")]) == 2
        assert f"error: {key} must be finite, got {value}" in capsys.readouterr().err


class TestGenQueries:
    def test_writes_per_type_files(self, tmp_path, kg_dir, capsys):
        out = tmp_path / "o"
        code = cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "1p,2i", "--count", "4",
            "--split", "test", "--out", str(out),
        ])
        assert code == 0
        kg = evalgen.load_kg(
            f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv"
        )
        for qtype in ("1p", "2i"):
            queries = evalgen.load_queries(str(out / f"queries_{qtype}.jsonl"), kg)
            assert len(queries) == 4
            assert all(q.qtype == qtype for q in queries)
        assert "1p: 4 queries" in capsys.readouterr().out

    def test_run_meta_counts_requested_and_written_queries(self, tmp_path):
        # a chain graph: no node has two incoming edges, so no 2i query exists
        kg = tmp_path / "kg"
        kg.mkdir()
        for split, rows in (("train", "ab"), ("valid", "bc"), ("test", "cd")):
            (kg / f"{split}.tsv").write_text(f"{rows[0]}\tr\t{rows[1]}\n")
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="generated 0/3 2i queries"):
            code = cli.main([
                "gen-queries", "--kg", str(kg), "--types", "1p,2i", "--count", "3",
                "--split", "test", "--out", str(out),
            ])
        assert code == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["queries"] == {
            "1p": {"requested": 3, "written": 3},
            "2i": {"requested": 3, "written": 0},
        }
        assert len((out / "queries_1p.jsonl").read_text().splitlines()) == 3
        assert (out / "queries_2i.jsonl").read_text() == ""

    def test_unknown_type(self, tmp_path, kg_dir):
        code = cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "4p", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_run_meta_times_the_phases(self, tmp_path, kg_dir):
        out = tmp_path / "o"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "1p,2i,2u", "--count", "4",
            "--out", str(out),
        ]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert list(meta["timings_s"]) == ["load_kg", "generate", "write"]
        assert all(t >= 0.0 for t in meta["timings_s"].values())
        assert sum(meta["timings_s"].values()) <= meta["duration_s"]
        for qtype in ("1p", "2i", "2u"):
            assert b"timings" not in (out / f"queries_{qtype}.jsonl").read_bytes()

    # sha256 of each file that gen-queries writes with --seed 5 --count 20 on
    # build_grid_kg(20, 10): a walker or writer change that moves one byte fails
    PINNED = {
        "test": {
            "1p": "19f414af3b6a4e5a8ecb3288d966a3b0b903de6318ef598d3869240b7d0be754",
            "2p": "88f4db7a9e1a9c0d2d2c50f55af2eebb064944003e2366a384337fb974dabd3e",
            "3p": "fd62d20f94c4c02791e88eeb0e6960d0ff6c4c521e142c873279281a9c0ee6b8",
            "2i": "a69853ad0a9d89fa9babbbc5490e77726497cf459e9bb722ce375a9f974cdf10",
            "3i": "64d1cba62fa68f5dac875c4a450ac75adaa1ede4ef13ef552a98f876d5ccbcde",
            "ip": "1bc5a2d2ce4e4439792833788f30c4086f4fc760535524e367e03be58979112b",
            "pi": "ffb43b665c5aad6d2a3ed51dcfab3e56529f6bd0d5263659c715da32c3f8014a",
            "2u": "134aa4278297c9b36da34d3017da35449ce5fdf786a2de4e3a54d9a975835cd7",
            "up": "709005ef356ac08944eb60a608c2f36e0349c831e70381e6da297c0ca672ad01",
        },
        "train": {
            "1p": "50e560af5984677f8096d39bb4f2f7c9b1fb86249fb30a5159fea87d854b8c54",
            "2p": "48878e22066e9da0a331b49a7fe4de21f777d677e051bdf40049371b949e32bc",
            "3p": "9e9407eca66addfc8037336efa74a02114704d501a9360db68aa75c3b6b45e5c",
            "2i": "666b8aed9b26be55429250d3a7deca66b531eb37f79bd92d52bde8d592ec1db7",
            "3i": "e563bcaf3f7236b5906af8371b1562587322e591ceb9c9ab681f9427d848a8e0",
        },
    }

    @pytest.mark.parametrize("split", ["test", "train"])
    def test_bytes_are_pinned(self, tmp_path, split):
        kg = tmp_path / "kg"
        evalgen.save_kg(evalgen.build_grid_kg(20, 10), str(kg))
        types = self.PINNED[split]
        out = tmp_path / "o"
        assert cli.main([
            "gen-queries", "--kg", str(kg), "--types", ",".join(types), "--count", "20",
            "--split", split, "--seed", "5", "--out", str(out),
        ]) == 0
        digests = {t: hashlib.sha256((out / f"queries_{t}.jsonl").read_bytes()).hexdigest()
                   for t in types}
        assert digests == types

    def test_eval_type_on_train_split(self, tmp_path, kg_dir):
        code = cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "ip", "--split", "train",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2


class TestEvalCommand:
    @pytest.fixture
    def ckpt(self, tmp_path, kg_dir):
        kg = evalgen.load_kg(
            f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv"
        )
        store = params_mod.init_random(
            8, kg.n_entities, kg.n_relations, 0,
            entity_ids=kg.entity_ids, relation_ids=kg.relation_ids,
        )
        path = tmp_path / "init.ckpt"
        params_mod.save(store, str(path))
        return str(path)

    def test_fresh_queries(self, tmp_path, kg_dir, ckpt, capsys):
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--types", "1p,2i",
            "--count", "3", "--out", str(out),
        ])
        assert code == 0
        reports = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["query_type"] for r in reports] == ["1p", "2i"]
        assert all(r["n_queries"] == 3 for r in reports)
        stdout = capsys.readouterr().out
        assert "H@3" in stdout and "MRR" in stdout

    def test_pregenerated_queries(self, tmp_path, kg_dir, ckpt):
        qdir = tmp_path / "q"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "2u", "--count", "5",
            "--split", "test", "--out", str(qdir),
        ]) == 0
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt,
            "--queries", str(qdir / "queries_2u.jsonl"), "--out", str(out),
        ])
        assert code == 0
        (report,) = [
            json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert report["query_type"] == "2u"
        assert report["n_queries"] == 5

    def test_raw_flag(self, tmp_path, kg_dir, ckpt):
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--types", "1p",
            "--count", "2", "--raw", "--out", str(out),
        ])
        assert code == 0
        (report,) = [
            json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()
        ]
        assert report["n_queries"] == 2

    def test_ptranse_works_on_chains(self, tmp_path, kg_dir, ckpt):
        out = tmp_path / "o"
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--types", "2p",
            "--count", "2", "--scorer", "ptranse", "--out", str(out),
        ])
        assert code == 0

    def test_ptranse_rejects_intersections(self, tmp_path, kg_dir, ckpt):
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--types", "2i",
            "--count", "2", "--scorer", "ptranse", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_checkpoint_required(self, tmp_path, kg_dir):
        code = cli.main(["eval", "--kg", kg_dir, "--out", str(tmp_path / "o")])
        assert code == 2

    def edited_queries(self, tmp_path, kg_dir, edit):
        """A pre-generated 2i query file whose first record went through ``edit``."""
        qdir = tmp_path / "q"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "2i", "--count", "3",
            "--split", "test", "--out", str(qdir),
        ]) == 0
        recs = [json.loads(l) for l in (qdir / "queries_2i.jsonl").read_text().splitlines()]
        edit(recs[0]["dag"])
        path = tmp_path / "edited.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        return str(path)

    @pytest.mark.parametrize("edit, problem", [
        (lambda dag: dag.update(answer_node=99), "answer node is not a node of the DAG"),
        (lambda dag: dag["edges"].pop(), "intersection node 2 has in-degree 1"),
        (lambda dag: dag["anchors"].append(dag["anchors"][0]), "node 0 is declared twice"),
    ], ids=["answer-node-99", "2i-missing-edge", "repeated-anchor"])
    def test_malformed_query_dag_rejected(self, tmp_path, kg_dir, ckpt, capsys, edit, problem):
        queries = self.edited_queries(tmp_path, kg_dir, edit)
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--queries", queries,
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "edited.jsonl:1:" in err and problem in err

    @pytest.mark.parametrize("qtype, problem", [
        ("4z", "unknown query type '4z'"),
        ("3i", "the DAG is not the shape of a 3i query"),
    ])
    def test_relabelled_query_type_rejected(self, tmp_path, kg_dir, ckpt, capsys, qtype, problem):
        qdir = tmp_path / "q"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "2i", "--count", "3",
            "--split", "test", "--out", str(qdir),
        ]) == 0
        recs = [json.loads(l) for l in (qdir / "queries_2i.jsonl").read_text().splitlines()]
        recs[1]["type"] = qtype
        path = tmp_path / "relabelled.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--queries", str(path),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "relabelled.jsonl:2:" in err and problem in err

    def records(self, tmp_path, kg_dir, qtype, count):
        """The records of a pre-generated query file of one type."""
        qdir = tmp_path / "q"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--types", qtype, "--count", str(count),
            "--split", "test", "--out", str(qdir),
        ]) == 0
        return [json.loads(l) for l in (qdir / f"queries_{qtype}.jsonl").read_text().splitlines()]

    def eval_records(self, tmp_path, kg_dir, ckpt, recs, name="edited.jsonl"):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        return cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--queries", str(path),
            "--out", str(tmp_path / "o"),
        ])

    @pytest.mark.parametrize("bad_shape_line, unknown_entity_line", [(3, 5), (5, 3)])
    def test_the_first_bad_line_is_reported(
        self, tmp_path, kg_dir, ckpt, capsys, bad_shape_line, unknown_entity_line
    ):
        recs = self.records(tmp_path, kg_dir, "2i", 6)
        recs[bad_shape_line - 1]["dag"]["edges"].pop()
        recs[unknown_entity_line - 1]["dag"]["anchors"][0][1] = "c99_99"
        assert self.eval_records(tmp_path, kg_dir, ckpt, recs) == 2
        err = capsys.readouterr().err
        problem = ("intersection node 2 has in-degree 1" if bad_shape_line == 3
                   else "bad query record: 'c99_99'")
        assert f"edited.jsonl:3: {problem}" in err

    def test_a_type_without_hard_answers_is_named_before_the_header(
        self, tmp_path, kg_dir, ckpt, capsys
    ):
        recs = self.records(tmp_path, kg_dir, "1p", 3)
        for rec in recs:
            rec["answers_train"] = rec["answers_full"]
        assert self.eval_records(tmp_path, kg_dir, ckpt, recs, "easy.jsonl") == 2
        captured = capsys.readouterr()
        path = tmp_path / "easy.jsonl"
        assert f"error: {path}: none of the 3 1p queries has a hard answer to rank" in captured.err
        assert "H@3" not in captured.out

    def test_each_shape_compiles_once_per_eval(self, tmp_path, kg_dir, ckpt, monkeypatch):
        qdir = tmp_path / "q"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--count", "5", "--split", "test", "--out", str(qdir),
        ]) == 0
        lines = [
            line for t in evalgen.EVAL_QUERY_TYPES
            for line in (qdir / f"queries_{t}.jsonl").read_text().splitlines()
        ]
        path = tmp_path / "all.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        calls = {"compile_plan": 0, "dag_shape": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapper = counted(name, getattr(structures, name))
            for module in (structures, evalgen):
                monkeypatch.setattr(module, name, wrapper)
        assert cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--queries", str(path),
            "--out", str(tmp_path / "o"),
        ]) == 0
        assert len(lines) == 45
        assert calls == {"compile_plan": 9, "dag_shape": 0}

    def test_generated_queries_build_no_dag(self, tmp_path, kg_dir, ckpt, monkeypatch):
        built = []

        class Counted(structures.QueryDag):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        for shape in evalgen.TYPE_SHAPES.values():
            structures.compile_plan(shape)  # each shape's plan compiled, as at any later use
        for module in (structures, evalgen):
            monkeypatch.setattr(module, "QueryDag", Counted)
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--count", "5", "--split", "test",
            "--out", str(tmp_path / "q"),
        ]) == 0
        assert cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--count", "5",
            "--out", str(tmp_path / "o"),
        ]) == 0
        assert built == []
        kg = evalgen.build_grid_kg(width=6, height=5, seed=3)
        assert len(evalgen.generate_queries(kg, "pi", 3, "test", np.random.default_rng(0))) == 3
        assert len(built) == 3  # the list form builds one DAG per query

    @pytest.mark.parametrize("ini, key", [
        ("[eval]\nscorer = foo\n", "scorer"),
        ("[train]\nnorm = l3\n", "norm"),
        ("[train]\nalpha = -5\n", "alpha"),
    ], ids=["scorer", "norm", "alpha"])
    def test_scoring_settings_are_checked_before_loading(
        self, tmp_path, kg_dir, ckpt, capsys, monkeypatch, ini, key
    ):
        def no_load(cfg):
            raise AssertionError("the KG was loaded")

        monkeypatch.setattr(cli, "_load_kg_dir", no_load)
        config = tmp_path / "eval.ini"
        config.write_text(ini)
        out = tmp_path / "o"
        assert cli.main([
            "eval", "--config", str(config), "--kg", kg_dir, "--checkpoint", ckpt,
            "--out", str(out),
        ]) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert captured.out == ""
        assert not (out / "metrics.jsonl").exists()

    def test_every_generated_shape_loads_and_scores(self, tmp_path, kg_dir, ckpt):
        qdir = tmp_path / "q"
        assert cli.main([
            "gen-queries", "--kg", kg_dir, "--count", "3", "--split", "test", "--out", str(qdir),
        ]) == 0
        kg = evalgen.load_kg(
            f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv"
        )
        for qtype in evalgen.EVAL_QUERY_TYPES:
            path = qdir / f"queries_{qtype}.jsonl"
            assert all(q.qtype == qtype for q in evalgen.load_queries(str(path), kg))
            assert cli.main([
                "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--queries", str(path),
                "--out", str(tmp_path / qtype),
            ]) == 0

    def _eval_argv(self, kg_dir, ckpt, out):
        return [
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--types", "1p,2i,2u",
            "--count", "4", "--seed", "7", "--out", str(out),
        ]

    def test_run_meta_records_phase_times(self, tmp_path, kg_dir, ckpt, monkeypatch):
        # tiles of one query by 5 of the 30 entity rows, so every chunk splits
        monkeypatch.setattr(boxalg, "DIST_TILE", 40)
        out = tmp_path / "o"
        assert cli.main(self._eval_argv(kg_dir, ckpt, out)) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert not [key for key in meta if "workers" in key]
        timings = meta["timings_s"]
        phases = {"load_kg", "load_checkpoint", "queries", "score_and_rank"}
        assert set(timings) == phases | {"ranks"}
        assert all(t >= 0.0 for t in timings.values())
        assert sum(timings[p] for p in phases) <= meta["duration_s"]
        assert timings["ranks"] <= timings["score_and_rank"]  # ranking is part of it
        metrics = (out / "metrics.jsonl").read_bytes()
        assert b"timings" not in metrics and b"workers" not in metrics

    def test_run_meta_counts_the_screened_and_recounted_pairs(self, tmp_path, kg_dir, ckpt,
                                                              monkeypatch):
        monkeypatch.setattr(boxalg, "DIST_TILE", 40)
        out = tmp_path / "o"
        assert cli.main(self._eval_argv(kg_dir, ckpt, out)) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert not [key for key in meta if "workers" in key]
        screen = meta["screen"]
        # 4 queries of each of 3 types, against the grid's 30 entities
        assert screen["pairs"] == 3 * 4 * 30
        assert 0 <= screen["recomputed"] <= screen["pairs"]
        metrics = (out / "metrics.jsonl").read_bytes()
        assert b"screen" not in metrics and b"pairs" not in metrics
        out = tmp_path / "ptranse"
        assert cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", ckpt, "--types", "1p", "--count", "4",
            "--scorer", "ptranse", "--out", str(out),
        ]) == 0
        assert "screen" not in json.loads((out / "run_meta.json").read_text())

    def test_a_distance_pass_error_exits_2_with_its_message(self, tmp_path, kg_dir, ckpt,
                                                            monkeypatch, capsys):
        real = boxalg.distance_batch

        def short(entities, box, *args):
            return real(entities[:, :-1], box, *args)

        monkeypatch.setattr(boxalg, "DIST_TILE", 40)
        monkeypatch.setattr(boxalg, "distance_batch", short)
        assert cli.main(self._eval_argv(kg_dir, ckpt, tmp_path / "o")) == 2
        assert "error: entity shape (5, 7) does not match box dim 8" in capsys.readouterr().err

    @pytest.mark.parametrize("change, problem", [
        (lambda ids: ids[::-1], "entity row 0 holds 'c05_04' where the KG has 'c00_00'"),
        (lambda ids: ids + [f"x{i}" for i in range(50)], "row 30 holds 'x0' where the KG has none"),
    ], ids=["reversed", "50-extra"])
    def test_checkpoint_ids_must_be_the_kgs(self, tmp_path, kg_dir, capsys, change, problem):
        kg = evalgen.load_kg(
            f"{kg_dir}/train.tsv", f"{kg_dir}/valid.tsv", f"{kg_dir}/test.tsv"
        )
        entity_ids = change(kg.entity_ids)
        store = params_mod.init_random(
            8, len(entity_ids), kg.n_relations, 0,
            entity_ids=entity_ids, relation_ids=kg.relation_ids,
        )
        path = tmp_path / "other.ckpt"
        params_mod.save(store, str(path))
        code = cli.main([
            "eval", "--kg", kg_dir, "--checkpoint", str(path), "--types", "1p",
            "--count", "2", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert problem in capsys.readouterr().err


class TestTrainAndEvalBytes:
    # sha256 of params.ckpt and train_trace.jsonl from kg-mode training with
    # --complex-pool 0 on the kg_dir grid, and of metrics.jsonl from eval of
    # that checkpoint on chains and unions, filtered and --raw. No
    # intersection runs, so no matmul: the bytes rest on elementwise numpy
    # and the seeded RNG alone (digests taken under numpy 2.4.6). A distance,
    # loss, Adam or ranking change that moves one bit fails.
    PINNED = {
        "l1": {
            "params.ckpt": "64bdc55c78caebc826776df64c290e2b4f5451534ddc3fff5f43dc33e5a7a307",
            "train_trace.jsonl": "36d1bedd21888869296996541f077ad0417cd51caeff9e38afcf51c9f82aea3d",
            "metrics.jsonl": "94c535b880f1a52ff82b47e9e85993601b5a1fd92e55c119d84b6f9739f398c5",
            "metrics.jsonl --raw": "c65329646e64a27efa4d12f7a38c0d86fa0e507d2b9b2a92528b2532fad71606",
        },
        "l2": {
            "params.ckpt": "144317cb239138004b129a552cc4118a05cede0a5fc5f3ff9aadc69e3f8100c8",
            "train_trace.jsonl": "d9c1992ed15bcf46301dc66a981ecc90df37260497248f8920790a2315cae6c9",
            "metrics.jsonl": "526f853147b100f651e01853c3b37cc2862a086e911cfcce0dcb117f52033585",
            "metrics.jsonl --raw": "ba5166e75e72871ee8b164874637be8153701fef7bbe2ee5f92f339ca2c75e4a",
        },
    }

    @pytest.mark.parametrize("norm", ["l1", "l2"])
    def test_bytes_are_pinned(self, tmp_path, kg_dir, norm):
        ini = tmp_path / "c.ini"
        ini.write_text(f"[train]\nnorm = {norm}\ntrace_every = 5\n")
        trained = tmp_path / "train"
        assert cli.main([
            "train", "--config", str(ini), "--mode", "kg", "--kg", kg_dir, "--dim", "8",
            "--steps", "200", "--batch-size", "8", "--k-negatives", "4", "--complex-pool", "0",
            "--seed", "11", "--out", str(trained),
        ]) == 0
        files = {name: trained / name for name in ("params.ckpt", "train_trace.jsonl")}
        for flags in ([], ["--raw"]):
            out = tmp_path / f"eval{len(flags)}"
            assert cli.main([
                "eval", "--config", str(ini), "--kg", kg_dir,
                "--checkpoint", str(trained / "params.ckpt"), "--types", "1p,2p,3p,2u,up",
                "--count", "20", "--seed", "11", *flags, "--out", str(out),
            ]) == 0
            files[" ".join(["metrics.jsonl", *flags])] = out / "metrics.jsonl"
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in files.items()}
        assert digests == self.PINNED[norm]


def test_module_entry_point(tmp_path, corpus_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "srbox.cli", "mine", "--corpus", corpus_path,
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sequences: 1" in proc.stdout
    assert (out / "structures.jsonl").exists()
