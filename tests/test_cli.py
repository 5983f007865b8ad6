"""End-to-end tests of the command-line pipeline.

Commands run in-process through cli.main so exit codes and stdout can be
asserted directly; one test goes through a real subprocess to cover the
module entry point.
"""

import configparser
import dataclasses
import json
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import srbox
from srbox import boxalg, cli, evalgen
from srbox import params as params_mod
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


class TestConfigResolution:
    def test_missing_config_file(self, tmp_path):
        assert cli.main(["mine", "--config", str(tmp_path / "nope.ini")]) == 2

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

    def test_corpus_required(self, tmp_path):
        assert cli.main(["mine", "--out", str(tmp_path / "o")]) == 2

    def test_missing_corpus_file_is_runtime_error(self, tmp_path):
        code = cli.main([
            "mine", "--corpus", str(tmp_path / "ghost.jsonl"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3


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

    def test_unknown_type(self, tmp_path, kg_dir):
        code = cli.main([
            "gen-queries", "--kg", kg_dir, "--types", "4p", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

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

    def test_run_meta_records_workers_and_phase_times(self, tmp_path, kg_dir, ckpt, monkeypatch):
        # tiles of one query by 5 of the 30 entity rows, so every chunk splits
        monkeypatch.setattr(boxalg, "DIST_TILE", 40)
        outputs = []
        for workers in (1, 3):
            monkeypatch.setattr(boxalg, "DIST_WORKERS", workers)
            out = tmp_path / f"w{workers}"
            assert cli.main(self._eval_argv(kg_dir, ckpt, out)) == 0
            meta = json.loads((out / "run_meta.json").read_text())
            assert meta["distance_workers"] == workers
            timings = meta["timings_s"]
            assert set(timings) == {"load_kg", "load_checkpoint", "queries", "score_and_rank"}
            assert all(t >= 0.0 for t in timings.values())
            assert sum(timings.values()) <= meta["duration_s"]
            outputs.append((out / "metrics.jsonl").read_bytes())
        assert outputs[0] == outputs[1]
        assert b"timings" not in outputs[0] and b"workers" not in outputs[0]

    def test_a_worker_error_exits_2_with_its_message(self, tmp_path, kg_dir, ckpt, monkeypatch, capsys):
        real = boxalg.distance_batch

        def short_in_workers(entities, box, *args):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.001)  # leave tiles for the worker to take
            else:
                entities = entities[:, :-1]
            return real(entities, box, *args)

        monkeypatch.setattr(boxalg, "DIST_TILE", 40)
        monkeypatch.setattr(boxalg, "DIST_WORKERS", 2)
        monkeypatch.setattr(boxalg, "distance_batch", short_in_workers)
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
