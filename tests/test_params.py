"""Tests for the parameter store, contextual initialization, and file formats."""

import json
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srbox.corpus import Corpus, Document, Mention, load_corpus
from srbox import params as params_mod
from srbox.errors import ParseError, ValidationError
from srbox.params import (
    CHECKPOINT_MAGIC,
    ContextualVectors,
    entity_center_from_context,
    import_contextual,
    init_random,
    load,
    load_vectors,
    save,
    write_vectors,
)


def write_corpus(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps(d) + "\n")
    return path


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(8, 10, 3, seed=5)
        b = init_random(8, 10, 3, seed=5)
        assert a.equals(b)
        c = init_random(8, 10, 3, seed=6)
        assert not a.equals(c)

    def test_shapes_and_bounds(self):
        store = init_random(16, 7, 4, seed=0)
        bound = 0.5 / np.sqrt(16)
        assert store.entity_centers.shape == (7, 16)
        assert store.relation_centers.shape == (8, 16)
        assert store.relation_offsets.shape == (1, 16)
        assert np.all(np.abs(store.entity_centers) <= bound)
        assert np.all(np.abs(store.relation_centers) <= bound)
        assert np.all(store.relation_offsets == 0.1)

    def test_per_relation_offsets(self):
        store = init_random(4, 3, 5, seed=0, offset_mode="per_relation")
        assert store.relation_offsets.shape == (10, 4)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            init_random(0, 3, 2, seed=0)
        with pytest.raises(ValidationError):
            init_random(4, 3, 2, seed=0, offset_mode="fused")
        with pytest.raises(ValidationError):
            init_random(4, 3, 2, seed=0, entity_ids=["only-one"])

    def test_row_arithmetic(self):
        store = init_random(4, 3, 5, seed=0, offset_mode="per_relation")
        assert store.center_row(2, inverse=False) == 2
        assert store.center_row(2, inverse=True) == 7
        assert store.offset_row(2, inverse=True) == 7
        shared = init_random(4, 3, 5, seed=0)
        assert shared.offset_row(2, inverse=True) == 0

    def test_validate_catches_corruption(self):
        store = init_random(4, 3, 2, seed=0)
        store.relation_offsets[0, 0] = -0.5
        with pytest.raises(ValidationError):
            store.validate()
        store = init_random(4, 3, 2, seed=0)
        store.entity_centers[1, 1] = np.nan
        with pytest.raises(ValidationError):
            store.validate()

    def test_copy_is_independent(self):
        store = init_random(4, 3, 2, seed=0)
        dup = store.copy()
        assert store.equals(dup)
        dup.entity_centers[0, 0] += 1.0
        assert not store.equals(dup)


class TestContextualVectors:
    def test_span_mean(self):
        mat = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 8.0]])
        v = ContextualVectors(2, {"d0": mat})
        np.testing.assert_array_equal(v.span_mean("d0", 1, 2), [4.0, 6.0])
        np.testing.assert_array_equal(v.span_mean("d0", 0, 0), [0.0, 0.0])

    def test_span_errors(self):
        v = ContextualVectors(2, {"d0": np.zeros((2, 2))})
        with pytest.raises(ValidationError):
            v.span_mean("nope", 0, 0)
        with pytest.raises(ValidationError):
            v.span_mean("d0", 0, 5)

    def test_entity_center_multi_document(self):
        from srbox.corpus import Mention

        m0 = np.arange(8.0).reshape(4, 2)
        m1 = 10.0 + np.arange(6.0).reshape(3, 2)
        v = ContextualVectors(2, {"a": m0, "b": m1})
        mentions = [("a", Mention(0, 0, 1)), ("b", Mention(0, 2, 2))]
        got = entity_center_from_context(v, mentions)
        want = (0.5 * (m0[0] + m0[1]) + 0.5 * (m1[2] + m1[2])) / 2
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_no_mentions_rejected(self):
        v = ContextualVectors(2, {})
        with pytest.raises(ValidationError):
            entity_center_from_context(v, [])


def corpus_fixture(tmp_path):
    """Two documents; entity E2 is mentioned in both."""
    return load_corpus(
        write_corpus(
            tmp_path / "c.jsonl",
            [
                {
                    "id": "a",
                    "tokens": ["t0", "t1", "t2", "t3"],
                    "mentions": [
                        {"entity": "E1", "start": 0, "end": 1},
                        {"entity": "E2", "start": 3, "end": 3},
                    ],
                    "triplets": [{"head": "E1", "relation": "r", "tail": "E2"}],
                },
                {
                    "id": "b",
                    "tokens": ["u0", "u1"],
                    "mentions": [{"entity": "E2", "start": 0, "end": 0}],
                    "triplets": [],
                },
            ],
        )
    )


def vectors_fixture(rng):
    mats = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(2, 3))}
    spans = {"a": {"r": (1, 2)}}
    return ContextualVectors(3, mats, spans)


class TestImportContextual:
    def test_centers_match_averaging_oracle(self, tmp_path):
        corpus = corpus_fixture(tmp_path)
        rng = np.random.default_rng(0)
        vectors = vectors_fixture(rng)
        store = init_random(3, corpus.n_entities, corpus.n_relations, seed=1)
        before_off = store.relation_offsets.copy()
        before_net = store.copy().net
        import_contextual(corpus, vectors, store)

        a, b = vectors.matrices["a"], vectors.matrices["b"]
        e1 = 0.5 * (a[0] + a[1])
        e2 = (0.5 * (a[3] + a[3]) + 0.5 * (b[0] + b[0])) / 2
        np.testing.assert_allclose(store.entity_centers[corpus.entity_index["E1"]], e1, atol=1e-12)
        np.testing.assert_allclose(store.entity_centers[corpus.entity_index["E2"]], e2, atol=1e-12)

        r_fwd = 0.5 * (a[1] + a[2])
        np.testing.assert_allclose(store.relation_centers[0], r_fwd, atol=1e-12)
        np.testing.assert_allclose(store.relation_centers[1], -r_fwd, atol=1e-12)

        np.testing.assert_array_equal(store.relation_offsets, before_off)
        for name in ("att_w1", "inner_w2", "outer_b2"):
            np.testing.assert_array_equal(getattr(store.net, name), getattr(before_net, name))

    def test_dim_mismatch_names_both(self, tmp_path):
        corpus = corpus_fixture(tmp_path)
        vectors = vectors_fixture(np.random.default_rng(0))
        store = init_random(5, corpus.n_entities, corpus.n_relations, seed=1)
        with pytest.raises(ValidationError, match="3.*5|5.*3"):
            import_contextual(corpus, vectors, store)

    def test_missing_entity_coverage_lists_ids(self, tmp_path):
        # E3 is mentioned only in document b; dropping b's vectors leaves it
        # uncovered, and the error must name it.
        corpus = load_corpus(
            write_corpus(
                tmp_path / "c2.jsonl",
                [
                    {
                        "id": "a",
                        "tokens": ["t0", "t1"],
                        "mentions": [
                            {"entity": "E1", "start": 0, "end": 0},
                            {"entity": "E2", "start": 1, "end": 1},
                        ],
                        "triplets": [{"head": "E1", "relation": "r", "tail": "E2"}],
                    },
                    {
                        "id": "b",
                        "tokens": ["u0"],
                        "mentions": [{"entity": "E3", "start": 0, "end": 0}],
                        "triplets": [],
                    },
                ],
            )
        )
        vectors = ContextualVectors(
            3, {"a": np.zeros((2, 3))}, {"a": {"r": (0, 1)}}
        )
        store = init_random(3, corpus.n_entities, corpus.n_relations, seed=1)
        with pytest.raises(ValidationError, match="E3"):
            import_contextual(corpus, vectors, store)

    def test_row_count_mismatch(self, tmp_path):
        corpus = corpus_fixture(tmp_path)
        vectors = vectors_fixture(np.random.default_rng(0))
        vectors.matrices["b"] = np.zeros((5, 3))
        store = init_random(3, corpus.n_entities, corpus.n_relations, seed=1)
        with pytest.raises(ValidationError, match="'b'"):
            import_contextual(corpus, vectors, store)

    def test_relation_span_for_unknown_document(self, tmp_path):
        corpus = corpus_fixture(tmp_path)
        vectors = vectors_fixture(np.random.default_rng(0))
        vectors.relation_spans["ghost"] = {"r": (0, 0)}
        store = init_random(3, corpus.n_entities, corpus.n_relations, seed=1)
        with pytest.raises(ValidationError, match="ghost"):
            import_contextual(corpus, vectors, store)

    def test_unknown_relation_id_ignored(self, tmp_path):
        corpus = corpus_fixture(tmp_path)
        vectors = vectors_fixture(np.random.default_rng(0))
        vectors.relation_spans["a"]["not_a_relation"] = (0, 0)
        store = init_random(3, corpus.n_entities, corpus.n_relations, seed=1)
        import_contextual(corpus, vectors, store)  # no error

    def test_missing_relation_coverage(self, tmp_path):
        corpus = corpus_fixture(tmp_path)
        vectors = vectors_fixture(np.random.default_rng(0))
        vectors.relation_spans = {}
        store = init_random(3, corpus.n_entities, corpus.n_relations, seed=1)
        with pytest.raises(ValidationError, match="r"):
            import_contextual(corpus, vectors, store)


def per_mention_import(corpus, vectors, store):
    """Reference for import_contextual: the same checks, then one
    ``span_mean`` at a time, summed per entity and per relation in corpus
    (and vector-file) order."""
    if vectors.dim != store.dim:
        raise ValidationError(f"vectors have dim {vectors.dim} but the store has dim {store.dim}")
    for doc in corpus.documents:
        mat = vectors.matrices.get(doc.doc_id)
        if mat is not None and mat.shape[0] != len(doc.tokens):
            raise ValidationError(
                f"document {doc.doc_id!r} has {len(doc.tokens)} tokens but "
                f"{mat.shape[0]} vector rows"
            )
    mentions = {i: [] for i in range(corpus.n_entities)}
    for doc in corpus.documents:
        if doc.doc_id in vectors.matrices:
            rows = vectors.matrices[doc.doc_id].shape[0]
            for m in doc.mentions:
                if m.end < rows:
                    mentions[m.entity].append((doc.doc_id, m))
    spans = {i: [] for i in range(corpus.n_relations)}
    for doc_id, doc_spans in vectors.relation_spans.items():
        mat = vectors.matrices.get(doc_id)
        if mat is None:
            raise ValidationError(f"relation spans given for unknown document {doc_id!r}")
        for rid, (start, end) in doc_spans.items():
            idx = corpus.relation_index.get(rid)
            if idx is None:
                continue
            if not 0 <= start <= end < mat.shape[0]:
                raise ValidationError(
                    f"relation {rid!r} span ({start}, {end}) outside document {doc_id!r}"
                )
            spans[idx].append((doc_id, start, end))
    missing = [corpus.entity_ids[i] for i, ms in mentions.items() if not ms]
    missing += [corpus.relation_ids[i] for i, sp in spans.items() if not sp]
    if missing:
        raise ValidationError("no contextual coverage for: " + ", ".join(sorted(missing)))
    entity = [entity_center_from_context(vectors, mentions[i]) for i in range(corpus.n_entities)]
    forward = []
    for i in range(corpus.n_relations):
        total = np.zeros(store.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            for doc_id, start, end in spans[i]:
                total += vectors.span_mean(doc_id, start, end)
        forward.append(total / len(spans[i]))
    bad = [corpus.entity_ids[i] for i, c in enumerate(entity) if not np.isfinite(c).all()]
    bad += [corpus.relation_ids[i] for i, c in enumerate(forward) if not np.isfinite(c).all()]
    if bad:
        raise ValidationError("contextual centers are not finite for: " + ", ".join(sorted(bad)))
    r = store.n_relations
    for i, center in enumerate(entity):
        store.entity_centers[i] = center
    for i, center in enumerate(forward):
        store.relation_centers[i] = center
        store.relation_centers[i + r] = -center
    return store


@st.composite
def contextual_cases(draw):
    """An in-memory corpus and vectors: documents with or without a matrix,
    mentions that may end past their document (and matrix), relation spans
    that may name unknown relations or leave their document, values with
    ties, signed zeros and large magnitudes."""
    n_ent, n_rel, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    # sums of these depend on their order: 1e16 + 1 - 1e16 is 0, 1 + 1e16 - 1e16 is 1
    value = st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 0.1, 1 / 3, 3e307])
    docs, matrices, relation_spans = [], {}, {}
    for d in range(draw(st.integers(1, 6))):
        n_tok = draw(st.integers(1, 5))
        mentions = []
        for _ in range(draw(st.integers(0, 4))):
            start = draw(st.integers(0, n_tok))
            end = draw(st.integers(start, n_tok + 1))
            mentions.append(Mention(draw(st.integers(0, n_ent - 1)), start, end))
        docs.append(Document(f"d{d}", ("w",) * n_tok, tuple(mentions), ()))
        if draw(st.integers(0, 4)):  # most documents have vectors
            flat = draw(st.lists(value, min_size=n_tok * dim, max_size=n_tok * dim))
            matrices[f"d{d}"] = np.array(flat, dtype=np.float64).reshape(n_tok, dim)
            rids = st.sampled_from([f"r{i}" for i in range(n_rel)] + ["unknown"])
            spans = {}
            for rid in draw(st.lists(rids, max_size=3, unique=True)):
                start = draw(st.integers(0, n_tok - 1))
                end = draw(st.integers(start, n_tok - (draw(st.integers(0, 9)) > 0)))
                spans[rid] = (start, end)
            if spans:
                relation_spans[f"d{d}"] = spans
    entity_ids = [f"e{i}" for i in range(n_ent)]
    relation_ids = [f"r{i}" for i in range(n_rel)]
    corpus = Corpus(docs, entity_ids, relation_ids, {e: i for i, e in enumerate(entity_ids)},
                    {r: i for i, r in enumerate(relation_ids)})
    return corpus, ContextualVectors(dim, matrices, relation_spans)


class TestImportContextualMatchesThePerMentionLoop:
    @settings(max_examples=400, deadline=None)
    @given(contextual_cases())
    def test_bit_for_bit(self, case):
        corpus, vectors = case
        fresh = lambda: init_random(vectors.dim, corpus.n_entities, corpus.n_relations, seed=3)
        try:
            want = per_mention_import(corpus, vectors, fresh())
        except ValidationError as exc:
            want = str(exc)
        for span_docs in (2, params_mod.SPAN_DOCS):  # several gathers, one gather
            with mock.patch.object(params_mod, "SPAN_DOCS", span_docs):
                if isinstance(want, str):
                    with pytest.raises(ValidationError) as got:
                        import_contextual(corpus, vectors, fresh())
                    assert str(got.value) == want
                    continue
                got = import_contextual(corpus, vectors, fresh())
            for name, arr in want.arrays().items():
                assert arr.tobytes() == got.arrays()[name].tobytes(), name

    def test_sums_run_in_corpus_order(self):
        # (1 + 1e16) - 1e16 is 0 in float64, while 1 + (1e16 - 1e16) is 1: a
        # center is the left fold over its mentions in corpus order
        values = [1.0, 1e16, -1e16]
        docs = [Document(f"d{i}", ("w",), (Mention(0, 0, 0),), ()) for i in range(3)]
        corpus = Corpus(docs, ["e"], ["r"], {"e": 0}, {"r": 0})
        vectors = ContextualVectors(
            1, {f"d{i}": np.array([[v]]) for i, v in enumerate(values)}, {"d2": {"r": (0, 0)}}
        )
        for span_docs in (1, 2, 32):
            with mock.patch.object(params_mod, "SPAN_DOCS", span_docs):
                store = import_contextual(corpus, vectors, init_random(1, 1, 1, seed=0))
            assert store.entity_centers[0, 0] == 0.0

    def test_a_center_past_float64s_range_is_rejected(self):
        # six span means of 3e307 sum past 1.8e308, to inf, for entity e and
        # relation r alike; f's one mention stays finite
        docs = [Document(f"d{i}", ("w",), (Mention(0, 0, 0),), ()) for i in range(6)]
        docs.append(Document("d6", ("w",), (Mention(1, 0, 0),), ()))
        corpus = Corpus(docs, ["e", "f"], ["r"], {"e": 0, "f": 1}, {"r": 0})
        vectors = ContextualVectors(
            1, {f"d{i}": np.array([[3e307]]) for i in range(7)},
            {f"d{i}": {"r": (0, 0)} for i in range(6)},
        )
        want = "contextual centers are not finite for: e, r"
        with pytest.raises(ValidationError) as exc:
            per_mention_import(corpus, vectors, init_random(1, 2, 1, seed=0))
        assert str(exc.value) == want
        for span_docs in (1, 2, 32):
            store = init_random(1, 2, 1, seed=0)
            before = {name: arr.copy() for name, arr in store.arrays().items()}
            with mock.patch.object(params_mod, "SPAN_DOCS", span_docs):
                with pytest.raises(ValidationError) as exc:
                    import_contextual(corpus, vectors, store)
            assert str(exc.value) == want
            assert all(np.array_equal(arr, before[name]) for name, arr in store.arrays().items())

    def test_the_cases_cover_every_outcome(self):
        outcomes = set()

        @settings(max_examples=400, deadline=None, database=None)
        @given(contextual_cases())
        def run(case):
            corpus, vectors = case
            store = init_random(vectors.dim, corpus.n_entities, corpus.n_relations, seed=3)
            try:
                import_contextual(corpus, vectors, store)
                outcomes.add("imported")
                if any(m.end >= len(d.tokens) for d in corpus.documents for m in d.mentions):
                    outcomes.add("imported past a matrix")
            except ValidationError as exc:
                outcomes.add(str(exc).split(" ")[0])

        run()
        assert {"imported", "imported past a matrix", "no", "relation"} <= outcomes


class TestVectorsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = vectors_fixture(rng)
        path = str(tmp_path / "v.ctx")
        write_vectors(path, vectors)
        back = load_vectors(path)
        assert back.dim == 3
        assert set(back.matrices) == {"a", "b"}
        for k in ("a", "b"):
            np.testing.assert_array_equal(back.matrices[k], vectors.matrices[k])
        assert back.relation_spans == {"a": {"r": (1, 2)}}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.ctx"
        path.write_text("")
        with pytest.raises(ParseError):
            load_vectors(str(path))

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(3)
        path = str(tmp_path / "v.ctx")
        write_vectors(path, vectors_fixture(rng))
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(ParseError):
            load_vectors(path)

    def test_duplicate_document(self, tmp_path):
        mat = np.zeros((1, 2))
        path = str(tmp_path / "v.ctx")
        with open(path, "wb") as fh:
            for _ in range(2):
                fh.write(json.dumps({"id": "a", "rows": 1, "dim": 2}).encode() + b"\n")
                fh.write(mat.astype("<f8").tobytes())
        with pytest.raises(ParseError, match="'a'"):
            load_vectors(path)

    def test_dim_drift_between_documents(self, tmp_path):
        path = str(tmp_path / "v.ctx")
        with open(path, "wb") as fh:
            fh.write(json.dumps({"id": "a", "rows": 1, "dim": 2}).encode() + b"\n")
            fh.write(np.zeros((1, 2)).astype("<f8").tobytes())
            fh.write(json.dumps({"id": "b", "rows": 1, "dim": 3}).encode() + b"\n")
            fh.write(np.zeros((1, 3)).astype("<f8").tobytes())
        with pytest.raises(ParseError):
            load_vectors(path)


    def test_a_header_claiming_more_rows_than_the_file_holds_allocates_nothing(self, tmp_path):
        path = str(tmp_path / "v.ctx")
        with open(path, "wb") as fh:
            fh.write(json.dumps({"id": "d", "rows": 1125899906842624, "dim": 1}).encode() + b"\n")
            fh.write(np.zeros(4).astype("<f8").tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                load_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value) == (
            f"{path}: vector file truncated in document 'd': its 1125899906842624 x 1 vectors "
            "take 9007199254740992 bytes, 32 remain"
        )
        assert peak < 1 << 20

    @pytest.mark.parametrize("dim", [2**60, 2**70])
    def test_a_dim_numpy_cannot_size_is_a_bad_shape(self, tmp_path, dim):
        path = str(tmp_path / "v.ctx")
        with open(path, "wb") as fh:
            fh.write(json.dumps({"id": "a", "rows": 0, "dim": dim}).encode() + b"\n")
        with pytest.raises(ParseError) as exc:
            load_vectors(path)
        assert str(exc.value) == f"{path}: bad vector-file shape (0, {dim})"

    @pytest.mark.parametrize("header, problem", [
        ([1, 2], "vector-file header is not a JSON object"),
        ({"id": "a", "rows": "two", "dim": 2}, "field 'rows' is not an int"),
        ({"id": "a", "rows": 1, "dim": 2.0}, "field 'dim' is not an int"),
        ({"id": "a", "rows": True, "dim": 2}, "field 'rows' is not an int"),
        ({"id": 5, "rows": 1, "dim": 2}, "field 'id' is not a string"),
        ({"id": "a", "rows": 1}, "misses 'dim'"),
        ({"id": "a", "rows": 1, "dim": 2, "relation_spans": {"r": [0]}}, "'relation_spans'"),
        ({"id": "a", "rows": 1, "dim": 2, "relation_spans": {"r": ["0", 0]}}, "'relation_spans'"),
        ({"id": "a", "rows": 1, "dim": 2, "relation_spans": [[0, 0]]}, "'relation_spans'"),
    ], ids=["list", "rows-string", "dim-float", "rows-bool", "id-int", "dim-missing",
            "span-short", "span-string", "spans-list"])
    def test_a_bad_header_names_the_file_and_field(self, tmp_path, header, problem):
        path = str(tmp_path / "v.ctx")
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(np.zeros((1, 2)).astype("<f8").tobytes())
        with pytest.raises(ParseError) as exc:
            load_vectors(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert problem in str(exc.value)


class TestCheckpoint:
    def test_round_trip_shared(self, tmp_path):
        store = init_random(6, 9, 4, seed=2)
        path = str(tmp_path / "p.ckpt")
        save(store, path)
        assert store.equals(load(path))

    def test_round_trip_per_relation(self, tmp_path):
        store = init_random(6, 9, 4, seed=2, offset_mode="per_relation")
        store.relation_offsets[3] = 0.0
        path = str(tmp_path / "p.ckpt")
        save(store, path)
        back = load(path)
        assert back.offset_mode == "per_relation"
        assert store.equals(back)

    def test_save_is_canonical(self, tmp_path):
        store = init_random(5, 4, 2, seed=9)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save(store, p1)
        save(load(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_preserves_id_strings(self, tmp_path):
        store = init_random(3, 2, 1, seed=0, entity_ids=["x", "y"], relation_ids=["likes"])
        path = str(tmp_path / "p.ckpt")
        save(store, path)
        back = load(path)
        assert back.entity_ids == ["x", "y"]
        assert back.relation_ids == ["likes"]

    def test_expected_dim_mismatch_names_both(self, tmp_path):
        store = init_random(6, 3, 2, seed=0)
        path = str(tmp_path / "p.ckpt")
        save(store, path)
        with pytest.raises(ValidationError, match="6") as exc:
            load(path, expected_dim=8)
        assert "8" in str(exc.value)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "p.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ParseError):
            load(str(path))

    def test_bad_version(self, tmp_path):
        store = init_random(3, 2, 1, seed=0)
        path = str(tmp_path / "p.ckpt")
        save(store, path)
        data = bytearray(open(path, "rb").read())
        data[len(CHECKPOINT_MAGIC)] = 99
        open(path, "wb").write(bytes(data))
        with pytest.raises(ParseError):
            load(path)

    @staticmethod
    def rewrite_header(path, edit):
        """Apply ``edit`` to a saved checkpoint's JSON header in place."""
        data = open(path, "rb").read()
        start = len(CHECKPOINT_MAGIC)
        version, header_len = struct.unpack("<IQ", data[start : start + 12])
        header = json.loads(data[start + 12 : start + 12 + header_len])
        edit(header)
        blob = json.dumps(header).encode()
        with open(path, "wb") as fh:
            fh.write(data[:start] + struct.pack("<IQ", version, len(blob)) + blob)
            fh.write(data[start + 12 + header_len :])

    def saved(self, tmp_path):
        path = str(tmp_path / "p.ckpt")
        save(init_random(3, 4, 2, seed=0), path)
        return path

    def test_missing_header_key(self, tmp_path):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.pop("offset_mode"))
        with pytest.raises(ParseError, match="offset_mode"):
            load(path)

    @pytest.mark.parametrize("key, value, kind", [
        ("dim", "two", "an int"),
        ("dim", True, "an int"),
        ("entity_ids", 5, "a list of strings"),
        ("entity_ids", ["e0", 1, "e2", "e3"], "a list of strings"),
        ("relation_ids", "r0", "a list of strings"),
        ("offset_mode", 3, "a string"),
        ("n_entities", "four", "an int"),
        ("n_relations", "x", "an int"),
    ], ids=["dim-string", "dim-bool", "entity-ids-int", "entity-id-int", "relation-ids-string",
            "offset-mode-int", "entities-count-string", "relations-count-string"])
    def test_a_wrongly_typed_header_field_names_the_file_and_field(self, tmp_path, key, value, kind):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.update({key: value}))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: checkpoint header field {key!r} is not {kind}"

    def test_manifest_missing_a_table(self, tmp_path):
        path = self.saved(tmp_path)

        def drop_last(header):
            header["arrays"] = [e for e in header["arrays"] if e[0] != "outer_b2"]

        self.rewrite_header(path, drop_last)
        with pytest.raises(ParseError, match="outer_b2"):
            load(path)

    def test_negative_shape(self, tmp_path):
        path = self.saved(tmp_path)

        def corrupt(header):
            header["arrays"][0][1] = [-1, 3]

        self.rewrite_header(path, corrupt)
        with pytest.raises(ParseError, match="entity_centers"):
            load(path)

    @pytest.mark.parametrize("key, value, problem", [
        ("n_entities", 999, "field 'n_entities' is 999, but 'entity_ids' holds 4 ids"),
        ("n_relations", 1, "field 'n_relations' is 1, but 'relation_ids' holds 2 ids"),
        ("dim", 0, "field 'dim' is 0, not >= 1"),
        ("offset_mode", "fused", "field 'offset_mode' is 'fused', not one of shared, per_relation"),
    ], ids=["entities-count", "relations-count", "dim-zero", "offset-mode-unknown"])
    def test_a_header_that_contradicts_the_format_names_the_file_and_field(
        self, tmp_path, key, value, problem
    ):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: h.update({key: value}))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: checkpoint header {problem}"

    @pytest.mark.parametrize("edit, entry", [
        (lambda arrays: arrays[0].__setitem__(1, [2**62, 3]), 0),
        (lambda arrays: arrays[2].__setitem__(1, [8, 3]), 2),
        (lambda arrays: arrays.insert(1, arrays.pop(2)), 1),
        (lambda arrays: arrays.append(["extra", [1]]), 15),
        (lambda arrays: arrays[4].__setitem__(1, [3.0, 3]), 4),
    ], ids=["huge", "per-relation-rows", "reordered", "extra", "float"])
    def test_a_manifest_other_than_the_layout_names_the_first_entry_that_differs(
        self, tmp_path, edit, entry
    ):
        path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: edit(h["arrays"]))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value).startswith(f"{path}: checkpoint array manifest entry {entry} is ")

    def test_the_layout_is_checked_against_the_file_size_before_any_array_is_read(self, tmp_path):
        path = self.saved(tmp_path)
        dim = 2**50  # representable, and its entity table alone would take 2**55 bytes

        def huge(header):
            header["dim"] = dim
            shapes = params_mod.layout(dim, 4, 2, "shared")
            header["arrays"] = [[name, list(shape)] for name, shape in shapes.items()]

        self.rewrite_header(path, huge)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(exc.value).startswith(
            f"{path}: checkpoint truncated inside array 'entity_centers': its arrays take "
        )
        assert peak < 1 << 20

    def test_layout_is_the_manifest_save_writes(self, tmp_path):
        for mode in ("shared", "per_relation"):
            store = init_random(3, 4, 2, seed=0, offset_mode=mode)
            shapes = params_mod.layout(3, 4, 2, mode)
            assert list(shapes.items()) == [(n, a.shape) for n, a in store.arrays().items()]

    def test_trailing_bytes(self, tmp_path):
        path = self.saved(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(ParseError, match="trailing"):
            load(path)

    def test_truncated(self, tmp_path):
        store = init_random(3, 2, 1, seed=0)
        path = str(tmp_path / "p.ckpt")
        save(store, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 16])
        with pytest.raises(ParseError):
            load(path)

    def test_a_header_length_past_the_file_is_rejected_before_it_is_read(self, tmp_path):
        path = self.saved(tmp_path)
        data = bytearray(open(path, "rb").read())
        at = len(CHECKPOINT_MAGIC) + 4
        data[at:at + 8] = struct.pack("<Q", 2**40)
        open(path, "wb").write(bytes(data))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        follow = len(data) - at - 8
        assert str(exc.value) == (
            f"{path}: checkpoint truncated inside header: it claims {2**40} bytes, "
            f"{follow} follow its length"
        )
        assert peak < 1 << 20


# the parts of a saved checkpoint that the corruption property edits
_START = len(CHECKPOINT_MAGIC)
_PARTS = ("magic", "version", "header length", "header", "arrays", "truncate")


def _corrupt(data: bytes, header_len: int, part: str, where: int, junk: bytes, number: int) -> bytes:
    """``data`` with one part of a checkpoint whose header took
    ``header_len`` bytes overwritten: its magic, or header or array bytes at
    ``where``, by ``junk``, its version or header length by ``number``; or
    the file cut to ``where`` bytes."""
    body = _START + 12
    if part == "version":
        return data[:_START] + struct.pack("<I", number % 2**32) + data[_START + 4:]
    if part == "header length":
        return data[:_START + 4] + struct.pack("<Q", number) + data[body:]
    if part == "truncate":
        return data[:where % len(data)] if data else data
    lo, n = {"magic": (0, _START), "header": (body, header_len),
             "arrays": (body + header_len, len(data) - body - header_len)}[part]
    at = lo + where % n
    return data[:at] + junk + data[at + len(junk):]


class TestCorruptCheckpoints:
    @settings(max_examples=200, deadline=None)
    @given(
        edits=st.lists(st.tuples(
            st.sampled_from(_PARTS),
            st.integers(0, 2**20),
            st.binary(min_size=1, max_size=12),
            st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2, 2**40, 2**63])),
        ), min_size=1, max_size=3),
    )
    def test_load_raises_only_parse_or_validation_errors(self, tmp_path_factory, edits):
        path = str(tmp_path_factory.getbasetemp() / "corrupt.ckpt")
        save(init_random(3, 4, 2, seed=0, offset_mode="per_relation"), path)
        data = open(path, "rb").read()
        header_len = struct.unpack("<Q", data[_START + 4:_START + 12])[0]
        for edit in sorted(edits, key=lambda e: e[0] == "truncate"):  # cuts last
            data = _corrupt(data, header_len, *edit)
        open(path, "wb").write(data)
        try:
            load(path)
        except ParseError as exc:
            assert str(exc).startswith(f"{path}: ")
        except ValidationError:
            pass
