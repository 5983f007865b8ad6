"""Tests for corpus loading, validation, and token-window chunking."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srbox.corpus import (
    Corpus,
    Document,
    Mention,
    Sequence,
    Triplet,
    chunk_sequences,
    load_corpus,
)
from srbox.errors import ParseError, ValidationError


def doc(doc_id, tokens, mentions=(), triplets=()):
    """Build one corpus record from compact tuples."""
    return {
        "id": doc_id,
        "tokens": list(tokens),
        "mentions": [{"entity": e, "start": s, "end": t} for e, s, t in mentions],
        "triplets": [{"head": h, "relation": r, "tail": t} for h, r, t in triplets],
    }


def write_corpus(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps(d) + "\n")
    return path


@pytest.fixture
def geo_corpus(tmp_path):
    """One document, two entities, one triplet."""
    path = write_corpus(
        tmp_path / "geo.jsonl",
        [
            doc(
                "d0",
                ["Goalpara", "is", "in", "Assam"],
                mentions=[("E1", 0, 0), ("E2", 3, 3)],
                triplets=[("E1", "located_in", "E2")],
            )
        ],
    )
    return load_corpus(path)


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = load_corpus(path)
        assert corpus.documents == []
        assert corpus.n_entities == 0
        assert corpus.n_relations == 0

    def test_single_document_fields(self, geo_corpus):
        assert geo_corpus.n_entities == 2
        assert geo_corpus.n_relations == 1
        assert geo_corpus.n_tokens == 4
        (d,) = geo_corpus.documents
        assert d.doc_id == "d0"
        assert len(d.mentions) == 2
        (t,) = d.triplets
        assert t.key() == (
            geo_corpus.entity_index["E1"],
            geo_corpus.relation_index["located_in"],
            geo_corpus.entity_index["E2"],
        )

    def test_interning_first_appearance_order(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc("a", list("wxyz"), mentions=[("B", 0, 0), ("A", 1, 1)]),
                doc("b", list("wxyz"), mentions=[("C", 2, 2), ("A", 3, 3)]),
            ],
        )
        corpus = load_corpus(path)
        assert corpus.entity_ids == ["B", "A", "C"]

    def test_deterministic_reload(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc(
                    "a",
                    list("uvwxyz"),
                    mentions=[("Z", 0, 1), ("Y", 3, 3)],
                    triplets=[("Z", "r", "Y")],
                )
            ],
        )
        first = load_corpus(path)
        second = load_corpus(path)
        assert first.entity_ids == second.entity_ids
        assert first.relation_ids == second.relation_ids

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = json.dumps(doc("a", ["x"], mentions=[("E", 0, 0)]))
        path.write_text("\n" + record + "\n\n")
        assert len(load_corpus(path).documents) == 1

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_and_crlf_end_a_record(self, tmp_path, newline):
        path = tmp_path / "c.jsonl"
        records = [json.dumps(doc(name, ["x"], mentions=[("E", 0, 0)])) for name in "ab"]
        path.write_bytes(newline.join(records + [""]).encode("utf-8"))
        assert [d.doc_id for d in load_corpus(path).documents] == ["a", "b"]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps(doc("a", ["x"]))
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    def test_missing_tokens_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"id": "a"}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(path)

    @pytest.mark.parametrize("edit, problem", [
        (lambda d: d.update(mentions=5), "'mentions' and 'triplets' must be lists"),
        (lambda d: d.update(triplets={"head": "E"}), "'mentions' and 'triplets' must be lists"),
        (lambda d: d["mentions"].append(["E", 0, 0]), "mention ['E', 0, 0] is not an object"),
        (lambda d: d["triplets"].append("E r F"), "triplet 'E r F' is not an object"),
        (lambda d: d["mentions"][0].update(entity=["x"]), "mention field 'entity' is ['x'], not a string"),
        (lambda d: d["triplets"][0].update(relation=["r"]), "triplet field 'relation' is ['r'], not a string"),
        (lambda d: d["triplets"][0].update(tail=7), "triplet field 'tail' is 7, not a string"),
        (lambda d: d["mentions"][0].update(start="0"), "mention field 'start' is '0', not an int"),
        (lambda d: d["mentions"][0].update(end=True), "mention field 'end' is True, not an int"),
        (lambda d: d["mentions"][0].update(start=0.0), "mention field 'start' is 0.0, not an int"),
        (lambda d: d["mentions"][1].pop("end"), "misses 'end'"),
    ], ids=["mentions-int", "triplets-object", "mention-list", "triplet-string", "entity-list",
            "relation-list", "tail-int", "start-string", "end-bool", "start-float", "end-missing"])
    def test_a_wrongly_typed_field_names_file_line_and_field(self, tmp_path, edit, problem):
        record = doc("b", ["x", "y"], mentions=[("E", 0, 0), ("F", 1, 1)], triplets=[("E", "r", "F")])
        edit(record)
        path = write_corpus(tmp_path / "c.jsonl", [doc("a", ["x"]), record])
        with pytest.raises(ParseError) as exc:
            load_corpus(path)
        assert str(exc.value).startswith(f"{path}: line 2: ")
        assert problem in str(exc.value)

    def test_duplicate_doc_id(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [doc("a", ["x"]), doc("a", ["y"])])
        with pytest.raises(ValidationError, match="line 2.*duplicate"):
            load_corpus(path)

    def test_span_past_document_end(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl", [doc("a", list("wxyz"), mentions=[("E", 3, 7)])]
        )
        with pytest.raises(ValidationError, match="line 1"):
            load_corpus(path)

    def test_span_end_is_inclusive(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl", [doc("a", list("wxyz"), mentions=[("E", 0, 3)])]
        )
        corpus = load_corpus(path)
        assert corpus.documents[0].mentions[0].end == 3

    def test_inverted_span_rejected(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl", [doc("a", list("wxyz"), mentions=[("E", 2, 1)])]
        )
        with pytest.raises(ValidationError):
            load_corpus(path)

    def test_self_loop_rejected(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [doc("a", ["x"], mentions=[("E", 0, 0)], triplets=[("E", "r", "E")])],
        )
        with pytest.raises(ValidationError, match="self-loop"):
            load_corpus(path)

    def test_triplet_entity_never_mentioned(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [doc("a", ["x"], mentions=[("E1", 0, 0)], triplets=[("E1", "r", "E2")])],
        )
        with pytest.raises(ValidationError, match="E2"):
            load_corpus(path)

    def test_triplet_entity_mentioned_in_later_document(self, tmp_path):
        # The mention-coverage check is corpus-wide, not per-line: a triplet
        # may point at an entity whose only mention comes later in the file.
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc("a", ["x"], mentions=[("E1", 0, 0)], triplets=[("E1", "r", "E2")]),
                doc("b", ["y"], mentions=[("E2", 0, 0)]),
            ],
        )
        corpus = load_corpus(path)
        assert corpus.n_entities == 2


class TestChunkSequences:
    def test_single_window(self, geo_corpus):
        seqs = chunk_sequences(geo_corpus, 10)
        assert len(seqs) == 1
        assert (seqs[0].start, seqs[0].stop) == (0, 4)
        assert len(seqs[0].triplets) == 1

    def test_window_arithmetic(self, tmp_path):
        path = write_corpus(tmp_path / "c.jsonl", [doc("a", [str(i) for i in range(10)])])
        seqs = chunk_sequences(load_corpus(path), 4)
        assert [(s.start, s.stop) for s in seqs] == [(0, 4), (4, 8), (8, 10)]
        assert sum(len(s) for s in seqs) == 10

    def test_two_docs_share_a_window(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [doc("a", [str(i) for i in range(6)]), doc("b", [str(i) for i in range(6)])],
        )
        seqs = chunk_sequences(load_corpus(path), 8)
        assert len(seqs) == 2
        assert seqs[0].doc_ids == (0, 1)
        assert seqs[1].doc_ids == (1,)

    def test_mention_straddling_boundary_dropped_from_both(self, tmp_path):
        # Entities A (tokens 2-5, straddles the cut at 4) and B; the triplet
        # (A, r, B) must not attach to either window.
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc(
                    "a",
                    [str(i) for i in range(8)],
                    mentions=[("A", 2, 5), ("B", 6, 7)],
                    triplets=[("A", "r", "B")],
                )
            ],
        )
        seqs = chunk_sequences(load_corpus(path), 4)
        assert all(s.triplets == () for s in seqs)
        assert all("A" not in s.entities for s in seqs)

    def test_triplet_needs_both_endpoints(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc(
                    "a",
                    [str(i) for i in range(8)],
                    mentions=[("A", 0, 0), ("B", 6, 6)],
                    triplets=[("A", "r", "B")],
                )
            ],
        )
        seqs = chunk_sequences(load_corpus(path), 4)
        assert seqs[0].triplets == ()
        assert seqs[1].triplets == ()
        both = chunk_sequences(load_corpus(path), 8)
        assert len(both[0].triplets) == 1

    def test_cross_document_triplet(self, tmp_path):
        # Doc b's triplet endpoints are mentioned in docs a and b; once a
        # window covers both mentions, the triplet attaches.
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc("a", ["x", "y"], mentions=[("A", 0, 0)]),
                doc("b", ["z", "w"], mentions=[("B", 1, 1)], triplets=[("A", "r", "B")]),
            ],
        )
        seqs = chunk_sequences(load_corpus(path), 4)
        assert len(seqs) == 1
        assert len(seqs[0].triplets) == 1

    def test_duplicate_triplets_deduplicated(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [
                doc(
                    "a",
                    ["x", "y"],
                    mentions=[("A", 0, 0), ("B", 1, 1)],
                    triplets=[("A", "r", "B"), ("A", "r", "B")],
                ),
                doc(
                    "b",
                    ["x", "y"],
                    mentions=[("A", 0, 0), ("B", 1, 1)],
                    triplets=[("A", "r", "B")],
                ),
            ],
        )
        seqs = chunk_sequences(load_corpus(path), 16)
        assert len(seqs[0].triplets) == 1

    def test_entities_sorted(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [doc("a", list("wxyz"), mentions=[("B", 3, 3), ("A", 0, 0), ("C", 1, 1)])],
        )
        seqs = chunk_sequences(load_corpus(path), 8)
        assert list(seqs[0].entities) == sorted(seqs[0].entities)

    def test_bad_seq_len(self, geo_corpus):
        with pytest.raises(ValidationError):
            chunk_sequences(geo_corpus, 0)

    def test_window_lengths_uniform_except_last(self, tmp_path):
        path = write_corpus(
            tmp_path / "c.jsonl",
            [doc("a", [str(i) for i in range(7)]), doc("b", [str(i) for i in range(6)])],
        )
        seqs = chunk_sequences(load_corpus(path), 5)
        lengths = [len(s) for s in seqs]
        assert lengths == [5, 5, 3]


# ---------------------------------------------------------------------------
# one-pass chunking against the loop it replaced


def _ref_chunk_sequences(corpus, seq_len):
    """The scan of every document for every window that ``chunk_sequences``
    replaced, kept verbatim as its reference."""
    offsets = corpus.doc_offsets()
    total = corpus.n_tokens
    sequences: list[Sequence] = []
    for seq_id, w_start in enumerate(range(0, total, seq_len)):
        w_stop = min(w_start + seq_len, total)
        doc_ids = []
        window_entities: set[int] = set()
        for d, doc in enumerate(corpus.documents):
            d_start, d_stop = offsets[d], offsets[d] + len(doc.tokens)
            if d_start >= w_stop or d_stop <= w_start:
                continue
            doc_ids.append(d)
            for m in doc.mentions:
                if d_start + m.start >= w_start and d_start + m.end < w_stop:
                    window_entities.add(m.entity)
        by_key: dict[tuple[int, int, int], Triplet] = {}
        for d in doc_ids:
            for t in corpus.documents[d].triplets:
                if t.head in window_entities and t.tail in window_entities:
                    by_key.setdefault(t.key(), t)
        triplets = tuple(by_key[k] for k in sorted(by_key))
        sequences.append(
            Sequence(
                seq_id=seq_id,
                start=w_start,
                stop=w_stop,
                doc_ids=tuple(doc_ids),
                triplets=triplets,
                entities=tuple(sorted(window_entities)),
            )
        )
    return sequences


@st.composite
def corpora(draw):
    """Documents of 0-9 tokens (empty ones included) with random mentions of
    five entities and random triplets among them."""
    documents = []
    for i in range(draw(st.integers(0, 12))):
        n_tok = draw(st.integers(0, 9))
        mentions = []
        if n_tok:
            for _ in range(draw(st.integers(0, 4))):
                start = draw(st.integers(0, n_tok - 1))
                end = draw(st.integers(start, n_tok - 1))
                mentions.append(Mention(draw(st.integers(0, 4)), start, end))
        triplets = [
            Triplet(h, r, t, i)
            for h, r, t in draw(st.lists(
                st.tuples(st.integers(0, 4), st.integers(0, 1), st.integers(0, 4)), max_size=4,
            ))
            if h != t
        ]
        documents.append(
            Document(f"d{i}", ("w",) * n_tok, tuple(mentions), tuple(triplets))
        )
    entity_ids = [f"e{i}" for i in range(5)]
    relation_ids = ["r0", "r1"]
    return Corpus(
        documents, entity_ids, relation_ids,
        {e: i for i, e in enumerate(entity_ids)}, {r: i for i, r in enumerate(relation_ids)},
    )


class TestChunkingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.integers(1, 12))
    def test_same_sequences_as_the_scan(self, corpus, seq_len):
        assert chunk_sequences(corpus, seq_len) == _ref_chunk_sequences(corpus, seq_len)
