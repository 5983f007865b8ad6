"""Tests for KG loading, query generation, the answer oracle, and ranking.

The answer oracle is checked against a second evaluator written here from
the set semantics alone (linear scans over the edge list, no indexes), and
the ranking code against a counting oracle.
"""

import os
import random
import tempfile
import tracemalloc
from itertools import product, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srbox import evalgen
from srbox.errors import ParseError, ValidationError
from srbox.evalgen import (
    EVAL_QUERY_TYPES,
    TRAIN_QUERY_TYPES,
    EdgeIndex,
    GeneratedQuery,
    KnowledgeGraph,
    brute_force_answers,
    build_grid_kg,
    generate_block,
    generate_queries,
    hits_at_k,
    load_kg,
    load_queries,
    metrics_report,
    mrr,
    ptranse_distances,
    query_distances,
    rank_answers,
    query_blocks,
    ranks_from_distances,
    read_query_blocks,
    save_kg,
    write_queries,
)
from srbox.params import init_random
from srbox.rng import STREAM_QUERY_GEN, substream
from srbox.structures import Edge, NodeKind, QueryDag, chain_dag, dag_of, merge_dag


def naive_answers(dag, edges):
    """Second evaluator: resolve nodes by repeated sweeps, edges by scans."""
    edges = list(edges)
    kinds = dict(dag.nodes)
    values = {node: {ent} for node, ent in dag.anchors}
    incoming = {}
    for e in dag.edges:
        incoming.setdefault(e.dst, []).append(e)
    pending = set(incoming)
    while pending:
        ready = [n for n in pending if all(e.src in values for e in incoming[n])]
        if not ready:
            raise AssertionError("unresolvable DAG in the test oracle")
        node = ready[0]
        per_edge = []
        for e in incoming[node]:
            srcs = values[e.src]
            if e.inverse:
                hit = {h for (h, r, t) in edges if r == e.relation and t in srcs}
            else:
                hit = {t for (h, r, t) in edges if r == e.relation and h in srcs}
            per_edge.append(hit)
        kind = kinds[node]
        if kind is NodeKind.INTERSECTION:
            val = set.intersection(*per_edge)
        elif kind is NodeKind.UNION:
            val = set.union(*per_edge)
        else:
            (val,) = per_edge
        values[node] = val
        pending.remove(node)
    return values[dag.answer_node]


def naive_ranks(dist, hard, answers_full, raw):
    out = {}
    for a in sorted(hard):
        competitors = [
            i for i in range(len(dist)) if i != a and (raw or i not in answers_full)
        ]
        better = sum(1 for i in competitors if dist[i] < dist[a])
        tied = sum(1 for i in competitors if dist[i] == dist[a])
        out[a] = 1.0 + better + 0.5 * tied
    return out


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in rows:
            fh.write(f"{h}\t{r}\t{t}\n")
    return str(path)


def reference_read_fields(path):
    """The fields of a head<TAB>relation<TAB>tail file, three per non-blank
    line, as one flat list of names: the reader ``load_kg`` used before it
    parsed whole arrays, kept as its reference."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    lines = text.split("\n")
    tabs = list(map(str.count, lines, repeat("\t")))
    for lineno, (line, n) in enumerate(zip(lines, tabs), start=1):
        if line and n != 2:
            raise ParseError(f"{path}:{lineno}: expected 3 tab-separated fields, got {n + 1}")
    kept = [line for line in lines if line]
    return "\t".join(kept).split("\t") if kept else []


def reference_load_kg(train_path, valid_path, test_path):
    """``load_kg`` through sorted sets and dicts of names."""
    paths = (train_path, valid_path, test_path)
    fields = {split: reference_read_fields(path) for split, path in zip(evalgen.SPLITS, paths)}
    entities = sorted(set().union(*(f[i::3] for f in fields.values() for i in (0, 2))))
    relations = sorted(set().union(*(f[1::3] for f in fields.values())))
    e_idx = {e: i for i, e in enumerate(entities)}
    r_idx = {r: i for i, r in enumerate(relations)}
    rows = {}
    for split, f in fields.items():
        triplets = list(zip(*(map(ids.__getitem__, f[i::3]) for i, ids in enumerate((e_idx, r_idx, e_idx)))))
        kept = list(dict.fromkeys(triplets))
        rows[split] = np.array(kept, dtype=np.int64).reshape(-1, 3)
    kg = KnowledgeGraph(entities, relations, rows)
    kg.validate()
    return kg


@pytest.fixture
def small_kg(tmp_path):
    train = write_tsv(tmp_path / "train.tsv", [
        ("A", "r1", "B"), ("B", "r2", "C"), ("A", "r1", "C"), ("C", "r2", "D"),
    ])
    valid = write_tsv(tmp_path / "valid.tsv", [("A", "r1", "D")])
    test = write_tsv(tmp_path / "test.tsv", [("B", "r2", "D")])
    return load_kg(train, valid, test)


class TestLoadKg:
    def test_fields(self, small_kg):
        assert small_kg.n_entities == 4
        assert small_kg.n_relations == 2
        assert small_kg.entity_ids == sorted(small_kg.entity_ids)
        assert len(small_kg.train) == 4
        assert len(small_kg.valid) == 1
        assert len(small_kg.test) == 1

    def test_bad_field_count_names_location(self, tmp_path):
        bad = tmp_path / "train.tsv"
        bad.write_text("A\tr1\tB\nA\tr1\n")
        empty = write_tsv(tmp_path / "e.tsv", [])
        with pytest.raises(ParseError, match="train.tsv:2"):
            load_kg(str(bad), empty, empty)

    def test_duplicate_edges_dropped(self, tmp_path):
        train = write_tsv(tmp_path / "train.tsv", [("A", "r", "B"), ("A", "r", "B")])
        empty = write_tsv(tmp_path / "e.tsv", [])
        kg = load_kg(train, empty, empty)
        assert len(kg.train) == 1

    def test_split_overlap_rejected(self, tmp_path):
        train = write_tsv(tmp_path / "train.tsv", [("A", "r", "B")])
        test = write_tsv(tmp_path / "test.tsv", [("A", "r", "B")])
        empty = write_tsv(tmp_path / "e.tsv", [])
        with pytest.raises(ValidationError):
            load_kg(train, empty, test)

    def test_save_round_trip(self, small_kg, tmp_path):
        out = tmp_path / "kg"
        out.mkdir()
        paths = save_kg(small_kg, str(out))
        back = load_kg(paths["train"], paths["valid"], paths["test"])
        assert back.entity_ids == small_kg.entity_ids
        assert back.relation_ids == small_kg.relation_ids
        assert sorted(back.train) == sorted(small_kg.train)
        assert sorted(back.test) == sorted(small_kg.test)


class TestLoadKgFormat:
    """The loader's file format, pinned: line endings, blank and malformed
    lines, duplicates, split overlap and id order."""

    ROWS = [("b", "r2", "a"), ("B", "r1", "c"), ("é", "r2", "b"), ("a", "r1", "B")]

    def _load(self, folder, train_text, valid_text="", test_text=""):
        folder.mkdir(exist_ok=True)
        paths = []
        for split, text in (("train", train_text), ("valid", valid_text), ("test", test_text)):
            path = folder / f"{split}.tsv"
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path))
        return load_kg(*paths)

    @staticmethod
    def _text(rows, newline="\n"):
        return "".join(f"{h}\t{r}\t{t}{newline}" for h, r, t in rows)

    @staticmethod
    def _same(a, b):
        assert a.entity_ids == b.entity_ids and a.relation_ids == b.relation_ids
        assert (a.train, a.valid, a.test) == (b.train, b.valid, b.test)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_matches_lf(self, tmp_path, newline):
        lf = self._load(tmp_path / "lf", self._text(self.ROWS[:3]), self._text(self.ROWS[3:]))
        crlf = self._load(
            tmp_path / "crlf", self._text(self.ROWS[:3], newline), self._text(self.ROWS[3:], newline)
        )
        self._same(lf, crlf)
        assert crlf.entity_ids == ["B", "a", "b", "c", "é"]

    def test_blank_lines_skipped(self, tmp_path):
        plain = self._load(tmp_path, self._text(self.ROWS))
        lines = self._text(self.ROWS).splitlines(keepends=True)
        gappy = self._load(tmp_path / "gaps", "\n" + lines[0] + "\n\n" + "".join(lines[1:]) + "\n")
        self._same(plain, gappy)

    def test_last_line_without_newline(self, tmp_path):
        plain = self._load(tmp_path, self._text(self.ROWS))
        self._same(plain, self._load(tmp_path / "open", self._text(self.ROWS).rstrip("\n")))

    @pytest.mark.parametrize("bad, got", [("  ", 1), ("a\tr1", 2), ("a\tr1\tb\tc", 4), ("\t\t\t", 4)])
    def test_malformed_line_names_path_and_line(self, tmp_path, bad, got):
        text = self._text(self.ROWS[:1]) + "\n" + bad + "\n" + self._text(self.ROWS[1:])
        with pytest.raises(ParseError, match=rf"train\.tsv:3: expected 3 tab-separated fields, got {got}"):
            self._load(tmp_path, text)

    def test_malformed_line_in_test_split(self, tmp_path):
        with pytest.raises(ParseError, match=r"test\.tsv:2: .* got 2"):
            self._load(tmp_path, self._text(self.ROWS[:2]), "", self._text(self.ROWS[2:3]) + "x\ty\n")

    def test_duplicates_keep_first_occurrence_order(self, tmp_path):
        rows = [self.ROWS[2], self.ROWS[0], self.ROWS[2], self.ROWS[1], self.ROWS[0]]
        kg = self._load(tmp_path, self._text(rows))
        names = [(kg.entity_ids[h], kg.relation_ids[r], kg.entity_ids[t]) for h, r, t in kg.train]
        assert names == [self.ROWS[2], self.ROWS[0], self.ROWS[1]]

    def test_overlap_message(self, tmp_path):
        with pytest.raises(ValidationError, match=r"^valid split shares 1 triplet\(s\) with train$"):
            self._load(tmp_path, self._text(self.ROWS), self._text(self.ROWS[1:2] * 2))
        with pytest.raises(ValidationError, match=r"^test split shares 2 triplet\(s\) with train$"):
            self._load(tmp_path / "t", self._text(self.ROWS[:2]), "", self._text(self.ROWS[::-1]))

    def test_a_repeated_shared_triplet_counts_once(self):
        # load_kg keeps one of each triplet, but a graph made directly may
        # repeat one in any split
        ids = ["a", "b", "c"], ["r"]
        rows = {"train": np.array([[0, 0, 1], [1, 0, 2], [0, 0, 1]]),
                "valid": np.array([[1, 0, 2], [2, 0, 0], [1, 0, 2], [1, 0, 2]]),
                "test": np.array([[0, 0, 1], [0, 0, 1], [1, 0, 2], [2, 0, 1]])}
        with pytest.raises(ValidationError, match=r"^valid split shares 1 triplet\(s\) with train$"):
            KnowledgeGraph(*ids, rows).validate()
        rows["valid"] = rows["valid"][1:2]
        with pytest.raises(ValidationError, match=r"^test split shares 2 triplet\(s\) with train$"):
            KnowledgeGraph(*ids, rows).validate()
        KnowledgeGraph(*ids, {**rows, "train": np.empty((0, 3), dtype=np.int64)}).validate()

    def test_ids_sorted(self, tmp_path):
        kg = self._load(tmp_path, self._text(self.ROWS[:2]), self._text(self.ROWS[2:3]),
                        self._text(self.ROWS[3:]))
        assert kg.entity_ids == sorted({"a", "b", "B", "c", "é"})
        assert kg.relation_ids == ["r1", "r2"]
        assert kg.train == [(2, 1, 1), (0, 0, 3)]
        assert kg.valid == [(4, 1, 2)] and kg.test == [(1, 0, 0)]


# Name pieces whose joins give prefixes of other names, names sharing their
# first 8 bytes, names longer than 8 bytes, multibyte UTF-8 and NUL.
NAME_PIECES = ["", "a", "B", "ab", "abcdefgh", "abcdefgh\x00", "é", "名", "😀", "\x00", "zz"]
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe5\x90"]


@st.composite
def split_files(draw, max_lines):
    """The bytes of one split file over a small pool of names."""
    pool = draw(st.lists(st.lists(st.sampled_from(NAME_PIECES), max_size=4).map("".join),
                         min_size=1, max_size=6))
    name = st.sampled_from(pool)
    good = st.tuples(name, name, name).map("\t".join)
    bad = st.lists(name, min_size=1, max_size=5).filter(lambda f: len(f) != 3).map("\t".join)
    newline = st.sampled_from(["\n", "\r\n", "\r"])
    lines = draw(st.lists(st.tuples(st.one_of(good, good, good, st.just("")), newline),
                          max_size=max_lines))
    if draw(st.integers(0, 3)) == 3:
        lines.insert(draw(st.integers(0, len(lines))), (draw(bad), draw(newline)))
    data = "".join(text + end for text, end in lines).encode("utf-8")
    if lines and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(INVALID_UTF8)) + data[at:]
    return data


def load_outcome(load, paths):
    """What a reader gives: the graph's names and rows, or its error."""
    try:
        kg = load(*paths)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)
    rows = {split: (kg.rows[split].dtype, kg.rows[split].shape, kg.rows[split].tolist())
            for split in evalgen.SPLITS}
    return kg.entity_ids, kg.relation_ids, rows


def assert_loads_as_reference(*splits):
    """``load_kg`` and the reference reader give the same outcome on the
    bytes of the three split files."""
    with tempfile.TemporaryDirectory() as folder:
        paths = []
        for split, data in zip(evalgen.SPLITS, splits):
            paths.append(os.path.join(folder, f"{split}.tsv"))
            with open(paths[-1], "wb") as fh:
                fh.write(data)
        assert load_outcome(load_kg, paths) == load_outcome(reference_load_kg, paths)


class TestLoadKgMatchesReference:
    """``load_kg`` against the reference reader kept in this file."""

    @settings(max_examples=300, deadline=None)
    @given(split_files(12), split_files(3), split_files(3))
    def test_random_splits(self, train, valid, test):
        assert_loads_as_reference(train, valid, test)

    @settings(max_examples=100, deadline=None)
    @given(split_files(12), split_files(3), split_files(3))
    def test_random_splits_in_wide_passes(self, train, valid, test):
        """As above, with a pass reading up to one key word per data byte,
        so that small files also take passes of many words."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(evalgen, "_DATA_PER_WORD", 1)
            assert_loads_as_reference(train, valid, test)

    def test_long_names_tie_over_many_words(self, tmp_path):
        names = ["p" * 40 + tail for tail in ("", "a", "\x00", "é", "ab", "a" * 30)] + ["p" * 39]
        rows = [(h, "r" * 20 + t[-1:], t) for h in names for t in names]
        paths = [write_tsv(tmp_path / f"{split}.tsv", part)
                 for split, part in zip(evalgen.SPLITS, (rows, [], []))]
        kg = load_kg(*paths)
        assert kg.entity_ids == sorted(names)
        assert load_outcome(load_kg, paths) == load_outcome(reference_load_kg, paths)

    def test_long_shared_prefixes_sort_in_wide_passes(self, tmp_path, monkeypatch):
        prefix = "p" * 3000
        names = [prefix + tail for tail in ("", "a", "\x00", "é", "ab", "a" * 5000, "\x00" * 9)]
        names += [prefix[:-1], prefix[:-7] + "q"]
        rows = [(h, f"r{i % 3}", t) for i, (h, t) in enumerate(product(names, names))]
        paths = [write_tsv(tmp_path / f"{split}.tsv", part)
                 for split, part in zip(evalgen.SPLITS, (rows, [], []))]
        widths = record_pass_widths(monkeypatch)
        assert load_outcome(load_kg, paths) == load_outcome(reference_load_kg, paths)
        assert max(widths) > 1  # some pass read more than one word of each tied name

    def test_memory_is_linear_in_the_file_for_a_long_name(self, tmp_path):
        paths = long_name_splits(tmp_path)
        size = os.path.getsize(paths[0])
        tracemalloc.start()
        try:
            kg = load_kg(*paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * size, (peak, size)
        assert kg.entity_ids[-3:] == [LONG[:-1], LONG, "n" * 8 + "x"]
        assert load_outcome(load_kg, paths) == load_outcome(reference_load_kg, paths)

    def test_a_long_name_takes_few_passes(self, tmp_path, monkeypatch):
        """A pass after the first reads about 7/32 of the data's bytes across
        the names still tied: three 1 MB names in a 3 MB file take five such
        passes, where 7 bytes a pass would take over 140 000."""
        paths = long_name_splits(tmp_path)
        widths = record_pass_widths(monkeypatch)
        load_kg(*paths)
        assert len(widths) <= 10, widths


LONG = "n" * 1_000_000


def long_name_splits(tmp_path):
    """A train split of 3000 short lines, three of which hold 1 MB names."""
    rows = [(f"e{i:04d}", f"r{i % 7}", f"e{(7 * i) % 3000:04d}") for i in range(3000)]
    rows[10] = (LONG, "r0", "e0001")
    rows[2000] = ("e0002", "r1", LONG)
    rows[2500] = ("n" * 8 + "x", "r2", LONG[:-1])
    return [write_tsv(tmp_path / f"{split}.tsv", part)
            for split, part in zip(evalgen.SPLITS, (rows, [], []))]


def record_pass_widths(monkeypatch):
    """The key words per name of each ``_intern`` pass from here on."""
    widths = []
    name_keys = evalgen._name_keys

    def recorded(words, starts, left, width):
        widths.append(width)
        return name_keys(words, starts, left, width)

    monkeypatch.setattr(evalgen, "_name_keys", recorded)
    return widths


class TestEdgeIndex:
    def test_forward_and_inverse(self):
        idx = EdgeIndex([(0, 0, 1), (0, 0, 2), (3, 0, 1), (0, 1, 3)])
        assert idx.fwd.image({0}, 0) == {1, 2}
        assert idx.fwd.image({0, 3}, 0) == {1, 2}
        assert idx.rev.image({1}, 0) == {0, 3}
        assert idx.fwd.image({0}, 5) == set()


class TestBruteForce:
    def test_direct_lookup(self):
        dag = chain_dag(0, [(0, False)])
        assert brute_force_answers(dag, [(0, 0, 1), (0, 0, 2)]) == {1, 2}

    def test_hand_intersection(self):
        # X=0, Y=1, Z=2, W=3: edges (X,r1,Z), (Y,r2,Z), (X,r1,W)
        dag = merge_dag([(0, 0, False), (1, 1, False)])
        edges = [(0, 0, 2), (1, 1, 2), (0, 0, 3)]
        assert brute_force_answers(dag, edges) == {2}

    def test_relation_without_edges(self):
        dag = chain_dag(0, [(4, False)])
        assert brute_force_answers(dag, [(0, 0, 1)]) == set()

    def test_matches_second_evaluator_on_random_dags(self):
        rng = np.random.default_rng(99)
        n_ent, n_rel = 12, 3
        for _ in range(1000):
            edges = {
                (int(rng.integers(n_ent)), int(rng.integers(n_rel)), int(rng.integers(n_ent)))
                for _ in range(int(rng.integers(5, 40)))
            }
            edges = [e for e in edges if e[0] != e[2]]
            dag = random_dag(rng, n_ent, n_rel)
            assert brute_force_answers(dag, edges) == naive_answers(dag, edges)


def random_dag(rng, n_ent, n_rel):
    """A random query DAG spanning all node kinds."""
    shape = int(rng.integers(6))
    ent = lambda: int(rng.integers(n_ent))
    rel = lambda: int(rng.integers(n_rel))
    inv = lambda: bool(rng.integers(2))
    if shape == 0:
        return chain_dag(ent(), [(rel(), inv())])
    if shape == 1:
        return chain_dag(ent(), [(rel(), inv()), (rel(), inv())])
    if shape == 2:
        return chain_dag(ent(), [(rel(), inv()), (rel(), inv()), (rel(), inv())])
    if shape == 3:
        branches = [(ent(), rel(), inv()) for _ in range(2 + int(rng.integers(2)))]
        return merge_dag(branches)
    if shape == 4:  # union of two projections
        return QueryDag(
            anchors=((0, ent()), (1, ent())),
            edges=(Edge(0, 2, rel(), inv()), Edge(1, 2, rel(), inv())),
            nodes=((2, NodeKind.UNION),),
            answer_node=2,
        )
    # union then projection
    return QueryDag(
        anchors=((0, ent()), (1, ent())),
        edges=(
            Edge(0, 2, rel(), inv()),
            Edge(1, 2, rel(), inv()),
            Edge(2, 3, rel(), inv()),
        ),
        nodes=((2, NodeKind.UNION), (3, NodeKind.PROJECTION)),
        answer_node=3,
    )


class TestGeneratedQueryInvariants:
    def test_full_must_contain_train(self):
        with pytest.raises(ValidationError):
            evalgen.check_answers(frozenset({1, 2}), frozenset({2}))

    def test_full_nonempty(self):
        with pytest.raises(ValidationError):
            evalgen.check_answers(frozenset(), frozenset())


EXPECTED_SHAPES = {
    # qtype -> (n_anchors, n_edges, answer node kind)
    "1p": (1, 1, NodeKind.PROJECTION),
    "2p": (1, 2, NodeKind.PROJECTION),
    "3p": (1, 3, NodeKind.PROJECTION),
    "2i": (2, 2, NodeKind.INTERSECTION),
    "3i": (3, 3, NodeKind.INTERSECTION),
    "ip": (2, 3, NodeKind.PROJECTION),
    "pi": (2, 3, NodeKind.INTERSECTION),
    "2u": (2, 2, NodeKind.UNION),
    "up": (2, 3, NodeKind.PROJECTION),
}


class TestGenerateQueries:
    def setup_method(self):
        self.kg = build_grid_kg(width=8, height=6, seed=4)

    def test_shapes_and_oracle_agreement(self):
        all_edges = self.kg.all_edges()
        for qtype, (n_anchor, n_edge, kind) in EXPECTED_SHAPES.items():
            rng = substream(17, STREAM_QUERY_GEN)
            queries = generate_queries(self.kg, qtype, 12, "test", rng)
            assert queries, qtype
            for q in queries:
                assert q.qtype == qtype
                assert len(q.dag.anchors) == n_anchor
                assert len(q.dag.edges) == n_edge
                assert dict(q.dag.nodes)[q.dag.answer_node] is kind
                assert q.hard_answers
                assert q.answers_full == naive_answers(q.dag, all_edges)
                assert q.answers_train == naive_answers(q.dag, self.kg.train)

    def test_train_split_uses_train_edges_only(self):
        for qtype in ("1p", "2p", "2i"):
            rng = substream(3, STREAM_QUERY_GEN)
            for q in generate_queries(self.kg, qtype, 15, "train", rng):
                assert q.answers_train
                assert q.answers_train == naive_answers(q.dag, self.kg.train)

    def test_eval_type_rejected_for_train_split(self):
        rng = substream(0, STREAM_QUERY_GEN)
        with pytest.raises(ValidationError, match="ip"):
            generate_queries(self.kg, "ip", 1, "train", rng)

    def test_unknown_split_and_type(self):
        rng = substream(0, STREAM_QUERY_GEN)
        with pytest.raises(ValidationError):
            generate_queries(self.kg, "1p", 1, "dev", rng)
        with pytest.raises(ValidationError):
            generate_queries(self.kg, "4p", 1, "test", rng)

    def test_negative_count(self):
        rng = substream(0, STREAM_QUERY_GEN)
        with pytest.raises(ValidationError):
            generate_queries(self.kg, "1p", -1, "test", rng)

    def test_zero_count_builds_no_index(self, monkeypatch):
        def no_index(edges):
            raise AssertionError("EdgeIndex built for an empty request")

        monkeypatch.setattr(evalgen, "EdgeIndex", no_index)
        rng = substream(0, STREAM_QUERY_GEN)
        before = rng.bit_generator.state
        for split in ("train", "test"):
            assert generate_queries(self.kg, "2p", 0, split, rng) == []
        assert rng.bit_generator.state == before
        with pytest.raises(ValidationError):
            generate_queries(self.kg, "ip", 0, "train", rng)

    def test_one_index_per_split_per_graph(self, monkeypatch):
        built = []

        class Counted(EdgeIndex):
            def __init__(self, edges):
                built.append(1)
                super().__init__(edges)

        monkeypatch.setattr(evalgen, "EdgeIndex", Counted)
        rng = substream(3, STREAM_QUERY_GEN)
        for qtype in EVAL_QUERY_TYPES:
            assert generate_queries(self.kg, qtype, 3, "test", rng)
        for qtype in TRAIN_QUERY_TYPES:
            assert generate_queries(self.kg, qtype, 3, "train", rng)
        assert len(built) == 2
        keys = list(product(range(self.kg.n_entities + 1), range(self.kg.n_relations + 1)))
        for index, edges in ((self.kg.train_index, self.kg.train),
                             (self.kg.full_index, self.kg.all_edges())):
            fresh = EdgeIndex(edges)
            assert [index.fwd.get(k) for k in keys] == [fresh.fwd.get(k) for k in keys]

    def test_warm_indexes_give_the_same_queries(self):
        generate_queries(self.kg, "2p", 5, "train", substream(1, STREAM_QUERY_GEN))
        fresh = build_grid_kg(width=8, height=6, seed=4)
        for split, qtype in (("test", "pi"), ("train", "3i"), ("valid", "up")):
            a = generate_queries(self.kg, qtype, 6, split, substream(9, STREAM_QUERY_GEN))
            b = generate_queries(fresh, qtype, 6, split, substream(9, STREAM_QUERY_GEN))
            assert a == b

    def test_deterministic_under_seed(self):
        a = generate_queries(self.kg, "2i", 8, "test", substream(5, STREAM_QUERY_GEN))
        b = generate_queries(self.kg, "2i", 8, "test", substream(5, STREAM_QUERY_GEN))
        assert a == b

    def test_budget_exhaustion_warns(self, tmp_path):
        # the single test edge has no outgoing continuation, so no 2p eval
        # query can ever be built
        train = write_tsv(tmp_path / "train.tsv", [("A", "r", "B")])
        valid = write_tsv(tmp_path / "valid.tsv", [])
        test = write_tsv(tmp_path / "test.tsv", [("C", "r", "D")])
        kg = load_kg(train, valid, test)
        rng = substream(0, STREAM_QUERY_GEN)
        with pytest.warns(UserWarning, match="0/4"):
            got = generate_queries(kg, "2p", 4, "test", rng)
        assert got == []

    @pytest.mark.parametrize("generate", [generate_queries, generate_block])
    def test_budget_warning_names_the_callers_line(self, tmp_path, generate):
        train = write_tsv(tmp_path / "train.tsv", [("A", "r", "B")])
        test = write_tsv(tmp_path / "test.tsv", [("C", "r", "D")])
        kg = load_kg(train, write_tsv(tmp_path / "valid.tsv", []), test)
        with pytest.warns(UserWarning, match="0/4") as caught:
            generate(kg, "2p", 4, "test", substream(0, STREAM_QUERY_GEN))
        assert [w.filename for w in caught] == [__file__]

    def test_one_p_is_a_test_triplet(self):
        rng = substream(11, STREAM_QUERY_GEN)
        test_edges = set(self.kg.test)
        index_all = {(h, r) for h, r, t in self.kg.all_edges()}
        for q in generate_queries(self.kg, "1p", 10, "test", rng):
            (anchor_node, anchor) = q.dag.anchors[0]
            (edge,) = q.dag.edges
            assert (anchor, edge.relation) in index_all
            assert any((anchor, edge.relation, t) in test_edges for t in q.hard_answers)


def assert_blocks_equal(a, b):
    assert (a.qtype, a.shape, a.plan) == (b.qtype, b.shape, b.plan)
    for name in ("anchors", "relations", "positions"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == np.int64
    for name in ("train", "full", "hard"):
        np.testing.assert_array_equal(getattr(a, name).offsets, getattr(b, name).offsets)
        np.testing.assert_array_equal(getattr(a, name).ids, getattr(b, name).ids)


class TestGenerateBlock:
    def setup_method(self):
        self.kg = build_grid_kg(width=8, height=6, seed=4)

    def test_a_block_holds_the_list_forms_queries(self):
        for split, types in (("test", EVAL_QUERY_TYPES), ("train", TRAIN_QUERY_TYPES)):
            for qtype in types:
                block = generate_block(self.kg, qtype, 7, split, substream(2, STREAM_QUERY_GEN))
                queries = generate_queries(self.kg, qtype, 7, split, substream(2, STREAM_QUERY_GEN))
                assert len(block) == 7
                assert block.shape == evalgen.TYPE_SHAPES[qtype]
                (expected,) = query_blocks(queries)
                assert_blocks_equal(block, expected)

    def test_write_then_read_gives_the_blocks_back(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        block = generate_block(self.kg, "pi", 5, "test", substream(6, STREAM_QUERY_GEN))
        write_queries([block], self.kg, path)
        (back,) = read_query_blocks(path, self.kg)
        assert_blocks_equal(back, block)

        rng = substream(6, STREAM_QUERY_GEN)
        queries = [q for t in EVAL_QUERY_TYPES for q in generate_queries(self.kg, t, 4, "test", rng)]
        random.Random(0).shuffle(queries)  # the nine types interleaved
        write_queries(query_blocks(queries), self.kg, path)
        assert load_queries(path, self.kg) == queries
        blocks = read_query_blocks(path, self.kg)
        assert len(blocks) == len(EVAL_QUERY_TYPES)
        for got, expected in zip(blocks, query_blocks(queries)):
            assert_blocks_equal(got, expected)

    def test_an_empty_block_keeps_its_slots(self, tmp_path):
        train = write_tsv(tmp_path / "train.tsv", [("A", "r", "B")])
        test = write_tsv(tmp_path / "test.tsv", [("C", "r", "D")])
        kg = load_kg(train, write_tsv(tmp_path / "valid.tsv", []), test)
        with pytest.warns(UserWarning, match="0/2"):
            block = generate_block(kg, "2i", 2, "test", substream(0, STREAM_QUERY_GEN))
        assert len(block) == 0
        assert block.anchors.shape == (0, 2) and block.relations.shape == (0, 2)
        path = str(tmp_path / "q.jsonl")
        write_queries([block], kg, path)
        assert open(path).read() == ""


class TestDagToPath:
    """The path the PTransE scorer reads from a query's DAG: a chain scores
    as ``ptranse_distances`` of its anchor and hops, anything else is
    rejected."""

    store = init_random(4, 6, 3, seed=0)

    def path_distances(self, dag):
        return query_distances(GeneratedQuery("2p", dag, frozenset(), frozenset({0})),
                               self.store, "ptranse")

    def test_chain_ok(self):
        dag = chain_dag(4, [(1, False), (0, True)])
        expected = ptranse_distances(4, [(1, False), (0, True)], self.store)
        assert self.path_distances(dag).tobytes() == expected.tobytes()

    def test_intersection_rejected(self):
        dag = merge_dag([(0, 0, False), (1, 1, False)])
        with pytest.raises(ValidationError, match="unsupported"):
            self.path_distances(dag)

    def test_chain_with_unordered_node_ids(self):
        dag = QueryDag(
            anchors=((5, 4),),
            edges=(Edge(2, 9, 0, True), Edge(5, 2, 1, False)),
            nodes=((9, NodeKind.PROJECTION), (2, NodeKind.PROJECTION)),
            answer_node=9,
        )
        expected = ptranse_distances(4, [(1, False), (0, True)], self.store)
        assert self.path_distances(dag).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dag", [
        QueryDag(  # one anchor feeding two projections
            anchors=((0, 4),),
            edges=(Edge(0, 1, 0), Edge(0, 2, 1)),
            nodes=((1, NodeKind.PROJECTION), (2, NodeKind.PROJECTION)),
            answer_node=2,
        ),
        evalgen.merge_dag([(0, 0, False), (1, 1, False)], NodeKind.UNION),
        dag_of(evalgen.TYPE_SHAPES["pi"], [0, 3], [1, 2, 0]),
        QueryDag(  # two anchors, projections only
            anchors=((0, 4), (1, 5)),
            edges=(Edge(0, 2, 0), Edge(1, 3, 1)),
            nodes=((2, NodeKind.PROJECTION), (3, NodeKind.PROJECTION)),
            answer_node=3,
        ),
    ], ids=["branching-anchor", "2u", "pi", "two-anchors"])
    def test_non_chains_rejected(self, dag):
        with pytest.raises(ValidationError, match=r"^unsupported query shape for the path scorer \(chains only\)$"):
            self.path_distances(dag)


class TestRanking:
    def test_counting_example(self):
        # distances {a: 1.0, x: 0.5, y: 2.0}, nothing filtered -> rank(a) = 2
        dist = np.array([1.0, 0.5, 2.0])
        ranks = ranks_from_distances(dist, frozenset({0}), frozenset({0}), raw=True)
        assert ranks == {0: 2.0}

    def test_strictly_best_is_rank_one(self):
        dist = np.array([0.1, 0.5, 2.0, 0.3])
        ranks = ranks_from_distances(dist, frozenset({0}), frozenset({0}))
        assert ranks == {0: 1.0}

    def test_everything_filtered_gives_rank_one(self):
        dist = np.array([5.0, 0.5, 0.1])
        ranks = ranks_from_distances(dist, frozenset({0}), frozenset({0, 1, 2}))
        assert ranks == {0: 1.0}

    def test_tie_counts_half(self):
        dist = np.array([1.0, 1.0, 1.0, 2.0])
        ranks = ranks_from_distances(dist, frozenset({0}), frozenset({0}), raw=True)
        assert ranks == {0: 2.0}  # 1 + 0 strictly better + 0.5 * 2 ties

    def test_matches_counting_oracle_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            dist = np.round(rng.uniform(0, 3, n), 1)  # quantized to force ties
            answers_full = frozenset(
                int(i) for i in rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)
            )
            hard = frozenset(
                int(i) for i in rng.choice(sorted(answers_full),
                                           size=int(rng.integers(1, len(answers_full) + 1)),
                                           replace=False)
            )
            for raw in (False, True):
                got = ranks_from_distances(dist, hard, answers_full, raw=raw)
                assert got == naive_ranks(dist, hard, answers_full, raw)

    def test_filtered_never_worse_than_raw(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = 20
            dist = np.round(rng.uniform(0, 2, n), 1)
            answers_full = frozenset(int(i) for i in rng.choice(n, size=5, replace=False))
            hard = frozenset(list(answers_full)[:2])
            filt = ranks_from_distances(dist, hard, answers_full, raw=False)
            raw = ranks_from_distances(dist, hard, answers_full, raw=True)
            for a in hard:
                assert filt[a] <= raw[a]


class TestMetrics:
    def test_hits_hand_cases(self):
        assert hits_at_k([1, 2, 5], 3) == pytest.approx(2 / 3)
        assert [hits_at_k([2, 4], k) for k in (1, 2, 3, 4)] == [0.0, 0.5, 0.5, 1.0]

    def test_mrr_hand_cases(self):
        assert mrr([1]) == 1.0
        assert mrr([2, 4]) == pytest.approx(0.375)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 40, size=60).tolist()
        values = [hits_at_k(ranks, k) for k in range(1, 41)]
        assert values == sorted(values)

    def test_empty_and_bad_k(self):
        with pytest.raises(ValidationError):
            hits_at_k([], 3)
        with pytest.raises(ValidationError):
            mrr([])
        with pytest.raises(ValidationError):
            hits_at_k([1], 0)

    def test_report_shape(self):
        kg = build_grid_kg(width=6, height=5, seed=1)
        store = init_random(6, kg.n_entities, kg.n_relations, seed=0)
        rng = substream(2, STREAM_QUERY_GEN)
        queries = generate_queries(kg, "1p", 6, "test", rng)
        rep = metrics_report(queries, store)
        assert set(rep) == {"scorer", "query_type", "H@1", "H@3", "H@10", "MRR", "n_queries"}
        assert rep["query_type"] == "1p"
        assert rep["n_queries"] == 6
        assert 0.0 < rep["MRR"] <= 1.0

    def test_ptranse_on_intersection_rejected(self):
        kg = build_grid_kg(width=6, height=5, seed=1)
        store = init_random(6, kg.n_entities, kg.n_relations, seed=0)
        rng = substream(2, STREAM_QUERY_GEN)
        (q,) = generate_queries(kg, "2i", 1, "test", rng)
        with pytest.raises(ValidationError, match="unsupported"):
            rank_answers(q, store, scorer="ptranse")

    def test_box_scorer_matches_manual(self):
        kg = build_grid_kg(width=6, height=5, seed=1)
        store = init_random(6, kg.n_entities, kg.n_relations, seed=0)
        rng = substream(2, STREAM_QUERY_GEN)
        (q,) = generate_queries(kg, "2u", 1, "test", rng)
        from srbox import boxalg

        dist = query_distances(q, store)
        boxes = boxalg.execute_query(q.dag, store)
        manual = np.min(
            [boxalg.distance_batch(store.entity_centers, b) for b in boxes], axis=0
        )
        np.testing.assert_allclose(dist, manual, atol=1e-12)


class TestQueryDump:
    def test_round_trip(self, tmp_path):
        kg = build_grid_kg(width=6, height=5, seed=3)
        rng = substream(8, STREAM_QUERY_GEN)
        queries = []
        for qtype in EVAL_QUERY_TYPES:
            queries.extend(generate_queries(kg, qtype, 3, "test", rng))
        path = str(tmp_path / "q.jsonl")
        write_queries(query_blocks(queries), kg, path)
        back = load_queries(path, kg)
        assert back == queries
        for newline in (b"\r\n", b"\r"):
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data.replace(b"\n", newline))
            assert load_queries(path, kg) == queries

    def test_unknown_entity_rejected(self, tmp_path):
        kg = build_grid_kg(width=6, height=5, seed=3)
        rng = substream(8, STREAM_QUERY_GEN)
        (q,) = generate_queries(kg, "1p", 1, "test", rng)
        path = str(tmp_path / "q.jsonl")
        write_queries(query_blocks([q]), kg, path)
        text = open(path).read().replace(kg.entity_ids[q.dag.anchors[0][1]], "c99_99")
        open(path, "w").write(text)
        with pytest.raises((ValidationError, ParseError)):
            load_queries(path, kg)


class TestGridKg:
    def test_census(self):
        kg = build_grid_kg()
        assert kg.n_entities == 200
        assert kg.n_relations == 8
        total = len(kg.train) + len(kg.valid) + len(kg.test)
        assert total == 2143
        assert len(kg.valid) == 107
        assert len(kg.test) == 214
        kg.validate()

    def test_edges_match_displacements(self):
        kg = build_grid_kg(width=7, height=5, seed=2)
        rel_disp = dict(evalgen.GRID_RELATIONS)

        def coords(eid):
            name = kg.entity_ids[eid]
            return int(name[1:3]), int(name[4:6])

        for h, r, t in kg.all_edges():
            hx, hy = coords(h)
            tx, ty = coords(t)
            assert (tx - hx, ty - hy) in rel_disp[kg.relation_ids[r]]

    def test_every_displacement_realized(self):
        kg = build_grid_kg(width=7, height=5, seed=2)
        rel_disp = dict(evalgen.GRID_RELATIONS)

        def coords(eid):
            name = kg.entity_ids[eid]
            return int(name[1:3]), int(name[4:6])

        seen = {name: set() for name, _ in evalgen.GRID_RELATIONS}
        for h, r, t in kg.all_edges():
            hx, hy = coords(h)
            tx, ty = coords(t)
            seen[kg.relation_ids[r]].add((tx - hx, ty - hy))
        for name, disp in rel_disp.items():
            assert seen[name] == set(disp)

    def test_deterministic(self):
        a = build_grid_kg(seed=0)
        b = build_grid_kg(seed=0)
        assert a.train == b.train and a.valid == b.valid and a.test == b.test
        c = build_grid_kg(seed=1)
        assert a.train != c.train

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            build_grid_kg(width=2, height=5)
