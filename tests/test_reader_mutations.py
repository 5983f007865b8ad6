"""Mutation properties of the file readers: a corrupted input raises only
``ParseError``, whose message starts with the file's path, or
``ValidationError``, never another exception.

Each property starts from a small valid file, optionally edits the JSON
structure of its records (a value replaced, a key or item deleted, one
added), serializes it, then flips, inserts or cuts bytes. The checkpoint
reader has the same property in ``tests/test_params.py``.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from srbox import evalgen
from srbox.corpus import chunk_sequences, load_corpus
from srbox.errors import ParseError, ValidationError
from srbox.params import ContextualVectors, load_vectors, write_vectors
from srbox.rng import STREAM_QUERY_GEN, substream

# values that a JSON edit puts in place of a field, an item or a record
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([2**31, 2**63, 2**70, -2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.one_of(st.integers(-1, 9), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["id", "rows", "dim", "start", "entity", "x"]),
                    st.integers(-1, 9), max_size=2),
)
# (record, node, action, value): one edit of one record's JSON tree
JSON_EDITS = st.lists(st.tuples(
    st.integers(0, 2**16), st.integers(0, 2**16),
    st.sampled_from(["replace", "delete", "add"]), JSON_VALUES,
), max_size=3)
# (action, where, bytes): one edit of the serialized file
BYTE_EDITS = st.lists(st.tuples(
    st.sampled_from(["overwrite", "insert", "truncate"]),
    st.integers(0, 2**20),
    st.binary(min_size=1, max_size=8),
), max_size=3)


def _nodes(value, path=()):
    """The path of every node of a JSON tree, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _edit_json(records: list, edits: list) -> list:
    """``records`` with each (record, node, action, value) edit applied: the
    node at that place in the record's tree replaced by ``value`` (the root
    included) or deleted, or ``value`` added to it under a new key or as a
    last item."""
    records = json.loads(json.dumps(records))  # a deep copy
    for which, node, action, value in edits:
        i = which % len(records)
        paths = list(_nodes(records[i]))
        path = (i, *paths[node % len(paths)])
        parent = records
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if action == "replace":
            parent[key] = value
        elif action == "delete" and len(path) > 1:
            del parent[key]
        elif action == "add":
            target = parent[key]
            if isinstance(target, dict):
                target[f"extra{len(target)}"] = value
            elif isinstance(target, list):
                target.append(value)
    return records


def _edit_bytes(data: bytes, edits: list) -> bytes:
    for action, where, junk in sorted(edits, key=lambda e: e[0] == "truncate"):  # cuts last
        at = where % (len(data) + 1)
        if action == "truncate":
            data = data[:at]
        elif action == "insert":
            data = data[:at] + junk + data[at:]
        else:
            data = data[:at] + junk + data[at + len(junk):]
    return data


def _jsonl(records: list) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")


def _raises_only_named_errors(read, *paths) -> None:
    """Run ``read()``; a ``ParseError`` must name one of ``paths`` first and
    a ``ValidationError`` may say anything; any other exception fails."""
    try:
        read()
    except ParseError as exc:
        assert any(str(exc).startswith(f"{path}:") for path in paths), str(exc)
    except ValidationError:
        pass


KG = evalgen.build_grid_kg(width=5, height=4, seed=0)


def _query_blocks() -> list:
    rng = substream(0, STREAM_QUERY_GEN)
    return [evalgen.generate_block(KG, qtype, 2, "test", rng) for qtype in ("1p", "2i", "pi", "2u")]


class TestQueryFileMutations:
    @settings(max_examples=200, deadline=None)
    @given(json_edits=JSON_EDITS, byte_edits=BYTE_EDITS)
    def test_read_raises_only_parse_or_validation_errors(self, tmp_path_factory, json_edits,
                                                         byte_edits):
        path = str(tmp_path_factory.getbasetemp() / "mutated_queries.jsonl")
        evalgen.write_queries(_query_blocks(), KG, path)
        with open(path, "rb") as fh:
            records = [json.loads(line) for line in fh]
        with open(path, "wb") as fh:
            fh.write(_edit_bytes(_jsonl(_edit_json(records, json_edits)), byte_edits))
        _raises_only_named_errors(lambda: evalgen.read_query_blocks(path, KG), path)


CORPUS = [
    {"id": f"d{d}", "tokens": [f"w{i}" for i in range(8)],
     "mentions": [{"entity": f"E{(d + i) % 5}", "start": 2 * i, "end": 2 * i + 1} for i in range(4)],
     "triplets": [{"head": f"E{d % 5}", "relation": f"r{d % 2}", "tail": f"E{(d + 1) % 5}"},
                  {"head": f"E{(d + 1) % 5}", "relation": "r2", "tail": f"E{(d + 2) % 5}"}]}
    for d in range(3)
]


class TestCorpusMutations:
    @settings(max_examples=200, deadline=None)
    @given(json_edits=JSON_EDITS, byte_edits=BYTE_EDITS)
    def test_load_and_chunk_raise_only_parse_or_validation_errors(self, tmp_path_factory,
                                                                  json_edits, byte_edits):
        path = str(tmp_path_factory.getbasetemp() / "mutated_corpus.jsonl")
        with open(path, "wb") as fh:
            fh.write(_edit_bytes(_jsonl(_edit_json(CORPUS, json_edits)), byte_edits))
        _raises_only_named_errors(lambda: chunk_sequences(load_corpus(path), 6), path)


# (split, line, field, replacement): one edit of the TSV fields
TSV_EDITS = st.lists(st.tuples(
    st.sampled_from(evalgen.SPLITS), st.integers(0, 2**16), st.integers(0, 3),
    st.one_of(st.none(), st.text(max_size=4), st.sampled_from(["\t", "", "e\tx", "c00_00"])),
), max_size=3)


class TestKgMutations:
    @settings(max_examples=200, deadline=None)
    @given(tsv_edits=TSV_EDITS, byte_edits=BYTE_EDITS, edited=st.sampled_from(evalgen.SPLITS))
    def test_load_raises_only_parse_or_validation_errors(self, tmp_path_factory, tsv_edits,
                                                         byte_edits, edited):
        """A TSV edit replaces a line's field (a fourth field if the index
        is 3) or, with None, drops it; the byte edits go to one file."""
        root = tmp_path_factory.getbasetemp() / "mutated_kg"
        paths = evalgen.save_kg(KG, str(root))
        lines = {s: Path(paths[s]).read_text(encoding="utf-8").splitlines() for s in evalgen.SPLITS}
        for split, line, col, value in tsv_edits:
            if not lines[split]:
                continue
            i = line % len(lines[split])
            fields = lines[split][i].split("\t")
            if value is None:
                del fields[min(col, len(fields) - 1)]
            elif col < len(fields):
                fields[col] = value
            else:
                fields.append(value)
            lines[split][i] = "\t".join(fields)
        for split in evalgen.SPLITS:
            data = "".join(line + "\n" for line in lines[split]).encode("utf-8")
            with open(paths[split], "wb") as fh:
                fh.write(_edit_bytes(data, byte_edits) if split == edited else data)
        splits = [paths[s] for s in evalgen.SPLITS]
        _raises_only_named_errors(lambda: evalgen.load_kg(*splits), *splits)


VECTORS = ContextualVectors(
    3,
    {f"d{d}": np.arange(4 * 3, dtype=np.float64).reshape(4, 3) + d for d in range(3)},
    {"d0": {"r0": (0, 1)}, "d2": {"r1": (2, 3), "r2": (1, 1)}},
)


def _vector_headers() -> list:
    headers = []
    for doc_id, mat in VECTORS.matrices.items():
        header = {"id": doc_id, "rows": mat.shape[0], "dim": mat.shape[1]}
        if doc_id in VECTORS.relation_spans:
            header["relation_spans"] = {r: list(se) for r, se in VECTORS.relation_spans[doc_id].items()}
        headers.append(header)
    return headers


def _vectors_file(headers: list) -> bytes:
    """The ``write_vectors`` layout: each header line, then its document's rows."""
    mats = list(VECTORS.matrices.values())
    return b"".join(json.dumps(h).encode("utf-8") + b"\n" + m.astype("<f8").tobytes()
                    for h, m in zip(headers, mats))


class TestVectorsMutations:
    def test_the_unedited_layout_is_write_vectors(self, tmp_path):
        path = tmp_path / "v.bin"
        write_vectors(str(path), VECTORS)
        assert path.read_bytes() == _vectors_file(_vector_headers())

    @settings(max_examples=200, deadline=None)
    @given(json_edits=JSON_EDITS, byte_edits=BYTE_EDITS)
    def test_load_raises_only_parse_or_validation_errors(self, tmp_path_factory, json_edits,
                                                         byte_edits):
        path = str(tmp_path_factory.getbasetemp() / "mutated_vectors.bin")
        data = _vectors_file(_edit_json(_vector_headers(), json_edits))
        with open(path, "wb") as fh:
            fh.write(_edit_bytes(data, byte_edits))
        _raises_only_named_errors(lambda: load_vectors(path), path)
