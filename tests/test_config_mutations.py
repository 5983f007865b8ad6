"""Mutation property of the configuration: a bad value of any config key
exits 0 or 2, and on 2 its message names the key.

Each example sets one key of ``cli.CONFIG_DEFAULTS`` outside ``[paths]``,
through an INI file, to a value of one bad kind, and runs in process,
through ``cli.main``, a command that reads that key at tiny sizes over a
6x5 grid KG and a 3-document corpus.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srbox import cli, evalgen

# one value of each bad kind: unparsable, empty, nan, inf, negative, zero,
# a fraction, an unknown choice (a choice key reads any other as one) and
# a list of no items
BAD_VALUES = ("x!", "", "nan", "inf", "-3", "0", "0.5", "zz", ",")

# the tiny sizes each command runs at, as INI sections; the key under test
# replaces its own entry
COMMANDS = {
    "mine": ("mine", {"paths": {"corpus": "{corpus}"}, "run": {"seq_len": "8"}}),
    "init-embeddings": ("init-embeddings", {"paths": {"corpus": "{corpus}"}, "run": {"dim": "4"}}),
    "train-text": ("train", {
        "paths": {"corpus": "{corpus}"}, "run": {"mode": "text", "dim": "4", "seq_len": "8"},
        "train": {"steps": "2", "batch_size": "2", "k_negatives": "2"},
    }),
    "train-kg": ("train", {
        "paths": {"kg": "{kg}"}, "run": {"mode": "kg", "dim": "4"},
        "train": {"steps": "2", "batch_size": "2", "k_negatives": "2", "complex_pool": "2"},
    }),
    "gradcheck": ("gradcheck", {
        "gradcheck": {"trials": "2", "dim": "2", "entities": "4", "relations": "2"},
    }),
    "gen-queries": ("gen-queries", {"paths": {"kg": "{kg}"}, "eval": {"count": "3", "types": "1p,2i"}}),
    "eval": ("eval", {
        "paths": {"kg": "{kg}", "checkpoint": "{checkpoint}"},
        "eval": {"count": "3", "types": "1p,2i"},
    }),
}

TRAIN_READERS = ["train-text", "train-kg", "gradcheck", "eval"]
READERS = {
    ("run", "mode"): ["train-text"],
    ("run", "seed"): ["init-embeddings", "train-kg", "gradcheck", "gen-queries"],
    ("run", "out"): ["mine", "gen-queries"],
    ("run", "dim"): ["init-embeddings", "train-kg"],
    ("run", "seq_len"): ["mine", "train-text"],
    **{("train", key): TRAIN_READERS for key in cli.CONFIG_DEFAULTS["train"]},
    ("train", "offset_mode"): [*TRAIN_READERS, "init-embeddings"],
    ("train", "complex_pool"): ["train-kg"],
    **{("eval", key): ["gen-queries", "eval"] for key in ("types", "count", "split")},
    ("eval", "scorer"): ["eval"],
    ("eval", "raw"): ["eval"],
    **{("gradcheck", key): ["gradcheck"] for key in cli.CONFIG_DEFAULTS["gradcheck"]},
}


def _doc(d: int) -> dict:
    names = [f"E{(d + j) % 6}" for j in range(4)]
    return {
        "id": f"d{d}",
        "tokens": [f"w{i}" for i in range(8)],
        "mentions": [{"entity": e, "start": 2 * j, "end": 2 * j} for j, e in enumerate(names)],
        "triplets": [
            {"head": names[0], "relation": "r1", "tail": names[1]},
            {"head": names[1], "relation": "r2", "tail": names[2]},
            {"head": names[3], "relation": "r1", "tail": names[2]},
        ],
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("config-mutations")
    kg = root / "kg"
    evalgen.save_kg(evalgen.build_grid_kg(width=6, height=5, seed=3), str(kg))
    corpus = root / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(_doc(d)) + "\n" for d in range(3)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--mode", "kg", "--kg", str(kg), "--steps", "1",
                         "--dim", "4", "--out", str(root / "ckpt")]) == 0
    return {"kg": str(kg), "corpus": str(corpus), "checkpoint": str(root / "ckpt" / "params.ckpt")}


def run_with(inputs: dict, section: str, key: str, value: str, command: str) -> tuple[int, str]:
    """Exit status and stderr of ``command`` at its tiny sizes with
    [section] key = value. The run's directory is the working directory, so
    a value of [run] out lands inside it."""
    name, base = COMMANDS[command]
    sections = {s: {k: v.format(**inputs) for k, v in kv.items()} for s, kv in base.items()}
    sections.setdefault(section, {})[key] = value
    if (section, key) != ("run", "out"):
        sections.setdefault("run", {})["out"] = "out"
    lines = [f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items()) for s, kv in sections.items()]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "run.ini").write_text("".join(lines))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main([name, "--config", "run.ini"])
        finally:
            os.chdir(cwd)
    return code, err.getvalue()


@st.composite
def mutations(draw):
    section, key = draw(st.sampled_from(sorted(READERS)))
    return section, key, draw(st.sampled_from(BAD_VALUES)), draw(st.sampled_from(READERS[section, key]))


def test_every_key_but_paths_has_readers():
    keys = {(s, k) for s, kv in cli.CONFIG_DEFAULTS.items() if s != "paths" for k in kv}
    assert set(READERS) == keys


@settings(max_examples=200, deadline=None)
@given(mutation=mutations())
def test_a_bad_value_exits_0_or_2_naming_its_key(inputs, mutation):
    """No huge value is drawn: for steps, batch_size, trials and seq_len one
    only makes a valid run longer, and the keys that size a table refuse
    one before allocating (``cli._check_table``, tested in test_cli)."""
    section, key, value, command = mutation
    code, err = run_with(inputs, section, key, value, command)
    assert code in (0, 2), err
    if code == 2:
        assert re.search(rf"\b{key}\b", err), err
