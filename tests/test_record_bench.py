"""The verdicts of ``tools/record_bench.py``'s ``summarize``, on hand-made
pairs, its run order, and its quality comparison, on hand-made files: no
benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", TOOL)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)

RATE = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}
TIME = {"name": "time", "unit": "s", "better": "lower", "bound": 0.25}


def _pairs(parent, change, name="rate", correct=True, failed=0):
    return [{"parent": {"correct": True, "failed": 0, "metrics": {name: p}},
             "change": {"correct": correct, "failed": failed, "metrics": {name: c}}}
            for p, c in zip(parent, change)]


def _summary(parent, change, metric=RATE, **change_runs):
    pairs = _pairs(parent, change, metric["name"], **change_runs)
    return record_bench.summarize(pairs, [metric])[metric["name"]]


PARENT = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]


def test_gain_needs_nine_wins_in_ten_and_medians_apart_by_more_than_the_iqr():
    summary = _summary(PARENT, [130, 128, 131, 129, 127, 132, 130, 128, 126, 131])
    assert summary["verdict"] == "gain" and summary["change_wins"] == 10
    assert summary["bound"] == 0.25 and summary["pairs"] == 10
    # the same medians, but one more lost pair: 8 wins of 10
    nearly = [130, 128, 131, 129, 127, 132, 130, 128, 90, 90]
    assert _summary(PARENT, nearly)["verdict"] == "within_bound"


@pytest.mark.parametrize("change_runs", [{"correct": False}, {"failed": 1}])
def test_a_wrong_or_failing_change_shows_no_gain(change_runs):
    faster = [130, 128, 131, 129, 127, 132, 130, 128, 126, 131]
    summary = _summary(PARENT, faster, **change_runs)
    assert summary["change_wins"] == 10 and summary["verdict"] == "within_bound"


def test_nine_wins_with_medians_inside_the_parent_iqr_is_no_gain():
    summary = _summary(PARENT, [p + 0.5 for p in PARENT[:9]] + [90])
    assert summary["change_wins"] == 9
    assert summary["verdict"] == "within_bound"


def test_lower_is_better_gain():
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert _summary(parent, [0.8] * 9 + [1.1], TIME)["verdict"] == "gain"
    assert _summary(parent, [1.2] * 10, TIME)["verdict"] == "within_bound"


@pytest.mark.parametrize("metric, change", [(RATE, 74), (TIME, 126)])
def test_worse_beyond_bound(metric, change):
    parent = [100] * 10
    assert _summary(parent, [change] * 10, metric)["verdict"] == "worse_beyond_bound"
    near = 76 if metric is RATE else 124
    assert _summary(parent, [near] * 10, metric)["verdict"] == "within_bound"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]  # IQR 40 of median 100
    assert _summary(wide, [100] * 10)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert _summary(wide, [150] * 10)["verdict"] != "unresolved"


def test_worse_beyond_bound_outranks_unresolved():
    wide = [60, 140, 70, 130, 80, 120, 90, 110, 100, 100]
    assert _summary(wide, [50] * 10)["verdict"] == "worse_beyond_bound"


def test_each_pair_runs_every_workload_in_turn_and_the_first_arm_alternates():
    forward, backward = ("parent", "change"), ("change", "parent")
    assert record_bench.run_order(["a", "b", "c"], 3) == [
        (0, "a", forward), (0, "b", forward), (0, "c", forward),
        (1, "a", backward), (1, "b", backward), (1, "c", backward),
        (2, "a", forward), (2, "b", forward), (2, "c", forward),
    ]


def _quality(path, **measures):
    """A hand-made ``BENCH_quality`` file of (mean, stderr) per measure."""
    record = {"measures": {name: {"mean": m, "stderr": se} for name, (m, se) in measures.items()}}
    path.write_text(json.dumps(record))
    return json.loads(path.read_text())


def test_quality_falls_when_a_mean_drops_more_than_two_baseline_standard_errors(tmp_path):
    baseline = _quality(tmp_path / "base.json", h3=(0.95, 0.01), mrr=(0.80, 0.02))
    held = _quality(tmp_path / "held.json", h3=(0.9301, 0.05), mrr=(0.99, 0.0))
    assert record_bench.quality_falls(baseline, held) == []
    fell = _quality(tmp_path / "fell.json", h3=(0.9299, 0.0), mrr=(0.75, 0.0))
    falls = record_bench.quality_falls(baseline, fell)
    assert [line.split(":")[0] for line in falls] == ["h3", "mrr"]
    assert falls[0] == "h3: mean 0.9299 is below the baseline's 0.9500 - 2 x 0.0100"
