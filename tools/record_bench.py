"""Record an A/B series of the benchmark: a parent revision against this checkout.

    python3 tools/record_bench.py --label mychange --parent HEAD --pairs 5 --seconds 10

Runs ``perfbench/run.py`` unchanged, as a subprocess, once per arm, seed
and workload of ``BENCHMARK.json``. Both arms run from temporary ``git
worktree`` trees side by side in one temporary directory, removed
afterwards: the parent arm from ``--parent``, the change arm from a commit
of this checkout as it stands (uncommitted and untracked files included,
ignored ones left out), made on no branch. Pair i runs seed i of every
workload in turn, both arms each, and the arm that goes first alternates
from pair to pair (see ``run_order``), so a drift in the machine's speed
favours neither arm and spreads over every workload. Each run's last
standard-output line is its result.

Writes ``BENCH_<label>.json`` at the root of the checkout: the command, the
seeds, the workload sizes (read from ``perfbench/workloads.SPECS``), the
core count, the numpy and Python versions, both revisions, every run's
result, and for each end-to-end metric of ``BENCHMARK.json`` the median and
quartiles of each arm, the number of pairs the change won and a verdict
(``gain``, ``within_bound``, ``worse_beyond_bound`` or ``unresolved``; see
``_verdict``).

    python3 tools/record_bench.py --label mychange --quality 5 [--baseline FILE]

With ``--quality K`` it records learning quality instead, in this process,
for seeds 0 .. K-1: criterion 4 of ``tests/test_acceptance.py`` with its
store and training drawn from the seed (filtered H@3 and MRR on its fixed
200 1p and 200 2i test queries), and the mean MRR over the query types of
one text-ctx round of ``perfbench/workloads.py`` at the seed. It writes
``BENCH_quality_<label>.json``: each measure's value per seed, mean and
standard error, with the core count, the numpy and Python versions and the
revision. With ``--baseline FILE`` it exits 1 when a measure's mean falls
more than two of the baseline's standard errors below the baseline's mean
(see ``quality_falls``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN = Path("perfbench") / "run.py"


def _git(*args: str, cwd: Path = ROOT, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=cwd, env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _revision(tree: Path) -> dict:
    """The commit a tree holds, and whether it differs from that commit."""
    return {"commit": _git("rev-parse", "HEAD", cwd=tree),
            "uncommitted": bool(_git("status", "--porcelain", cwd=tree))}


def _snapshot(index: Path) -> str:
    """A commit of this checkout as it stands, on top of HEAD and on no
    branch, built in the fresh index file ``index``."""
    env = {**os.environ, "GIT_INDEX_FILE": str(index)}
    _git("add", "--all", env=env)
    tree = _git("write-tree", env=env)
    return _git("commit-tree", tree, "-p", "HEAD", "-m", "record_bench change arm", env=env)


def _workloads():
    """``perfbench/workloads.py``, imported read-only, with this checkout's
    ``src`` ahead of any installed srbox."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def _sizes() -> dict:
    return {name: dataclasses.asdict(spec) for name, spec in _workloads().SPECS.items()}


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def run_order(names: list[str], pairs: int) -> list[tuple[int, str, tuple[str, str]]]:
    """(pair, workload, arms in the order they run) for every run of a
    series, in series order: pair i runs each workload in turn, the parent
    arm first when i is even and the change arm first when it is odd."""
    arms = [("parent", "change"), ("change", "parent")]
    return [(i, name, arms[i % 2]) for i in range(pairs) for name in names]


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _verdict(summary: dict, parent: list[float], change: list[float], sound: bool) -> str:
    """How the change's runs of one metric compare with the parent's.

    ``gain``: the change's runs are ``sound`` (see ``summarize``), the change
    is better in at least nine tenths of the pairs, and its median lies
    further from the parent's than the parent's quartiles lie apart.
    ``worse_beyond_bound``: the change's median is worse than the
    parent's by more than the metric's bound, a fraction of the parent's
    median. ``unresolved``: the parent's own quartile range, as a fraction
    of its median, is wider than the bound, and not every change run beats
    every parent run. ``within_bound`` otherwise.
    """
    higher = summary["better"] == "higher"

    def better(a: float, b: float) -> bool:
        return a > b if higher else a < b

    p, c = summary["parent"]["median"], summary["change"]["median"]
    spread = summary["parent"]["q3"] - summary["parent"]["q1"]
    wins = 10 * summary["change_wins"] >= 9 * summary["pairs"]
    if sound and wins and better(c, p) and abs(c - p) > spread:
        return "gain"
    if (p - c if higher else c - p) / p > summary["bound"]:
        return "worse_beyond_bound"
    if spread / p > summary["bound"] and not all(better(x, y) for x in change for y in parent):
        return "unresolved"
    return "within_bound"


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric of ``BENCHMARK.json``'s ``end_to_end`` list: each arm's
    median and quartiles, the pairs the change won (strictly better in the
    metric's direction) and the verdict of ``_verdict``. A change whose runs
    are not all ``correct``, or that fail more operations in total than the
    parent's runs, shows no gain."""
    sound = (all(p["change"]["correct"] for p in pairs)
             and sum(p["change"]["failed"] for p in pairs) <= sum(p["parent"]["failed"] for p in pairs))
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     "parent": _quartiles(parent), "change": _quartiles(change),
                     "change_wins": wins, "pairs": len(pairs)}
        out[name]["verdict"] = _verdict(out[name], parent, change, sound)
    return out


def _kg_quality(seed: int) -> dict[str, float]:
    """Criterion 4 of ``tests/test_acceptance.py`` with its store and its
    training drawn from ``seed``: filtered H@3 and MRR on the criterion's
    own 200 1p and 200 2i test queries, which stay fixed."""
    _workloads()  # puts this checkout's src first on sys.path
    from srbox import evalgen, params, train
    from srbox.rng import STREAM_QUERY_GEN, substream

    kg = evalgen.build_grid_kg(seed=0)
    store = params.init_random(32, kg.n_entities, kg.n_relations, seed=seed)
    cfg = train.TrainConfig(steps=5000, seed=seed)
    store, _ = train.train(train.KgSource(kg.train, [], kg.n_entities), store, cfg)
    out = {}
    for qtype in ("1p", "2i"):
        queries = evalgen.generate_queries(kg, qtype, 200, "test", substream(123, STREAM_QUERY_GEN))
        report = evalgen.metrics_report(queries, store, "box", cfg.alpha, cfg.norm)
        out[f"kg {qtype} H@3"], out[f"kg {qtype} MRR"] = report["H@3"], report["MRR"]
    return out


def _text_quality(seed: int, work: Path) -> dict[str, float]:
    """The mean MRR over the query types of one text-ctx round at ``seed``."""
    workloads = _workloads()
    spec = workloads.SPECS["text-ctx"]
    inputs = workloads.make_inputs(spec, work / "inputs", seed)
    workloads.run_round(spec, inputs, work / "round", seed, None)
    lines = (work / "round" / "eval" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    return {"text MRR": statistics.fmean(json.loads(line)["MRR"] for line in lines)}


def quality_falls(baseline: dict, record: dict) -> list[str]:
    """One line for each measure of ``baseline`` whose mean in ``record`` is
    more than two of the baseline's standard errors below the baseline's
    mean; both are ``BENCH_quality_<label>.json`` records."""
    falls = []
    for name, base in baseline["measures"].items():
        mean = record["measures"][name]["mean"]
        if mean < base["mean"] - 2 * base["stderr"]:
            falls.append(f"{name}: mean {mean:.4f} is below the baseline's "
                         f"{base['mean']:.4f} - 2 x {base['stderr']:.4f}")
    return falls


def record_quality(label: str, seeds: list[int], baseline: Path | None) -> int:
    values: dict[str, list[float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            measures = {**_kg_quality(seed), **_text_quality(seed, Path(tmp) / f"text-{seed}")}
            for name, value in measures.items():
                values.setdefault(name, []).append(value)
            print(f"quality seed {seed}: done", file=sys.stderr, flush=True)
    record = {
        "command": ["python3", "tools/record_bench.py", "--label", label,
                    "--quality", str(len(seeds))],
        "seeds": seeds,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "revision": _revision(ROOT),
        "measures": {
            name: {"values": v, "mean": statistics.fmean(v),
                   "stderr": statistics.stdev(v) / math.sqrt(len(v))}
            for name, v in values.items()
        },
    }
    path = ROOT / f"BENCH_quality_{label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    if baseline is None:
        return 0
    falls = quality_falls(json.loads(baseline.read_text(encoding="utf-8")), record)
    for line in falls:
        print(f"quality fell: {line}", file=sys.stderr)
    return 1 if falls else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent arm")
    parser.add_argument("--pairs", type=int, default=5, help="parent/change pairs per workload")
    parser.add_argument("--seconds", type=int, default=10, help="--seconds of each run")
    parser.add_argument("--quality", type=int, metavar="K",
                        help="record learning quality over seeds 0 .. K-1 instead")
    parser.add_argument("--baseline", type=Path,
                        help="a quality record whose means this one must hold (with --quality)")
    args = parser.parse_args()
    if args.quality is not None:
        if args.quality < 2:
            parser.error("--quality must be at least 2, to give standard errors")
        return record_quality(args.label, list(range(args.quality)), args.baseline)
    if args.baseline is not None:
        parser.error("--baseline needs --quality")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.pairs))
    record = {
        "command": ["python3", str(RUN), "--workload", "<workload>", "--seed", "<seed>",
                    "--seconds", str(args.seconds), "--trace", "0"],
        "parent_revision": args.parent,
        "pairs_per_workload": args.pairs,
        "seeds": seeds,
        "sizes": _sizes(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "change": _revision(ROOT),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        added = []
        try:
            for tree, revision in ((parent, args.parent), (change, _snapshot(Path(tmp) / "index"))):
                _git("worktree", "add", "--detach", str(tree), revision)
                added.append(tree)
            record["parent"] = _revision(parent)
            trees = {"parent": parent, "change": change}
            runs = {name: [] for name in names}
            for i, name, arms in run_order(names, args.pairs):
                pair = {"seed": seeds[i], "first": arms[0]}
                for arm in arms:
                    pair[arm] = _run(trees[arm], name, seeds[i], args.seconds)
                runs[name].append(pair)
                print(f"{name} seed {seeds[i]}: done", file=sys.stderr, flush=True)
            for name, pairs in runs.items():
                record["workloads"][name] = {
                    "summary": summarize(pairs, bench["end_to_end"]), "pairs": pairs,
                }
        finally:
            for tree in added:
                _git("worktree", "remove", "--force", str(tree))
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
