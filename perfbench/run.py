"""srbox benchmark: one workload, run end to end, with checked outputs.

    python3 perfbench/run.py --workload kg-mixed-200 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from its
``src/`` directory. A run makes its inputs from ``--seed``, then repeats
whole rounds of the workload's srbox stages until ``--seconds`` have passed
(at least three rounds), checks every round's outputs, and prints as its last
line one JSON object: ``correct``, ``attempted`` and ``failed`` stages, and
the metrics. ``--trace 0`` reports the end-to-end metrics over all rounds
(see ``workloads.summarize``). ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer medians of the traced ones, plus the
tracing overhead. ``--workload
all`` runs every workload in a fresh process of its own.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy is first imported: the load is one caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "examples/s",
    "gen_queries_per_s": "queries/s",
    "eval_queries_per_s": "queries/s",
    "peak_rss_mb": "MB",
    "wall_s": "s",
}

# traced name -> the statistics reported for it
PER_LAYER = {
    "boxalg.execute_with_trace": ("s", "calls"),
    "boxalg.intersect_with_cache": ("s", "calls"),
    "boxalg.intersect_backward": ("s", "calls"),
    "boxalg.backward_through_dag": ("s",),
    "boxalg.distance_backward": ("s", "calls"),
    "train.adam_step": ("s", "rows"),
    "boxalg.distance_batch": ("s", "calls", "rows"),
    "evalgen.query_distances": ("s",),
    "evalgen.ranks_from_distances": ("s", "ranked"),
    "train.sample_negatives": ("s", "calls", "with_replacement"),
    "train.train": ("self_s",),
    "evalgen.EdgeIndex": ("s", "calls"),
    "evalgen.generate_queries": ("s",),
    "corpus.load_corpus": ("s",),
    "corpus.chunk_sequences": ("s",),
    "structures.mine_structures": ("s", "calls"),
    "structures.sample_pair_from_structures": ("s",),
    "params.load_vectors": ("s",),
    "params.import_contextual": ("s",),
    "params.save": ("s",),
    "params.load": ("s",),
}
MIN_ROUNDS = 3


def layer_metrics(stats) -> dict[str, tuple[float, str]]:
    out = {}
    for name, fields in PER_LAYER.items():
        st = stats[name]
        for f in fields:
            if f in ("s", "self_s"):
                out[f"{name}.{f}"] = (getattr(st, f), "s")
            elif f == "calls":
                out[f"{name}.calls"] = (st.calls, "count")
            elif name == "train.adam_step":  # rows touched per step
                out[f"{name}.rows"] = (st.counts["rows"] / max(1, st.calls), "rows/step")
            else:
                out[f"{name}.{f}"] = (st.counts[f], "count")
    return out


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads
    from tracer import Tracer

    spec = workloads.SPECS[name]
    work = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inp = workloads.make_inputs(spec, work / "inputs", seed)
        n_stages = len(workloads.stage_names(spec))
        attempted = failed = 0
        problems: list[str] = []
        plain, traced = [], []
        digest = None
        need = 1 if trace else MIN_ROUNDS  # a traced run's unit is an untraced-traced pair
        units = 0
        start = time.perf_counter()
        while units < need or time.perf_counter() - start < seconds:
            units += 1
            for tracer in (None, Tracer()) if trace else (None,):
                # each round starts from the same heap: the last round's garbage
                # collected, and what lives on frozen out of the collector's scans
                gc.collect()
                gc.freeze()
                rd = work / f"round{attempted // n_stages}"
                attempted += n_stages
                try:
                    r = workloads.run_round(spec, inp, rd, seed, tracer)
                except workloads.StageFailed as exc:
                    failed += n_stages - workloads.stage_names(spec).index(str(exc))
                    log(f"{name}: stage {exc} failed")
                    continue
                # a fixed seed must reproduce the outputs byte for byte, so the
                # first round's outputs are checked in full and the rest by digest
                notes = []
                if digest is None:
                    found, notes = workloads.check_round(spec, inp, r, seed)
                    problems += found
                    digest = workloads.output_digest(r)
                elif workloads.output_digest(r) != digest:
                    problems.append("a repeated round with the same seed changed its outputs")
                m = r.sizes()
                log(f"{name} seed {seed} {'traced' if tracer else 'plain'} round: "
                    + " ".join(f"{k}={v:.4g}" for k, v in workloads.summarize([m]).items())
                    + " stages " + " ".join(f"{k}={v:.3f}s" for k, v in r.stage_s.items())
                    + "".join(f"; {n}" for n in notes))
                (traced if tracer else plain).append((m, tracer))
                shutil.rmtree(rd)
                del r
        for p in dict.fromkeys(problems):
            log(f"{name}: CHECK FAILED: {p}")
        if not plain or (trace and not traced):
            raise RuntimeError(f"{name}: no round completed")
        summary = lambda rounds: workloads.summarize([m for m, _ in rounds])
        if trace:
            stats = [layer_metrics(t.stats) for _, t in traced]
            metrics = {k: (statistics.median(s[k][0] for s in stats), unit)
                       for k, (_, unit) in stats[0].items()}
            overhead = summary(traced)["wall_s"] - summary(plain)["wall_s"]
            metrics["trace.overhead_s"] = (overhead, "s")
        else:
            metrics = {k: (v, END_TO_END[k]) for k, v in summary(plain).items()}
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            metrics = {k: metrics[k] for k in END_TO_END}
        return {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}", flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


WORKLOADS = ("kg-mixed-200", "kg-1p-5000", "text-ctx")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "srbox" / "__init__.py").is_file():
        log(f"error: no srbox sources under {ROOT / 'src'}; run from a source checkout")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
