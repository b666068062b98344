#!/usr/bin/env python3
"""rulenet benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload narrow-train --seed 1 --seconds 58 --trace 0

Run from the repository root; the library is imported from ./src. The last
line of standard output is a JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end metrics
named in BENCHMARK.json; with --trace 1 the session runs again with every
layer call wrapped in a span, its outputs must match the untraced pass
bitwise, and the metrics are the per-layer ones. The exit code is 0 only
when every output check passed. bench/GLOSSARY.md defines each metric.

Inputs, checkpoints and spans go to .bench_work/ (removed at the end) and
.bench_out/ (kept: one result file and, when traced, one spans file).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the rounds run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(w, seed: int, threads, files: dict) -> dict:
    import numpy as np
    import scipy
    import specs

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def shape(path):
        with open(path, encoding="utf-8") as fh:
            cols = len(fh.readline().split(","))
            return [sum(1 for _ in fh), cols]

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "study_workers": specs.STUDY_WORKERS,
        "nproc": specs.nproc(),
        "machine": platform.machine(),
        "workload": w.name,
        "seed": seed,
        "inputs": {k: shape(files[k]) for k in ("train", "score", "study")},
    }


# rates of calls that last from a fraction of a second to seconds
TOTALS = ("train_rows_per_s", "hpo_trial_epochs_per_s", "ensemble_rows_per_s")


def summary(name: str, samples: list, better: str) -> float:
    """One value per end-to-end metric from its samples.

    - setup_s is their median.
    - The rates in TOTALS are work over time for the whole run, the
      harmonic mean of samples that each do the same work.
    - Every other metric, a short call, is its best sample: the highest
      rate or the lowest time, as timeit reports.

    The host this was tuned on, a VM on a shared machine, switches between
    a fast and a slow speed, about 1.4x apart, every fraction of a second,
    and for some stretches stays slow for tens of seconds. A short call
    runs at one speed or the other, so its samples have two modes and their
    median jumps between them from run to run; their best is the fast
    speed. A long call mixes the two, and the best of few such mixtures
    depends on luck; the total over the run varies least.
    """
    if name == "setup_s":
        return statistics.median(samples)
    if name in TOTALS:
        return statistics.harmonic_mean(samples)
    return max(samples) if better == "higher" else min(samples)


def run(w, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run; returns the result plus its environment and problems."""
    import layers
    import spans
    import specs
    import workloads as W
    import rulenet as rn

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work_root = out_dir.parent / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=work_root))
    try:
        files = W.write_inputs(w, seed, work)
        ledger = W.Ledger()
        # a traced run gives a third of its time to the untraced pass, the
        # rest to the traced one, which runs slower and needs steps for a tail
        plain = W.run_session(w, files, W.Budget(seconds / 3 if trace else seconds), ledger)
        better = {m["name"]: m["better"] for m in declared["end_to_end"]}
        end_to_end = {name: summary(name, v, better[name]) for name, v in plain.samples.items()}
        end_to_end["peak_rss_mb"] = plain.peak_rss_mb
        values, section = end_to_end, "end_to_end"
        if trace:
            tracer = spans.Tracer()
            with tracer:
                traced = W.run_session(w, files, W.Budget(seconds - seconds / 3), ledger,
                                       span=tracer.span, warm=True)
            ledger.check(not spans.leftover_wrappers(), "wrapped functions left in place")
            for key, a in plain.outputs.items():
                ledger.check(W.same(a, traced.outputs.get(key)), f"traced output {key} differs")
            flops = rn.estimate_flops(plain.config)
            values = layers.per_layer(
                tracer.spans, traced, specs.STUDY_WORKERS, files["checkpoint"].stat().st_size,
                flops.decoder_flops / flops.encoder_flops,
                statistics.fmean(traced.round_seconds) / statistics.fmean(plain.round_seconds[1:]) - 1.0,
            )
            section = "per_layer"
            write_spans(out_dir / f"spans-{w.name}-seed{seed}.json", w.name, seed, tracer.spans)
        end_to_end["error_rate"] = ledger.failed / max(ledger.attempted, 1)
        env = environment(w, seed, os.environ.get("OPENBLAS_NUM_THREADS", "unset"), files)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for m in declared[section]:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    report = {
        "result": result,
        "problems": ledger.problems,
        "rounds": plain.rounds,
        "samples": plain.samples,
        "environment": env,
        "end_to_end": end_to_end,
    }
    (out_dir / f"result-{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8"
    )
    return report


def write_spans(path: Path, workload: str, seed: int, spans) -> None:
    """All spans of the traced session, one JSON array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "fields": ["id", "parent", "name", "start", "end", "tag", "thread"]}))
        fh.write("\n")
        for s in spans:
            tag = s.tag if isinstance(s.tag, (int, float, str)) or s.tag is None else str(s.tag)
            fh.write(json.dumps([s.id, s.parent, s.name, s.start, s.end, tag, s.thread]) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rulenet" / "__init__.py").is_file():
        print(f"bench: no rulenet sources under {SRC}", file=sys.stderr)
        return 2
    import specs

    spec = specs.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(specs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    threads = str(max(1, specs.nproc() // specs.STUDY_WORKERS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # before numpy is first imported
    sys.path.insert(0, str(SRC))

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    from rulenet.errors import RuleNetError

    try:
        report = run(spec, args.seed, args.seconds, bool(args.trace), out_dir)
    except RuleNetError as e:
        print(f"bench: {spec.name} failed: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report["environment"]))
    for name, value in report["end_to_end"].items():
        print(f"{name:>24} {value:.6g}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
