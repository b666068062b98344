"""Tests of the benchmark itself: inputs, span arithmetic, tracing, tiny runs.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import rulenet  # noqa: E402
import run  # noqa: E402
import spans as S  # noqa: E402
import workloads as W  # noqa: E402
from layers import tail  # noqa: E402
from specs import WORKLOADS  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_MODEL = {"n_rules": 4, "embed_dim": 8, "hidden_dim": 16, "encoder_layers": 1,
              "decoder_layers": 1, "n_heads": 2, "batch_size": 16}


def tiny(name: str):
    w = WORKLOADS[name]
    return replace(w, n_num=min(w.n_num, 6), n_cat=min(w.n_cat, 2), rows=90, score_rows=8,
                   config=TINY_MODEL)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    w = WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    files = [W.write_inputs(w, seed, d) for seed, d in zip((7, 7, 8), dirs)]
    for key in ("train", "score", "study"):
        first, again, other = (f[key].read_bytes() for f in files)
        assert first == again
        assert first != other


def test_score_file_has_missing_cells_and_unseen_levels(tmp_path):
    files = W.write_inputs(WORKLOADS["wide-serve"], 3, tmp_path)
    table = rulenet.read_table(files["score"])
    cells = [c for name in table.order if name.startswith("x") for c in table.column(name)]
    levels = [c for name in table.order if name.startswith("c") for c in table.column(name)]
    assert 0 < sum(c is None for c in cells) < len(cells) // 5
    assert "new" in levels


def test_self_time_subtracts_the_union_of_children():
    spans = [
        S.Span(0, None, "a", 0.0, 10.0),
        S.Span(1, 0, "b", 1.0, 4.0),
        S.Span(2, 0, "c", 3.0, 6.0),  # overlaps b, as spans of two worker threads do
        S.Span(3, 1, "d", 2.0, 3.0),
        S.Span(4, 0, "e", 9.0, 12.0),  # runs past its parent's end
    ]
    own = S.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)


def test_covered_merges_touching_and_nested_intervals():
    assert S.covered([(0, 1), (1, 2), (0.5, 0.7)], 0, 10) == pytest.approx(2.0)
    assert S.covered([], 0, 10) == 0.0
    assert S.covered([(-5, 20)], 0, 10) == pytest.approx(10.0)


def test_tail_leaves_ten_samples_beyond_it():
    assert tail(list(range(20, 0, -1))) == (50.0, 10)
    assert tail(list(range(10))) == (0.0, 0.0)


def test_tracer_wraps_every_binding_and_restores_it():
    from rulenet import tensor, training

    originals = (tensor.matmul, training.make_batches, training.Trainer.run_until)
    with S.Tracer() as tracer:
        assert tensor.matmul.bench_span == "tensor.matmul"
        assert training.make_batches.bench_span == "data.make_batches"
        assert training.Trainer.run_until.bench_span == "training.Trainer.run_until"
        assert rulenet.prepare.bench_span == "data.prepare"
        a = rulenet.Tensor([[1.0, 2.0]])
        tensor.matmul(a, tensor.transpose(a, (1, 0)))
    assert (tensor.matmul, training.make_batches, training.Trainer.run_until) == originals
    assert S.leftover_wrappers() == []
    assert [s.name for s in tracer.spans] == ["tensor.transpose", "tensor.matmul"]
    assert all(s.parent is None for s in tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_checks_out(tmp_path, name):
    out = tmp_path / "out"
    out.mkdir()
    report = run.run(tiny(name), seed=2, seconds=0.0, trace=True, out_dir=out)
    result = report["result"]
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    assert {m["name"] for m in DECLARED["end_to_end"]} <= set(report["end_to_end"])
    assert all(v > 0 for k, v in report["end_to_end"].items() if k != "error_rate")
    for layer in S.LAYERS:
        assert result["metrics"][f"self_s.{layer}"]["value"] > 0, layer
    assert (out / f"spans-{name}-seed2.json").is_file()
    assert S.leftover_wrappers() == []


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "narrow-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
