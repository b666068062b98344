#!/usr/bin/env python3
"""A small hyperparameter study with successive halving.

20 random configs, pruned at epoch rungs 2 and 4, survivors trained to 8.
Afterwards the per-trial records feed two follow-ups that usually matter
more than the single winning number:

  * a sensitivity table per searched hyperparameter (which knob moved the
    score, which was noise)
  * an ablation rerun of the whole study with the decoder bypassed, to
    check the architecture is earning its FLOPs on this data

CLI equivalent: rulenet hpo --data step.csv --trials 20 --rungs 2,4,8 ...
"""

import tempfile
import time
from pathlib import Path

from rulenet import (
    Domain,
    SearchSpace,
    evaluate,
    finalize_best,
    prepare,
    run_study,
    sensitivity,
)
from rulenet.datasets import step_regression, write_csv


def small_space():
    return SearchSpace(
        {
            "embed_dim": Domain("choice", values=(8, 16)),
            "n_heads": Domain("fixed", values=(2,)),
            "n_rules": Domain("choice", values=(4, 8)),
            "hidden_dim": Domain("fixed", values=(32,)),
            "encoder_layers": Domain("fixed", values=(1,)),
            "decoder_layers": Domain("fixed", values=(1,)),
            "n_quantiles": Domain("choice", values=(2, 8, 16)),
            "batch_size": Domain("fixed", values=(64,)),
            "lr_dense": Domain("loguniform", lo=3e-4, hi=3e-2),
            "lr_sparse": Domain("loguniform", lo=3e-3, hi=3e-1),
            "mask_rate": Domain("uniform", lo=0.0, hi=0.3),
            "rule_mask_rate": Domain("fixed", values=(0.0,)),
            "transformer_dropout": Domain("fixed", values=(0.0,)),
            "head_dropout": Domain("fixed", values=(0.0,)),
            "label_smoothing": Domain("fixed", values=(0.0,)),
            "epochs": Domain("fixed", values=(8,)),
        }
    )


def describe(tag, best, records):
    done = sum(1 for r in records if r.status == "completed")
    pruned = sum(1 for r in records if r.status == "pruned")
    print(
        f"{tag}: best score {best.score:.4f} (trial {best.trial_id}), "
        f"{done} completed / {pruned} pruned"
    )


def main():
    workdir = Path(tempfile.mkdtemp(prefix="rulenet-hpo-"))
    path = workdir / "step.csv"
    write_csv(path, *step_regression(rows=600, n_steps=5, seed=0))
    prepared = prepare(path, n_quantiles=8, seed=0)
    tr, va = prepared.splits["train"], prepared.splits["val"]

    space = small_space()
    t0 = time.perf_counter()
    best, records = run_study(space, prepared.prep, tr, va, n_trials=20, seed=3,
                              rungs=(2, 4, 8))
    describe("full search", best, records)
    print(f"  ({time.perf_counter() - t0:.1f}s; scores are negated RMSE, higher is better)")

    print()
    print("sensitivity (mean score per value bucket):")
    for param in ("n_quantiles", "lr_dense", "mask_rate"):
        parts = []
        for bucket, mean, count in sensitivity(records, param):
            if isinstance(bucket, tuple):
                parts.append(f"[{bucket[0]:.2g},{bucket[1]:.2g}]:{mean:.3f}(n={count})")
            else:
                parts.append(f"{bucket:g}:{mean:.3f}(n={count})")
        print(f"  {param:<12} {'  '.join(parts)}")

    print()
    no_dec, nd_records = run_study(
        space.constrained(["no-dec"]),
        prepared.prep, tr, va, n_trials=20, seed=3, rungs=(2, 4, 8),
    )
    describe("decoder off ", no_dec, nd_records)
    verdict = "earns its keep" if best.score >= no_dec.score else "is dead weight here"
    print(f"  -> the decoder {verdict}")

    model, _ = finalize_best(prepared.prep, tr, va, best, seed=3)
    rmse = evaluate(model, prepared.splits["test"])
    print()
    print(f"winner retrained to full budget: test RMSE {rmse:.4f}")


if __name__ == "__main__":
    main()
