#!/usr/bin/env python3
"""Why quantile resolution matters: fitting a staircase.

A single feature drives a 5-level step function. A model whose numeric
embedding interpolates between only 2 quantile anchors is globally linear
in the feature, so the best it can do is a ramp through the staircase.
With 16 anchors the embedding can bend at each step edge and the fit
becomes nearly exact.

Equivalent CLI run:
    rulenet train --data step.csv --target y --n-quantiles 16 --out run/
"""

import tempfile
from pathlib import Path

from rulenet import RuleNetConfig, evaluate, predict_point, prepare, train
from rulenet.datasets import step_regression, write_csv


def fit_at_resolution(path, n_quantiles):
    prepared = prepare(path, n_quantiles=n_quantiles, seed=0)
    config = RuleNetConfig.for_schema(
        prepared.prep.schema,
        n_rules=8,
        embed_dim=16,
        encoder_layers=1,
        decoder_layers=1,
        n_heads=2,
        hidden_dim=32,
        n_quantiles=n_quantiles,
        mask_rate=0.0,
        rule_mask_rate=0.0,
        transformer_dropout=0.0,
        head_dropout=0.0,
        batch_size=64,
        epochs=30,
    )
    model, history = train(
        prepared.prep,
        prepared.splits["train"],
        prepared.splits["val"],
        config,
        seed=0,
    )
    rmse = evaluate(model, prepared.splits["val"])
    return model, prepared, history, rmse


def main():
    workdir = Path(tempfile.mkdtemp(prefix="rulenet-step-"))
    path = workdir / "step.csv"
    header, rows = step_regression(rows=600, n_steps=5, seed=0)
    write_csv(path, header, rows)
    print(f"wrote {len(rows)} rows of 5-step staircase data to {path}")

    for n_q in (2, 16):
        model, prepared, history, rmse = fit_at_resolution(path, n_q)
        va = prepared.splits["val"]
        pred = predict_point(model, va)
        # R^2 against the validation targets
        ss_res = ((pred - va.target) ** 2).sum()
        ss_tot = ((va.target - va.target.mean()) ** 2).sum()
        r2 = 1.0 - ss_res / ss_tot
        print(
            f"n_quantiles={n_q:>2}: val RMSE {rmse:.4f}, R^2 {r2:.4f} "
            f"({history.epochs_run} epochs, best at {history.best_epoch})"
        )

    print()
    print("the 2-anchor model is stuck on the ramp; 16 anchors trace the steps")


if __name__ == "__main__":
    main()
