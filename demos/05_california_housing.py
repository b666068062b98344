#!/usr/bin/env python3
"""Reference run on California Housing, if a local CSV is available.

The dataset is not bundled and nothing is downloaded. Point the loader at
a copy with either

    export RULENET_CA_CSV=/path/to/california_housing.csv

or place the file at data/california_housing.csv relative to the working
directory. Expected shape: header row, 8 numeric feature columns, target
(median house value, in units of $100k) as the last column; 20,640 rows
in the canonical version.

With the library-default config this reaches test RMSE well under 0.60
in a few minutes on a laptop CPU.
"""

import sys
import time

from rulenet import RuleNetConfig, evaluate, prepare, train
from rulenet.datasets import CALIFORNIA_DEFAULT, CALIFORNIA_ENV, california_housing_csv


def main():
    path = california_housing_csv()
    if path is None:
        print("no California Housing CSV found.")
        print(f"set {CALIFORNIA_ENV} or place the file at {CALIFORNIA_DEFAULT};")
        print("see the module docstring for the expected format.")
        return 1

    print(f"loading {path}")
    prepared = prepare(path, n_quantiles=48, seed=0)
    schema = prepared.prep.schema
    print(
        f"{prepared.splits['train'].n_rows} train / "
        f"{prepared.splits['val'].n_rows} val / "
        f"{prepared.splits['test'].n_rows} test rows, "
        f"{schema.n_features} features, target {schema.target.name!r}"
    )

    config = RuleNetConfig.for_schema(schema)  # library defaults throughout
    t0 = time.perf_counter()
    model, history = train(
        prepared.prep, prepared.splits["train"], prepared.splits["val"], config, seed=0
    )
    minutes = (time.perf_counter() - t0) / 60
    rmse = evaluate(model, prepared.splits["test"])
    print(
        f"trained {history.epochs_run} epochs in {minutes:.1f} min "
        f"(best val RMSE {history.best_val_metric:.4f} at epoch {history.best_epoch})"
    )
    print(f"test RMSE: {rmse:.4f} (target units: $100k)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
