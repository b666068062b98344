"""Bundled synthetic datasets and the optional California Housing locator.

The synthetic generators exist so training can be demonstrated and verified
without any network access: a linearly separable two-class problem and a
one-feature step-function regression (deep nets fit smooth functions easily;
the step function is the canonical awkward case quantile embeddings handle).
"""

from __future__ import annotations

import csv
import os
from typing import Optional

import numpy as np

from .data import check_seed

CALIFORNIA_ENV = "RULENET_CA_CSV"
CALIFORNIA_DEFAULT = "data/california_housing.csv"


def separable_classification(rows: int = 500, n_features: int = 4, seed: int = 0):
    """Two classes split by a fixed hyperplane with a margin.

    Returns (header, rows-of-strings) ready for write_csv / Table.from_rows.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    w = rng.normal(size=n_features)
    w /= np.linalg.norm(w)
    header = [f"x{i}" for i in range(n_features)] + ["label"]
    out = []
    while len(out) < rows:
        x = rng.normal(size=n_features)
        margin = float(w @ x)
        if abs(margin) < 0.2:  # keep the classes cleanly separated
            continue
        label = "pos" if margin > 0 else "neg"
        out.append([f"{v:.6f}" for v in x] + [label])
    return header, out


def step_regression(rows: int = 600, n_steps: int = 5, seed: int = 0):
    """y is a pure staircase in one feature: hard for smooth fits,
    easy once inputs are quantile-binned."""
    check_seed(seed)
    rng = np.random.default_rng(seed)
    header = ["x", "y"]
    levels = rng.normal(size=n_steps) * 3.0
    xs = rng.uniform(0.0, 1.0, size=rows)
    out = []
    for x in xs:
        level = levels[min(int(x * n_steps), n_steps - 1)]
        out.append([f"{x:.6f}", f"{level:.6f}"])
    return header, out


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def california_housing_csv() -> Optional[str]:
    """Path to a local California Housing CSV, if one has been provided.

    Checks the RULENET_CA_CSV environment variable, then
    data/california_housing.csv relative to the working directory. The
    dataset is not bundled and is never downloaded.
    """
    for candidate in (os.environ.get(CALIFORNIA_ENV), CALIFORNIA_DEFAULT):
        if candidate and os.path.isfile(candidate):
            return candidate
    return None
