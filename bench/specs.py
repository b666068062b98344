"""The benchmark's workloads as data; importing this module loads no numpy.

run.py reads the study worker count from here before numpy is imported, so
that the BLAS thread count can still be set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# The study: 9 trials through successive halving (factor 3) give rungs of
# 9, 3 and 1 trials, so two rungs share the worker pool; 13 trial-epochs.
STUDY_TRIALS = 9
STUDY_WORKERS = min(2, nproc())  # BLAS threads = nproc // STUDY_WORKERS
RUNGS = (1, 2, 3)
# the study's architecture, pinned so that its cost does not depend on which trial survives
SMALL_MODEL = {"n_rules": 16, "embed_dim": 16, "hidden_dim": 48, "encoder_layers": 1,
               "decoder_layers": 1, "n_heads": 2, "n_quantiles": 16, "batch_size": 128}


@dataclass(frozen=True)
class Workload:
    name: str
    main: str  # the activity whose units are spanned as the main path: epoch | serve
    n_num: int
    n_cat: int
    task: str
    rows: int  # labelled rows in train.csv; prepare() splits them 40/40/20
    score_rows: int  # rows in score.csv, the file the serve flow reads
    train_epochs: int  # epochs per training run, and the lr schedule's budget
    units: tuple  # one round, in order: epoch | serve | study | block
    config: dict = field(default_factory=dict)  # overrides of the default RuleNetConfig


# The study always runs on this table, the small-hpo path: M=8 regression.
# It is narrow-train's table, written to its own file.
STUDY_TABLE = dict(n_num=8, n_cat=0, task="regression", rows=640)

WORKLOADS = {
    w.name: w
    for w in (
        # The common path: default config on a narrow table, where the rule
        # decoder, GELU/softmax/layer norm and backward do most of the work.
        # 640 rows give a train split of one 256-row batch, so each epoch
        # sample is short, and a 256-row val split, so val_rmse varies little
        # from seed to seed. The probes sit between the epochs of a training
        # run, so that every metric is sampled all through the run; the
        # model is served only once a run has finished training it.
        Workload("narrow-train", "epoch", n_num=8, n_cat=0, task="regression",
                 rows=640, score_rows=32, train_epochs=4,
                 units=("epoch", "block", "study", "epoch", "block", "study",
                        "epoch", "block", "study", "epoch", "serve", "study", "block", "serve")),
        # Forward-only serving of a wide table: per-feature embedding loop,
        # cell-by-cell encode, the M^2 encoder, ensembles and checkpoints.
        Workload("wide-serve", "serve", n_num=112, n_cat=16, task="classification",
                 rows=160, score_rows=16, train_epochs=1,
                 units=("serve", "block", "study", "epoch", "study",
                        "serve", "block", "study", "epoch", "study")),
    )
}
