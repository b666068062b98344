"""Rule-token transformer for tabular data, on a numpy autodiff core.

Typical flow:

    from rulenet import prepare, RuleNetConfig, train, predict_ensemble

    prepared = prepare("data.csv", n_quantiles=48)
    config = RuleNetConfig.for_schema(prepared.prep.schema)
    model, history = train(prepared.prep, prepared.splits["train"],
                           prepared.splits["val"], config)
    result = predict_ensemble(model, prepared.splits["test"], k=16)
"""

from . import errors
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    DatasetSchema,
    EncodedSplit,
    Preprocessing,
    Table,
    encode,
    fit_preprocessing,
    load_csv,
    prepare,
    read_table,
    split,
)
from .ensemble import EnsemblePrediction, predict_ensemble, predict_point
from .hpo import (
    Domain,
    SearchSpace,
    TrialRecord,
    finalize_best,
    run_study,
    sensitivity,
    write_study_files,
)
from .model import (
    FlopsEstimate,
    RuleNetConfig,
    RuleNetModel,
    activation_bytes,
    encoder_only_flops,
    estimate_flops,
    parameter_count,
)
from .tensor import Tape, Tensor, backward
from .training import TrainHistory, Trainer, default_metric, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "DatasetSchema",
    "Domain",
    "EncodedSplit",
    "EnsemblePrediction",
    "FlopsEstimate",
    "Preprocessing",
    "RuleNetConfig",
    "RuleNetModel",
    "SearchSpace",
    "Table",
    "Tape",
    "Tensor",
    "TrainHistory",
    "Trainer",
    "TrialRecord",
    "activation_bytes",
    "backward",
    "default_metric",
    "encode",
    "encoder_only_flops",
    "errors",
    "estimate_flops",
    "evaluate",
    "finalize_best",
    "fit_preprocessing",
    "load_checkpoint",
    "load_csv",
    "parameter_count",
    "predict_ensemble",
    "predict_point",
    "prepare",
    "read_table",
    "run_study",
    "save_checkpoint",
    "sensitivity",
    "split",
    "train",
    "write_study_files",
    "__version__",
]
