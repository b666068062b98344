"""Random search with successive-halving pruning, plus post-hoc analysis.

A study samples n_trials configs independently, then trains all of them in
lockstep through the pruning rungs (11, 33, 100 epochs by default): at each
rung the trials whose validation score falls outside the top third are
stopped. Scores are kept in a single orientation, higher is better, so RMSE
is stored negated.

sensitivity() implements the grouped-mean analysis: bucket the trials by one
hyperparameter's value and average their final scores, which shows how much
that knob mattered across the study.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .checkpoint import atomic_open
from .data import DatasetSchema, EncodedSplit, Preprocessing, check_count, check_seed, fit_quantiles
from .errors import FAILURES, ConfigError, StudyError, describe
from .model import RuleNetConfig, fits
from .training import Trainer, default_metric, oriented, train

DEFAULT_RUNGS = (11, 33, 100)
REDUCTION_FACTOR = 3

STATUS_COMPLETED = "completed"
STATUS_PRUNED = "pruned"
STATUS_FAILED = "failed"

SENSITIVITY_BUCKETS = 5  # quantile buckets per numeric hyperparameter


# ---------------------------------------------------------------------------
# search space


@dataclass(frozen=True)
class Domain:
    """One hyperparameter's sampling rule."""

    kind: str  # fixed | choice | int | uniform | loguniform
    values: tuple = ()
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        if self.kind in ("fixed", "choice"):
            if not self.values:
                raise ConfigError(f"{self.kind} domain needs at least one value")
        elif self.kind in ("int", "uniform", "loguniform"):
            bounds = f"[{self.lo!r}, {self.hi!r}]"
            if not (_finite(self.lo) and _finite(self.hi) and _finite(self.hi - self.lo)):
                raise ConfigError(f"domain bounds must be finite numbers, got {bounds}")
            if self.hi < self.lo:
                raise ConfigError(f"domain range {bounds} is inverted")
            if self.kind == "int" and not all(
                int(b) == b and abs(b) < 2**63 - 1 for b in (self.lo, self.hi)
            ):
                raise ConfigError(f"int domain bounds must be int64 integers, got {bounds}")
            if self.kind == "loguniform" and self.lo <= 0:
                raise ConfigError("loguniform needs a positive lower bound")
        else:
            raise ConfigError(f"unknown domain kind {self.kind!r}")

    def sample(self, rng: np.random.Generator):
        if self.kind == "fixed":
            return self.values[0]
        if self.kind == "choice":
            return self.values[int(rng.integers(len(self.values)))]
        if self.kind == "int":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.kind == "uniform":
            # numpy refuses a range of -0.0 (lo 0, hi -0.0); + 0.0 makes it 0.0
            return float(rng.uniform(self.lo, self.hi + 0.0))
        return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))

    def to_json(self) -> dict:
        if self.kind in ("fixed", "choice"):
            return {"kind": self.kind, "values": list(self.values)}
        return {"kind": self.kind, "lo": self.lo, "hi": self.hi}

    @classmethod
    def from_json(cls, obj: dict) -> "Domain":
        if not isinstance(obj, dict):
            raise ConfigError(f"a domain must be a JSON object, got {obj!r}")
        kind = obj.get("kind")
        if kind in ("fixed", "choice"):
            values = obj.get("values", [])
            if not isinstance(values, list):
                raise ConfigError(f"{kind} domain values must be a list, got {values!r}")
            return cls(kind, values=tuple(values))
        return cls(kind, lo=obj.get("lo", 0.0), hi=obj.get("hi", 0.0))


def _finite(x) -> bool:
    """A number (never a bool) that float64 holds finitely."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


# the component ablations: each name pins the hyperparameters it removes
ABLATIONS = {
    "no-mask": {  # no stochastic masking, no dropout
        "mask_rate": 0.0, "rule_mask_rate": 0.0, "transformer_dropout": 0.0, "head_dropout": 0.0,
    },
    "no-dec": {"decoder_layers": 0},  # untouched encoder output feeds the head
    "no-quant": {"n_quantiles": 2},  # quantile embedding collapses to min/max lerp
}


@dataclass
class SearchSpace:
    domains: dict

    @classmethod
    def table_default(cls, batch_size: int = 256, epochs: int = 100) -> "SearchSpace":
        """The full search box; batch size choices bracket the reference value."""
        bs = [max(1, batch_size // 4), max(1, batch_size // 2), batch_size, 2 * batch_size]
        return cls(
            {
                "batch_size": Domain("choice", values=tuple(dict.fromkeys(bs))),
                "lr_dense": Domain("loguniform", lo=1e-4, hi=1e-2),
                "lr_sparse": Domain("loguniform", lo=1e-3, hi=1e-1),
                "n_rules": Domain("int", lo=64, hi=256),
                "n_quantiles": Domain("int", lo=2, hi=100),
                "embed_dim": Domain("int", lo=64, hi=256),
                "encoder_layers": Domain("int", lo=1, hi=8),
                "decoder_layers": Domain("int", lo=1, hi=8),
                "n_heads": Domain("int", lo=1, hi=8),
                "hidden_dim": Domain("int", lo=128, hi=512),
                "mask_rate": Domain("uniform", lo=0.0, hi=0.4),
                "rule_mask_rate": Domain("uniform", lo=0.0, hi=0.4),
                "transformer_dropout": Domain("uniform", lo=0.0, hi=0.4),
                "head_dropout": Domain("uniform", lo=0.0, hi=0.5),
                "label_smoothing": Domain("uniform", lo=0.0, hi=0.4),
                "epochs": Domain("fixed", values=(epochs,)),
            }
        )

    def pin(self, name: str, value) -> "SearchSpace":
        if name not in self.domains:
            raise ConfigError(f"unknown hyperparameter {name!r}")
        out = dict(self.domains)
        out[name] = Domain("fixed", values=(value,))
        return SearchSpace(out)

    def constrained(self, ablations) -> "SearchSpace":
        """The space with every hyperparameter of the named ablations pinned."""
        space = self
        for name in ablations:
            if name not in ABLATIONS:
                raise ConfigError(f"unknown ablation {name!r}, expected one of {list(ABLATIONS)}")
            for key, value in ABLATIONS[name].items():
                space = space.pin(key, value)
        return space

    def to_json(self) -> dict:
        return {name: d.to_json() for name, d in self.domains.items()}

    @classmethod
    def from_json(cls, obj: dict, batch_size: int = 256) -> "SearchSpace":
        """Overlay a partial JSON space on the Table defaults."""
        space = cls.table_default(batch_size=batch_size)
        domains = dict(space.domains)
        for name, d in obj.items():
            if name not in domains:
                raise ConfigError(f"unknown hyperparameter {name!r} in space file")
            try:
                domains[name] = Domain.from_json(d)
            except ConfigError as e:
                raise ConfigError(f"hyperparameter {name!r}: {e}") from None
        return cls(domains)


_RESAMPLE_CAP = 1000


def sample_config(space: SearchSpace, rng: np.random.Generator, schema: DatasetSchema) -> RuleNetConfig:
    """One independent draw per hyperparameter; heads are redrawn until they
    divide the embedding width."""
    drawn = {name: d.sample(rng) for name, d in space.domains.items()}
    for _ in range(_RESAMPLE_CAP + 1):
        heads, width = drawn.get("n_heads"), drawn.get("embed_dim")
        # any value that is not a usable count is left for validate to name
        if not (fits(heads, "int") and fits(width, "int") and heads >= 1 and width % heads):
            return RuleNetConfig.for_schema(schema, **drawn)
        drawn["n_heads"] = space.domains["n_heads"].sample(rng)
    raise ConfigError(f"no n_heads sample divides embed_dim={width}")


# ---------------------------------------------------------------------------
# trials


@dataclass
class TrialRecord:
    trial_id: int
    config: RuleNetConfig
    metric: str
    rung_scores: list = field(default_factory=list)  # [{"epoch": e, "score": s}]
    score: Optional[float] = None  # final s_j, higher is better (RMSE negated)
    status: str = STATUS_FAILED
    wall_time: float = 0.0
    error: Optional[str] = None

    def to_json(self) -> dict:
        return dataclasses.asdict(self)


def _trial_seed(seed: int, trial_id: int) -> int:
    return int(np.random.SeedSequence([seed, trial_id]).generate_state(1)[0])


def rebinned(prep, train_split: EncodedSplit, n_quantiles: int):
    """Preprocessing with quantile bins refitted at a different resolution.

    Encoded splits keep raw feature values (binning happens at the embedding),
    so bins for any n_quantiles can be recovered from the train split exactly
    as fit_preprocessing would have produced them. Schema and target
    normalizer are shared; they do not depend on the bin count. This is what
    lets a study search over n_quantiles against one prepared dataset.
    """
    cols = prep.schema.numerical_features
    if all(prep.bins[c.name].n_quantiles == n_quantiles for c in cols):
        return prep
    bins = {}
    for j, col in enumerate(cols):
        keep = ~train_split.numeric_missing[:, j]
        bins[col.name] = fit_quantiles(
            train_split.numeric[keep, j], n_quantiles, feature=col.name
        )
    return Preprocessing(schema=prep.schema, bins=bins, normalizer=prep.normalizer)


def run_study(
    space: SearchSpace,
    prep,
    train_split: EncodedSplit,
    val_split: EncodedSplit,
    n_trials: int,
    seed: int = 0,
    rungs: tuple = DEFAULT_RUNGS,
    workers: int = 1,
) -> tuple:
    """Random search + synchronous successive halving.

    Returns (best TrialRecord, all records). Deterministic for a fixed
    (seed, space, data) regardless of worker count: every trial owns its
    rng streams, and rung decisions depend only on scores.
    """
    check_seed(seed)
    check_count("n_trials", n_trials, 1)
    check_count("workers", workers, 1)
    if not rungs or not all(fits(r, "int") and r >= 1 for r in rungs) or list(rungs) != sorted(set(rungs)):
        raise ConfigError(f"rungs must be strictly increasing epochs >= 1, got {rungs}")

    schema = prep.schema
    metric = default_metric(schema.task)
    records = [
        TrialRecord(t, sample_config(space, np.random.default_rng([seed, t]), schema), metric)
        for t in range(n_trials)
    ]
    # a trial's trainer is built at its first advance, not before rung 0, so
    # a study holds no model for a trial that has not started
    trainers = {}
    preps = {}  # n_quantiles -> rebinned prep, shared across trials
    preps_lock = threading.Lock()

    def build(trial_id: int) -> Trainer:
        config = records[trial_id].config
        with preps_lock:  # workers build at once; each bin count is fitted once
            if config.n_quantiles not in preps:
                preps[config.n_quantiles] = rebinned(prep, train_split, config.n_quantiles)
            trial_prep = preps[config.n_quantiles]
        return Trainer(trial_prep, train_split, val_split, config, seed=_trial_seed(seed, trial_id))

    def advance(trial_id: int, epochs: int) -> Optional[float]:
        record = records[trial_id]
        start = time.perf_counter()
        try:
            if trial_id not in trainers:
                trainers[trial_id] = build(trial_id)
            best = trainers[trial_id].run_until(epochs)
            return oriented(metric, best)
        except FAILURES as e:
            record.error = describe(e)
            return None
        finally:
            record.wall_time += time.perf_counter() - start

    active = list(range(n_trials))
    for rung_index, rung in enumerate(rungs):
        if not active:
            break
        if workers == 1 or len(active) == 1:
            results = {t: advance(t, rung) for t in active}
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {t: pool.submit(advance, t, rung) for t in active}
                results = {t: f.result() for t, f in futures.items()}

        scored = []
        for t in active:
            if results[t] is None:
                records[t].status = STATUS_FAILED
                trainers.pop(t, None)  # frees its model and optimizer now, not at return
            else:
                records[t].rung_scores.append({"epoch": rung, "score": results[t]})
                records[t].score = results[t]
                scored.append(t)

        if rung_index == len(rungs) - 1:
            for t in scored:
                records[t].status = STATUS_COMPLETED
            active = scored
            break

        keep = math.ceil(len(scored) / REDUCTION_FACTOR) if scored else 0
        if keep:
            threshold = sorted((results[t] for t in scored), reverse=True)[keep - 1]
        survivors = []
        for t in scored:
            if results[t] >= threshold:
                survivors.append(t)
            else:
                records[t].status = STATUS_PRUNED
                del trainers[t]
        active = survivors

    completed = [r for r in records if r.status == STATUS_COMPLETED]
    if not completed:
        raise StudyError("every trial failed before reaching the final rung")
    best = max(completed, key=lambda r: (r.score, -r.trial_id))
    return best, records


def finalize_best(prep, train_split, val_split, best: TrialRecord, seed: int):
    """Retrain the winning config to completion and hand back the model."""
    check_seed(seed)
    return train(
        rebinned(prep, train_split, best.config.n_quantiles),
        train_split, val_split, best.config,
        seed=_trial_seed(seed, best.trial_id),
    )


# ---------------------------------------------------------------------------
# sensitivity


def sensitivity(records, param: str) -> list:
    """Mean final score per value bucket of one hyperparameter.

    Trials contribute if they earned a score (completed, or pruned at some
    rung); failed trials carry no signal. Returns [(bucket, mean, count)]
    where bucket is the exact value when few distinct values exist, else a
    (lo, hi) quantile-bucket range.
    """
    known = {f for f in RuleNetConfig.__dataclass_fields__}
    if param not in known:
        raise ConfigError(f"unknown hyperparameter {param!r}")
    scored = [r for r in records if r.score is not None]
    if not scored:
        raise ConfigError("no scored trials to analyze")

    raw = [getattr(r.config, param) for r in scored]
    scores = np.array([r.score for r in scored], dtype=np.float64)
    if any(v is None or isinstance(v, str) for v in raw):
        # non-numeric field: plain group-by, first-appearance order
        groups: dict = {}
        for v, s in zip(raw, scores):
            groups.setdefault(v, []).append(s)
        return [(v, float(np.mean(ss)), len(ss)) for v, ss in groups.items()]

    values = np.array(raw, dtype=np.float64)
    distinct = np.unique(values)

    out = []
    if len(distinct) <= SENSITIVITY_BUCKETS:
        for v in distinct:
            members = scores[values == v]
            out.append((float(v), float(members.mean()), int(members.size)))
        return out

    levels = np.linspace(0.0, 1.0, SENSITIVITY_BUCKETS + 1)
    edges = np.quantile(values, levels)
    for i in range(SENSITIVITY_BUCKETS):
        lo, hi = edges[i], edges[i + 1]
        if i == SENSITIVITY_BUCKETS - 1:
            mask = (values >= lo) & (values <= hi)
        else:
            mask = (values >= lo) & (values < hi)
        if not mask.any():
            continue  # duplicate quantile edges leave empty buckets
        out.append(((float(lo), float(hi)), float(scores[mask].mean()), int(mask.sum())))
    return out


def write_study_files(out_dir, best: TrialRecord, records, space: SearchSpace) -> None:
    """Study artifacts in an existing directory: one JSON line per trial, plus a summary."""
    with atomic_open(os.path.join(out_dir, "trials.jsonl")) as fh:
        for r in records:
            fh.write(json.dumps(r.to_json()) + "\n")
    summary = {
        "best_trial_id": best.trial_id,
        "best_score": best.score,
        "metric": best.metric,
        "config": best.config.to_json(),
        "space": space.to_json(),
        "n_trials": len(records),
        "statuses": {
            s: sum(1 for r in records if r.status == s)
            for s in (STATUS_COMPLETED, STATUS_PRUNED, STATUS_FAILED)
        },
    }
    with atomic_open(os.path.join(out_dir, "best.json")) as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
