"""Bad seeds and ensemble sizes reach the caller as a ConfigError at every
public entry point, never as numpy's ValueError or TypeError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulenet
from rulenet import data as D
from rulenet.datasets import separable_classification, step_regression, write_csv
from rulenet.errors import ConfigError
from rulenet.hpo import SearchSpace, TrialRecord

from helpers import make_dataset, tiny_config, tiny_model

NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.sampled_from([np.float64(2.0), np.bool_(True), [1, 2], (3,), 2 + 0j]),
)
BAD_SEEDS = st.one_of(
    NOT_INTEGERS,
    st.integers(max_value=-1),
    st.integers(min_value=-(2**31), max_value=-1).map(np.int64),
)
BAD_KS = st.one_of(NOT_INTEGERS, st.integers(max_value=0), st.integers(-5, 0).map(np.int32))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    prep, enc = make_dataset(rows=24, seed=3)
    tr, va = D.take_rows(enc, np.arange(16)), D.take_rows(enc, np.arange(16, 24))
    config = tiny_config(prep, epochs=1)
    model = rulenet.RuleNetModel.build(prep, config, seed=0)
    csv_path = tmp_path_factory.mktemp("seeds") / "steps.csv"
    write_csv(csv_path, *step_regression(rows=30, seed=1))
    schema, table = D.load_csv(csv_path)
    best = TrialRecord(0, config, "rmse")
    return {
        "prepare": lambda s: rulenet.prepare(csv_path, n_quantiles=4, seed=s),
        "split": lambda s: rulenet.split(table, schema, (0.6, 0.2, 0.2), s),
        "make_batches": lambda s: next(D.make_batches(tr, 8, s, 0)),
        "build": lambda s: rulenet.RuleNetModel.build(prep, config, seed=s),
        "Trainer": lambda s: rulenet.Trainer(prep, tr, va, config, seed=s),
        "train": lambda s: rulenet.train(prep, tr, va, config, seed=s),
        "run_study": lambda s: rulenet.run_study(SearchSpace.table_default(), prep, tr, va, 1, seed=s),
        "finalize_best": lambda s: rulenet.finalize_best(prep, tr, va, best, s),
        "predict_ensemble": lambda s: rulenet.predict_ensemble(model, va, k=2, seed=s),
        "separable_classification": lambda s: separable_classification(rows=4, seed=s),
        "step_regression": lambda s: step_regression(rows=4, seed=s),
        "ensemble_size": lambda k: rulenet.predict_ensemble(model, va, k=k),
    }


SEED_TAKERS = [
    "prepare", "split", "make_batches", "build", "Trainer", "train", "run_study",
    "finalize_best", "predict_ensemble", "separable_classification", "step_regression",
]


@pytest.mark.parametrize("entry", SEED_TAKERS)
@settings(max_examples=25, deadline=None)
@given(seed=BAD_SEEDS)
def test_a_bad_seed_is_a_config_error(world, entry, seed):
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        world[entry](seed)


@settings(max_examples=50, deadline=None)
@given(k=BAD_KS)
def test_a_bad_ensemble_size_is_a_config_error(world, k):
    with pytest.raises(ConfigError, match="ensemble size must be an integer >= 1"):
        world["ensemble_size"](k)


@pytest.mark.parametrize("cast", [np.int64, np.uint8, np.int32])
def test_numpy_integer_seed_and_size_act_as_ints(cast):
    model, batch = tiny_model(seed=70, mask_rate=0.3)
    want = rulenet.predict_ensemble(model, batch, k=3, seed=5)
    got = rulenet.predict_ensemble(model, batch, k=cast(3), seed=cast(5))
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.std, want.std)
    built = (rulenet.RuleNetModel.build(model.prep, model.config, seed=s) for s in (5, cast(5)))
    assert np.array_equal(*(m.head.weight.data for m in built))
