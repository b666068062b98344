"""Bad seeds, counts and ensemble sizes reach the caller as a ConfigError at
every public entry point, never as numpy's or Python's ValueError or
TypeError, and never pass silently."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulenet
from rulenet import data as D
from rulenet.datasets import separable_classification, step_regression, write_csv
from rulenet.errors import ConfigError
from rulenet.hpo import Domain, SearchSpace, TrialRecord

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
    trainer = rulenet.Trainer(prep, tr, va, config, seed=0)
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
        # counts, each by the name its message gives
        "n_trials": lambda n: rulenet.run_study(_small_space(), prep, tr, va, n, rungs=(1,)),
        "workers": lambda n: rulenet.run_study(_small_space(), prep, tr, va, 1, rungs=(1,), workers=n),
        "batch_size": lambda n: next(D.make_batches(tr, n, 0, 0)),
        "epoch": lambda n: next(D.make_batches(tr, 8, 0, n)),
        "n_quantiles": lambda n: D.fit_quantiles(np.arange(9.0), n),
        "epoch_target": trainer.run_until,
        "fractions": lambda f: rulenet.split(table, schema, f, 0),
    }


def _small_space() -> SearchSpace:
    """The default box with the model pinned small: a study of it trains in
    a blink."""
    small = dict(embed_dim=8, n_heads=2, n_rules=3, hidden_dim=16, encoder_layers=1,
                 decoder_layers=1, n_quantiles=4, batch_size=8, epochs=1)
    space = SearchSpace.table_default()
    return SearchSpace({**space.domains, **{k: Domain("fixed", values=(v,)) for k, v in small.items()}})


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


# each count, and the least value it takes
COUNTS = {"n_trials": 1, "workers": 1, "batch_size": 1, "epoch": 0, "n_quantiles": 2, "epoch_target": 0}


@pytest.mark.parametrize("entry", COUNTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_bad_count_is_a_config_error(world, entry, data):
    least = COUNTS[entry]
    bad = data.draw(st.one_of(
        NOT_INTEGERS,
        st.integers(max_value=least - 1),
        st.integers(min_value=-(2**31), max_value=least - 1).map(np.int64),
    ))
    with pytest.raises(ConfigError, match=f"{entry} must be an integer >= {least}"):
        world[entry](bad)


BAD_FRACTIONS = st.one_of(
    NOT_INTEGERS,
    st.lists(st.one_of(st.text(max_size=2), st.none(), st.booleans()), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 0.98), max_size=5).filter(lambda f: len(f) != 3),
    st.tuples(st.booleans(), st.just(0.0), st.just(0.0)),
)


@settings(max_examples=50, deadline=None)
@given(fractions=BAD_FRACTIONS)
def test_bad_split_fractions_are_a_config_error(world, fractions):
    with pytest.raises(ConfigError, match="fractions"):
        world["fractions"](fractions)


@pytest.mark.parametrize("cast", [np.int64, np.uint8, np.int32])
def test_numpy_integer_counts_act_as_ints(world, cast):
    for entry, value in (("batch_size", 8), ("epoch", 2), ("n_quantiles", 5), ("n_trials", 1),
                         ("workers", 1)):
        got, want = world[entry](cast(value)), world[entry](value)
        if entry in ("n_trials", "workers"):  # a study: (best, records)
            got, want = ([r.rung_scores for r in rs] for rs in (got[1], want[1]))
        elif entry == "n_quantiles":
            got, want = got.boundaries, want.boundaries
        else:
            got, want = got.numeric, want.numeric
        assert np.array_equal(got, want), entry
    # the trainer is shared: 0 epochs is a no-op, then one epoch each way
    assert world["epoch_target"](cast(0)) == world["epoch_target"](0)
    assert world["epoch_target"](cast(1)) == world["epoch_target"](1)
    sizes = [[p.n_rows for p in world["fractions"](f).values()]
             for f in (np.array([0.5, 0.25, 0.25]), (0.5, 0.25, 0.25))]
    assert sizes[0] == sizes[1]
