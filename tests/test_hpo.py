import math
import os
import weakref

import numpy as np
import pytest

from rulenet import hpo
from rulenet.data import prepare, take_rows
from rulenet.datasets import step_regression, write_csv
from rulenet.errors import ConfigError, StudyError
from rulenet.hpo import (
    Domain,
    SearchSpace,
    TrialRecord,
    finalize_best,
    run_study,
    sample_config,
    sensitivity,
    write_study_files,
)
from rulenet.model import RuleNetConfig
from rulenet.training import evaluate, oriented

from helpers import make_dataset


# ---------------------------------------------------------------------------
# domains and sampling


def test_domain_validation():
    with pytest.raises(ConfigError):
        Domain("gaussian", lo=0, hi=1)
    with pytest.raises(ConfigError):
        Domain("choice")
    with pytest.raises(ConfigError):
        Domain("uniform", lo=2.0, hi=1.0)
    with pytest.raises(ConfigError):
        Domain("loguniform", lo=0.0, hi=1.0)


@pytest.mark.parametrize(
    "kind,lo,hi",
    [
        ("uniform", -1e308, 1e308),  # the width overflows float64
        ("uniform", float("nan"), 1.0),
        ("loguniform", 1e-3, float("inf")),
        ("int", 1.5, 2.5),  # would sample 1, outside the range
        ("int", 0, 2**63),  # beyond int64
        ("int", None, 5),
    ],
)
def test_domain_rejects_bounds_it_cannot_sample(kind, lo, hi):
    with pytest.raises(ConfigError, match="domain bounds"):
        Domain(kind, lo=lo, hi=hi)


def test_uniform_domain_with_a_negative_zero_bound_samples_zero():
    # numpy's uniform refuses the range hi - lo = -0.0
    assert Domain("uniform", lo=0.0, hi=-0.0).sample(np.random.default_rng(0)) == 0.0


@pytest.mark.parametrize("values", [5, "ab", None])
def test_space_domain_values_must_be_a_list(values):
    with pytest.raises(ConfigError, match="'n_rules'.*must be a list"):
        SearchSpace.from_json({"n_rules": {"kind": "choice", "values": values}})


def test_zero_heads_is_named_not_divided_by():
    prep, _ = make_dataset(seed=70)
    space = SearchSpace.table_default().pin("n_heads", 0)
    with pytest.raises(ConfigError, match="n_heads must be >= 1"):
        sample_config(space, np.random.default_rng(0), prep.schema)


def test_lr_samples_stay_in_range():
    space = SearchSpace.table_default()
    rng = np.random.default_rng(0)
    d = space.domains["lr_dense"]
    draws = np.array([d.sample(rng) for _ in range(10_000)])
    assert draws.min() >= 1e-4
    assert draws.max() <= 1e-2


def test_loguniform_median_is_geometric_mean():
    d = Domain("loguniform", lo=1e-4, hi=1e-2)
    rng = np.random.default_rng(1)
    draws = np.array([d.sample(rng) for _ in range(10_000)])
    geo = math.sqrt(1e-4 * 1e-2)
    assert geo / 1.5 < np.median(draws) < geo * 1.5


def test_single_point_space_always_returns_it():
    prep, _ = make_dataset(seed=70)
    space = _tiny_space()
    for name, d in space.domains.items():
        if d.kind != "fixed":
            space = space.pin(name, d.sample(np.random.default_rng(0)))
    a = sample_config(space, np.random.default_rng(1), prep.schema)
    b = sample_config(space, np.random.default_rng(2), prep.schema)
    assert a == b


def test_sampled_configs_always_validate():
    prep, _ = make_dataset(seed=71)
    space = SearchSpace.table_default(batch_size=64)
    rng = np.random.default_rng(2)
    for _ in range(300):
        cfg = sample_config(space, rng, prep.schema)
        assert cfg.embed_dim % cfg.n_heads == 0
        cfg.validate()
        assert 1e-4 <= cfg.lr_dense <= 1e-2
        assert cfg.batch_size in (16, 32, 64, 128)


def test_sampling_is_deterministic():
    prep, _ = make_dataset(seed=72)
    space = SearchSpace.table_default()
    a = sample_config(space, np.random.default_rng(9), prep.schema)
    b = sample_config(space, np.random.default_rng(9), prep.schema)
    assert a == b


def test_space_json_round_trip():
    space = SearchSpace.table_default(batch_size=32)
    again = SearchSpace.from_json(space.to_json(), batch_size=32)
    assert again.to_json() == space.to_json()
    with pytest.raises(ConfigError, match="momentum"):
        SearchSpace.from_json({"momentum": {"kind": "uniform", "lo": 0, "hi": 1}})


def test_ablation_switches_constrain_the_space():
    prep, _ = make_dataset(seed=73)
    rng = np.random.default_rng(3)
    base = SearchSpace.table_default()

    no_mask = base.constrained(["no-mask"])
    for _ in range(20):
        cfg = sample_config(no_mask, rng, prep.schema)
        assert cfg.mask_rate == cfg.rule_mask_rate == 0.0
        assert cfg.transformer_dropout == cfg.head_dropout == 0.0

    no_dec = base.constrained(["no-dec"])
    assert all(
        sample_config(no_dec, rng, prep.schema).decoder_layers == 0 for _ in range(20)
    )

    no_quant = base.constrained(["no-quant"])
    assert all(
        sample_config(no_quant, rng, prep.schema).n_quantiles == 2 for _ in range(20)
    )

    assert base.constrained([]) == base
    both = base.constrained(["no-dec", "no-quant"])
    assert both.domains == {**no_dec.domains, "n_quantiles": no_quant.domains["n_quantiles"]}
    with pytest.raises(ConfigError, match="no-skip"):
        base.constrained(["no-dec", "no-skip"])


# ---------------------------------------------------------------------------
# studies


def _tiny_space(**overrides):
    domains = {
        "embed_dim": Domain("fixed", values=(8,)),
        "n_heads": Domain("fixed", values=(2,)),
        "n_rules": Domain("fixed", values=(3,)),
        "hidden_dim": Domain("fixed", values=(16,)),
        "encoder_layers": Domain("fixed", values=(1,)),
        "decoder_layers": Domain("fixed", values=(1,)),
        "n_quantiles": Domain("fixed", values=(4,)),
        "batch_size": Domain("choice", values=(8, 16)),
        "lr_dense": Domain("loguniform", lo=1e-4, hi=1e-2),
        "lr_sparse": Domain("loguniform", lo=1e-3, hi=1e-1),
        "mask_rate": Domain("uniform", lo=0.0, hi=0.3),
        "rule_mask_rate": Domain("fixed", values=(0.0,)),
        "transformer_dropout": Domain("fixed", values=(0.0,)),
        "head_dropout": Domain("fixed", values=(0.0,)),
        "label_smoothing": Domain("fixed", values=(0.0,)),
        "epochs": Domain("fixed", values=(3,)),
    }
    domains.update(overrides)
    return SearchSpace(domains)


def _study_data(seed=80, rows=30):
    prep, enc = make_dataset(rows=rows, seed=seed)
    tr = take_rows(enc, np.arange(20))
    va = take_rows(enc, np.arange(20, rows))
    return prep, tr, va


def test_study_ranks_completed_trials():
    prep, tr, va = _study_data()
    best, records = run_study(_tiny_space(), prep, tr, va, n_trials=6, seed=1, rungs=(1, 2, 3))
    completed = [r for r in records if r.status == "completed"]
    assert best.status == "completed"
    assert best.score == max(r.score for r in completed)
    assert len(records) == 6
    pruned = [r for r in records if r.status == "pruned"]
    assert len(pruned) >= 1
    # pruned trials keep only the rungs they reached
    for r in pruned:
        assert 1 <= len(r.rung_scores) < 3


def test_study_with_one_trial_never_prunes():
    prep, tr, va = _study_data()
    best, records = run_study(_tiny_space(), prep, tr, va, n_trials=1, seed=2, rungs=(1, 2, 3))
    assert records[0].status == "completed"
    assert best is records[0]
    assert len(records[0].rung_scores) == 3


def test_study_is_deterministic():
    prep, tr, va = _study_data()
    b1, r1 = run_study(_tiny_space(), prep, tr, va, n_trials=5, seed=3, rungs=(1, 2))
    b2, r2 = run_study(_tiny_space(), prep, tr, va, n_trials=5, seed=3, rungs=(1, 2))
    assert b1.trial_id == b2.trial_id
    for a, b in zip(r1, r2):
        assert a.config == b.config
        assert a.status == b.status
        assert a.rung_scores == b.rung_scores


def test_worker_count_does_not_change_results():
    prep, tr, va = _study_data()
    b1, r1 = run_study(_tiny_space(), prep, tr, va, n_trials=4, seed=4, rungs=(1, 2), workers=1)
    b2, r2 = run_study(_tiny_space(), prep, tr, va, n_trials=4, seed=4, rungs=(1, 2), workers=3)
    assert b1.trial_id == b2.trial_id
    for a, b in zip(r1, r2):
        assert a.status == b.status
        assert a.rung_scores == b.rung_scores


def test_pruning_safety():
    prep, tr, va = _study_data(seed=81)
    _, records = run_study(_tiny_space(), prep, tr, va, n_trials=9, seed=5, rungs=(1, 2, 3))
    for rung_index in range(2):
        survivors = [
            r.rung_scores[rung_index]["score"]
            for r in records
            if len(r.rung_scores) > rung_index + 1
            or (r.status == "completed" and len(r.rung_scores) == rung_index + 1)
        ]
        if not survivors:
            continue
        threshold = min(survivors)
        for r in records:
            if r.status == "pruned" and len(r.rung_scores) == rung_index + 1:
                assert r.rung_scores[-1]["score"] < threshold


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_lr_trials_fail_and_are_excluded():
    prep, tr, va = _study_data(seed=82)
    wild = _tiny_space(lr_dense=Domain("choice", values=(1e-3, 1e9)))
    for seed in (6, 7, 8):
        best, records = run_study(wild, prep, tr, va, n_trials=5, seed=seed, rungs=(1, 2))
        assert best.config.lr_dense == 1e-3  # the benign region wins every time
        for r in records:
            if r.config.lr_dense > 1.0:
                assert r.status == "failed"
                assert r.error


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_study_drops_a_trainer_before_the_rung_after_its_trial_ends(monkeypatch):
    refs = []  # trainers are built in trial order
    alive = {}  # rung epoch -> trials whose trainer exists as that rung starts

    class Watched(hpo.Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

        def run_until(self, epoch_target):
            alive.setdefault(epoch_target, {i for i, r in enumerate(refs) if r() is not None})
            return super().run_until(epoch_target)

    monkeypatch.setattr(hpo, "Trainer", Watched)
    prep, tr, va = _study_data(seed=82)
    wild = _tiny_space(lr_dense=Domain("choice", values=(1e-3, 1e9)))
    rungs = (1, 2, 3)
    _, records = run_study(wild, prep, tr, va, n_trials=8, seed=6, rungs=rungs)
    ended = {}  # trial -> index of the rung it ended at
    for r in records:
        if r.status == "pruned":
            ended[r.trial_id] = len(r.rung_scores) - 1
        elif r.status == "failed":
            ended[r.trial_id] = len(r.rung_scores)
    assert {records[t].status for t in ended} == {"pruned", "failed"}
    for t, last in ended.items():
        for later in rungs[last + 1 :]:
            assert t not in alive[later]
    assert all(t in alive[rungs[1]] for t in range(len(records)) if t not in ended)


def test_a_trial_builds_its_trainer_at_its_first_advance(monkeypatch):
    events = []

    class Traced(hpo.Trainer):
        def __init__(self, *args, seed, **kwargs):
            events.append(("build", seed))
            super().__init__(*args, seed=seed, **kwargs)
            self.trial_seed = seed

        def run_until(self, epoch_target):
            events.append(("run", self.trial_seed, epoch_target))
            return super().run_until(epoch_target)

    monkeypatch.setattr(hpo, "Trainer", Traced)
    prep, tr, va = _study_data()
    run_study(_tiny_space(), prep, tr, va, n_trials=3, seed=11, rungs=(1, 2))
    seeds = [hpo._trial_seed(11, t) for t in range(3)]
    assert events[:6] == [e for s in seeds for e in (("build", s), ("run", s, 1))]
    assert [e for e in events if e[0] == "build"] == [("build", s) for s in seeds]


def test_records_less_wall_time_match_across_workers_when_a_build_fails(monkeypatch):
    doomed = hpo._trial_seed(12, 2)

    class Fragile(hpo.Trainer):
        def __init__(self, *args, seed, **kwargs):
            if seed == doomed:
                raise ConfigError("no room for this one")
            super().__init__(*args, seed=seed, **kwargs)

    monkeypatch.setattr(hpo, "Trainer", Fragile)
    prep, tr, va = _study_data()
    studies = [run_study(_tiny_space(), prep, tr, va, n_trials=5, seed=12, rungs=(1, 2), workers=w)[1]
               for w in (1, 2)]
    one, two = ([{k: v for k, v in r.to_json().items() if k != "wall_time"} for r in rs] for rs in studies)
    assert one == two
    assert one[2]["status"] == "failed" and one[2]["error"] == "no room for this one"
    assert one[2]["rung_scores"] == [] and one[2]["score"] is None


@pytest.mark.parametrize("where", ["build", "run"])
def test_a_trial_out_of_memory_fails_and_the_study_goes_on(monkeypatch, where):
    doomed = hpo._trial_seed(11, 1)

    class Hungry(hpo.Trainer):
        def __init__(self, *args, seed, **kwargs):
            if where == "build" and seed == doomed:
                raise MemoryError("Unable to allocate 33.0 GiB for an array")
            super().__init__(*args, seed=seed, **kwargs)
            self.doomed = seed == doomed

        def run_until(self, epoch_target):
            if where == "run" and self.doomed:
                raise MemoryError()
            return super().run_until(epoch_target)

    monkeypatch.setattr(hpo, "Trainer", Hungry)
    prep, tr, va = _study_data()
    best, records = run_study(_tiny_space(), prep, tr, va, n_trials=4, seed=11, rungs=(1, 2))
    failed = records[1]
    assert failed.status == "failed" and failed.rung_scores == []
    if where == "build":
        assert failed.error == "out of memory: Unable to allocate 33.0 GiB for an array"
    else:
        assert failed.error == "out of memory"
    assert all(r.error is None for r in records if r is not failed)
    assert best.status == "completed" and best is not failed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_all_trials_failing_is_a_study_error():
    prep, tr, va = _study_data(seed=83)
    # a learning rate this large blows every trial up within one epoch
    broken = _tiny_space(
        lr_dense=Domain("fixed", values=(1e18,)),
        lr_sparse=Domain("fixed", values=(1e18,)),
    )
    with pytest.raises(StudyError):
        run_study(broken, prep, tr, va, n_trials=3, seed=9, rungs=(1,))


def test_quantile_count_is_searchable():
    # the prepared data was binned at n_q=4; the study still trains trials at
    # other bin counts by refitting the bins from the train split
    prep, tr, va = _study_data(seed=85)
    space = _tiny_space(n_quantiles=Domain("choice", values=(3, 7)))
    best, records = run_study(space, prep, tr, va, n_trials=4, seed=10, rungs=(1, 2, 3))
    assert all(r.status != "failed" for r in records)
    sampled = {r.config.n_quantiles for r in records}
    assert len(sampled) == 2  # both bin counts actually trained

    model, history = finalize_best(prep, tr, va, best, seed=10)
    for col in model.prep.schema.numerical_features:
        assert model.prep.bins[col.name].n_quantiles == best.config.n_quantiles
    assert oriented(best.metric, history.best_val_metric) == best.score


def test_study_does_not_depend_on_the_prepared_bin_count(tmp_path):
    # what lets `rulenet hpo` prepare at a fixed bin count: each trial bins
    # the train split at its own n_quantiles, whatever the data came with
    header, rows = step_regression(rows=40, seed=87)
    write_csv(tmp_path / "t.csv", header, rows)
    space = _tiny_space(n_quantiles=Domain("choice", values=(2, 5, 48)))
    studies = []
    for n_q in (2, 48):
        data = prepare(tmp_path / "t.csv", n_quantiles=n_q, seed=3)
        _, records = run_study(
            space, data.prep, data.splits["train"], data.splits["val"],
            n_trials=6, seed=12, rungs=(1, 2),
        )
        studies.append([{**r.to_json(), "wall_time": None} for r in records])
    assert {r["config"]["n_quantiles"] for r in studies[0]} == {2, 5, 48}
    assert studies[0] == studies[1]


def test_rebinned_refits_only_the_bins():
    from rulenet.hpo import rebinned

    prep4, enc = make_dataset(rows=40, seed=86, missing_rate=0.2, n_quantiles=4)
    re7 = rebinned(prep4, enc, 7)
    assert re7.schema is prep4.schema
    assert re7.normalizer is prep4.normalizer
    for name, b in re7.bins.items():
        assert b.n_quantiles == 7
        assert len(b.boundaries) == 7
        assert np.all(np.diff(b.boundaries) >= 0)
    # same count -> same object, no copy
    assert rebinned(prep4, enc, 4) is prep4


def test_study_rejects_bad_arguments():
    prep, tr, va = _study_data(seed=84)
    with pytest.raises(ConfigError):
        run_study(_tiny_space(), prep, tr, va, n_trials=0, seed=0)
    with pytest.raises(ConfigError):
        run_study(_tiny_space(), prep, tr, va, n_trials=1, seed=0, workers=0)
    with pytest.raises(ConfigError):
        run_study(_tiny_space(), prep, tr, va, n_trials=1, seed=0, rungs=(3, 1))


def test_finalize_best_reproduces_the_trial_score():
    prep, tr, va = _study_data(seed=85)
    best, _ = run_study(_tiny_space(), prep, tr, va, n_trials=3, seed=10, rungs=(1, 3))
    model, history = finalize_best(prep, tr, va, best, seed=10)
    assert oriented("rmse", history.best_val_metric) == best.score
    assert oriented("rmse", evaluate(model, va)) == best.score


# ---------------------------------------------------------------------------
# sensitivity


def _record(trial_id, score, **config_overrides):
    prep, _ = make_dataset(seed=86)
    defaults = dict(
        n_rules=3, embed_dim=8, encoder_layers=1, decoder_layers=1, n_heads=2,
        hidden_dim=16, n_quantiles=4,
    )
    defaults.update(config_overrides)
    cfg = RuleNetConfig.for_schema(prep.schema, **defaults)
    r = TrialRecord(trial_id, cfg, "rmse")
    r.score = score
    r.status = "completed" if score is not None else "failed"
    return r


def test_failed_study_write_leaves_the_previous_files(tmp_path):
    records = [_record(0, 1.0), _record(1, 2.0)]
    write_study_files(tmp_path, records[1], records, _tiny_space())
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}

    def fail():
        raise RuntimeError("record cannot be serialized")

    broken = [_record(0, 3.0), _record(1, 4.0)]
    broken[1].to_json = fail  # the second trials.jsonl line fails
    with pytest.raises(RuntimeError, match="serialized"):
        write_study_files(tmp_path, broken[0], broken, _tiny_space())
    assert sorted(before) == ["best.json", "trials.jsonl"]
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


def test_sensitivity_reference_grouping():
    records = [
        _record(0, 0.9, mask_rate=0.1),
        _record(1, 0.7, mask_rate=0.1),
        _record(2, 0.5, mask_rate=0.3),
    ]
    got = sensitivity(records, "mask_rate")
    assert got == [(0.1, pytest.approx(0.8), 2), (0.3, 0.5, 1)]


def test_sensitivity_single_record():
    got = sensitivity([_record(0, 0.42, mask_rate=0.2)], "mask_rate")
    assert got == [(0.2, 0.42, 1)]


def test_sensitivity_skips_unscored_trials():
    records = [_record(0, 0.9, mask_rate=0.1), _record(1, None, mask_rate=0.1)]
    assert sensitivity(records, "mask_rate") == [(0.1, 0.9, 1)]


def test_sensitivity_rejects_unknown_param():
    with pytest.raises(ConfigError, match="gamma"):
        sensitivity([_record(0, 1.0)], "gamma")
    with pytest.raises(ConfigError):
        sensitivity([_record(0, None)], "mask_rate")


def test_sensitivity_matches_brute_force_oracle(monkeypatch):
    rng = np.random.default_rng(11)
    records = [
        _record(i, float(rng.normal()), lr_dense=float(10 ** rng.uniform(-4, -2)))
        for i in range(100)
    ]
    n_buckets = 4
    monkeypatch.setattr(hpo, "SENSITIVITY_BUCKETS", n_buckets)
    got = sensitivity(records, "lr_dense")

    values = np.array([r.config.lr_dense for r in records])
    scores = np.array([r.score for r in records])
    edges = np.quantile(values, np.linspace(0, 1, n_buckets + 1))
    want = []
    for i in range(n_buckets):
        if i == n_buckets - 1:
            members = scores[(values >= edges[i]) & (values <= edges[i + 1])]
        else:
            members = scores[(values >= edges[i]) & (values < edges[i + 1])]
        if members.size:
            want.append(((edges[i], edges[i + 1]), members.mean(), members.size))
    assert len(got) == len(want)
    total = 0
    for (gb, gv, gn), (wb, wv, wn) in zip(got, want):
        assert gb == pytest.approx(wb)
        assert gv == pytest.approx(wv)
        assert gn == wn
        total += gn
    assert total == 100
