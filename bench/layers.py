"""Per-layer metrics of a traced session, derived from its spans.

Only spans inside rounds count; the session's first set-up is left out.
The traced session follows the untraced one in the same process, so it is
warm from its first round.

Scopes: the embedding, model, tensor and training figures, and
data.make_batches_ms, count only spans inside the units of the workload's
main activity (`bench.main`), so a probe's model does not mix into them.
The other data figures, and the ensemble, hpo and checkpoint ones, count
every call, because on some workloads only a probe makes those calls. Self
times cover every round.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from rulenet.hpo import STATUS_PRUNED
from rulenet.model import MODES

import spans as S
from workloads import ENSEMBLE_K, epochs_run

TAIL_SAMPLES = 10  # samples a reported tail percentile must leave beyond it


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def step_times(spans) -> list:
    """Seconds from each train-mode forward to the optimizer step that ends it."""
    out = []
    open_at = {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "model.RuleNetModel.forward" and s.tag == "train":
            open_at.setdefault(s.thread, s.start)
        elif s.name == "training.AdamW.step" and s.thread in open_at:
            out.append(s.end - open_at.pop(s.thread))
    return out


def tail(samples) -> tuple:
    """(percentile, value) at the highest rank with TAIL_SAMPLES samples beyond it.

    (0, 0) when there are too few samples for any such rank.
    """
    k = len(samples) - TAIL_SAMPLES
    if k < 1:
        return 0.0, 0.0
    return 100.0 * k / len(samples), sorted(samples)[k - 1]


def per_layer(spans, session, workers: int, checkpoint_bytes: int, flops_ratio: float,
              overhead: float) -> dict:
    def under(name, value=lambda s: True):  # span id -> value of the nearest `name` span above
        return S.inherited(spans, lambda s: value(s) if s.name == name else None)

    measured = under("bench.round")
    spans = [s for s in spans if measured[s.id]]
    in_main = under("bench.main")
    mode = under("model.RuleNetModel.forward", lambda s: s.tag)
    embed = under("embedding.FeatureEmbeddings.embed_row", lambda s: s.id)
    study = under("hpo.run_study", lambda s: s.id)
    names = {s.id: s.name for s in spans}
    by_name, main = defaultdict(list), defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if in_main[s.id]:
            main[s.name].append(s)

    def ms(items):
        return 1e3 * _mean(s.seconds for s in items)

    def ingest(name):  # calls made by the timed read_table + encode of train.csv
        return [s for s in by_name[name] if names.get(s.parent) == "bench.ingest"]

    m = {}
    m["data.prepare_s"] = _mean(s.seconds for s in by_name["data.prepare"])
    m["data.read_table_s"] = _mean(s.seconds for s in ingest("data.read_table"))
    m["data.encode_s"] = _mean(s.seconds for s in ingest("data.encode"))
    batches = main["data.make_batches"]
    m["data.make_batches_ms"] = 1e3 * _ratio(sum(s.seconds for s in batches), len({s.tag for s in batches}))

    embed_rows = main["embedding.FeatureEmbeddings.embed_row"]
    m["embedding.embed_row_ms"] = ms(embed_rows)
    m["embedding.rule_tokens_ms"] = ms(main["embedding.rule_tokens"])
    prim_names = {f"tensor.{p}" for p in S.PRIMITIVES}
    in_embed = sum(1 for s in spans if s.name in prim_names and in_main[s.id] and embed[s.id] is not None)
    m["embedding.ops_per_batch"] = _ratio(in_embed, len(embed_rows))

    for part in ("encoder", "decoder", "head"):
        calls = main[f"model.RuleNetModel.{part}_forward"]
        for md in MODES:
            m[f"model.{part}_ms.{md}"] = ms(s for s in calls if mode[s.id] == md)
    m["model.dec_enc_time_ratio"] = _ratio(
        sum(s.seconds for s in main["model.RuleNetModel.decoder_forward"]),
        sum(s.seconds for s in main["model.RuleNetModel.encoder_forward"]),
    )
    m["model.dec_enc_flops_ratio"] = flops_ratio

    steps = len(main["model.RuleNetModel.forward"])
    total_ops = 0
    for p in S.PRIMITIVES:
        calls = main[f"tensor.{p}"]
        total_ops += len(calls)
        m[f"tensor.fwd.{p}_ms"] = 1e3 * _ratio(sum(s.seconds for s in calls), steps)
        m[f"tensor.fwd.{p}.calls"] = _ratio(len(calls), steps)
    m["tensor.backward_ms"] = ms(main["tensor.backward"])
    m["tensor.ops_per_step"] = _ratio(total_ops, steps)

    step = step_times([s for s in spans if in_main[s.id]])
    pct, value = tail(step)
    m["training.step_ms_p50"] = 1e3 * (statistics.median(step) if step else 0.0)
    m["training.step_ms_tail"] = 1e3 * value
    m["training.step_tail_pct"] = pct
    m["training.step_samples"] = len(step)
    m["training.optimizer_ms"] = ms(main["training.AdamW.step"])
    m["training.evaluate_s"] = _mean(s.seconds for s in main["training.evaluate"])

    m["ensemble.rollout_ms"] = 1e3 * _ratio(
        sum(s.seconds for s in by_name["ensemble.predict_ensemble"]),
        ENSEMBLE_K * len(by_name["ensemble.predict_ensemble"]),
    )

    m.update(_hpo(spans, by_name, study, session, workers))

    m["checkpoint.save_ms"] = ms(by_name["checkpoint.save_checkpoint"])
    m["checkpoint.load_ms"] = ms(by_name["checkpoint.load_checkpoint"])
    m["checkpoint.bytes"] = checkpoint_bytes

    own = S.self_times(spans)
    for layer in S.LAYERS:
        m[f"self_s.{layer}"] = sum(t for sid, t in own.items() if S.layer_of(names[sid]) == layer)
    main_span = by_name["bench.main"]
    bench_self = sum(t for sid, t in own.items() if in_main[sid] and names[sid].startswith("bench."))
    m["trace.unattributed_share"] = _ratio(bench_self, sum(s.seconds for s in main_span))
    m["trace.overhead"] = overhead
    m["trace.spans"] = len(spans)
    return m


def _hpo(spans, by_name, study, session, workers: int) -> dict:
    studies = by_name["hpo.run_study"]
    inits = [s for s in by_name["training.Trainer.__init__"] if study[s.id] is not None]
    rungs = defaultdict(list)  # (study, epoch target) -> run_until spans
    for s in by_name["training.Trainer.run_until"]:
        if study[s.id] is not None:
            rungs[study[s.id], s.tag].append(s)
    rung_walls = defaultdict(list)
    waits = []
    for sid in {k[0] for k in rungs}:
        targets = sorted(t for st, t in rungs if st == sid)
        for i, target in enumerate(targets):
            group = rungs[sid, target]
            rung_walls[i].append(max(s.end for s in group) - min(s.start for s in group))
            if len(group) > 1:  # a lone trial runs inline and waits on no one
                waits.append(max(s.seconds for s in group) - _mean(s.seconds for s in group))
    m = {"hpo.trainer_init_s": _ratio(sum(s.seconds for s in inits), len(studies))}
    for i in range(3):
        m[f"hpo.rung_s.{i}"] = _mean(rung_walls[i])
    m["hpo.straggler_wait_s"] = _mean(waits)
    records = [r for recs, _ in session.studies for r in recs]
    m["hpo.worker_busy_ratio"] = _ratio(
        sum(r.wall_time for r in records), workers * sum(dt for _, dt in session.studies)
    )
    m["hpo.pruned_epoch_share"] = _ratio(
        sum(epochs_run(r) for r in records if r.status == STATUS_PRUNED),
        sum(epochs_run(r) for r in records),
    )
    return m
