"""Prediction assembly and metric tables over dataset splits.

Three views mirror the evaluation tables: micro forecasting (directional
accuracy, MAPE, hit ratio), per-institution distress classification, and
macro early warning. One ``forward_chunks`` pass over a split's (asset,
date) pairs, with both heads, serves all three: the micro table reads every
row, and the distress and warning tables read the risk head's one score of
each date, from asset 0's row.
The multi-seed protocol retrains from scratch per seed and aggregates with
mean and sample std.
"""

import dataclasses

import numpy as np

from . import datapipe as dp
from . import fusion as fus
from . import heads
from . import metrics as mx
from . import model as fm
from . import training as tr
from .errors import ContractError, DegenerateInputError, UndefinedMetricError


# the batch_arrays entries each table reads
_MICRO_LABELS = ("y_raw",)
_RISK_LABELS = ("crisis_next", "stress_next", "node_distress")


def _split_pairs(dataset, split: str) -> list:
    pairs = dataset.sample_pairs(split)
    if not pairs:
        raise ContractError(f"split {split!r} has no usable pairs")
    return pairs


def predict_micro(dataset, params, cfg, split: str,
                  kinds=fus.MODALITIES, out=None) -> dict:
    """Point forecasts in raw return units, with realized values, for every
    pair of ``dataset.sample_pairs(split)``. ``out`` is a ``forward_chunks``
    pass over those pairs with the micro head and the ``y_raw`` label, if
    the caller has run one; else this runs it."""
    if out is None:
        out = fm.forward_chunks(dataset, _split_pairs(dataset, split), params, cfg,
                                kinds=kinds, heads=("micro",), labels=_MICRO_LABELS)
    forecast = heads.micro_forecast(out["mdn_weights"], out["mdn_means"],
                                    out["mdn_sigmas"], dataset.norm)
    return {"pred": forecast["point"], "true": out["y_raw"]}


def predict_risk(dataset, params, cfg, split: str,
                 kinds=fus.MODALITIES, out=None) -> dict:
    """Per-date risk score, warning flag, node contributions, and labels,
    from asset 0's row of each date of ``split``. ``out`` is a
    ``forward_chunks`` pass over those rows with the risk head and the
    next-date labels, if the caller has run one; else this runs it."""
    if out is None:
        dates = dataset.splits[split]
        if not dates:
            raise ContractError(f"split {split!r} has no dates")
        out = fm.forward_chunks(dataset, [(0, t) for t in dates], params, cfg,
                                kinds=kinds, heads=("risk",), labels=_RISK_LABELS)
    scores = out["risk_score"]
    return {
        "score": scores,
        "warning": (scores >= cfg.warning_threshold).astype(np.int64),
        "contributions": out["contributions"],
        "crisis": out["crisis_next"],
        "stress": out["stress_next"],
        "node_distress": out["node_distress"],
    }


def _maybe(fn, *args):
    try:
        return fn(*args)
    except (UndefinedMetricError, DegenerateInputError):
        return None


def evaluate_split(dataset, params, cfg, split: str,
                   kinds=fus.MODALITIES) -> dict:
    """Flat dotted-key metric dict covering all three tables, from one
    ``forward_chunks`` pass over ``dataset.sample_pairs(split)`` with both
    heads. The micro table reads every row; the distress and warning tables
    read the risk outputs, one per date, and the labels of the rows they
    were scored on."""
    pairs = _split_pairs(dataset, split)
    rows = fm.forward_chunks(dataset, pairs, params, cfg,
                             kinds=kinds, heads=("micro", "risk"),
                             labels=_MICRO_LABELS + _RISK_LABELS)
    out = {}

    micro = predict_micro(dataset, params, cfg, split, kinds, out=rows)
    pred, true = micro["pred"], micro["true"]
    out["micro.directional_accuracy"] = _maybe(mx.directional_accuracy, pred, true)
    mape = _maybe(mx.mape_with_exclusions, true, pred)
    out["micro.mape"] = mape[0] if mape is not None else None
    out["micro.hit_ratio"] = mx.hit_ratio(true, pred)

    scored = fm.date_first_rows(pairs)
    risk = predict_risk(dataset, params, cfg, split, kinds,
                        out={**{name: rows[name][scored] for name in _RISK_LABELS},
                             "risk_score": rows["risk_score"],
                             "contributions": rows["contributions"]})
    node_scores = risk["contributions"].reshape(-1)
    node_labels = risk["node_distress"].reshape(-1)
    node_preds = (node_scores >= cfg.warning_threshold).astype(np.int64)
    out["distress.accuracy"] = float(np.mean(node_preds == node_labels))
    _, _, f1 = mx.precision_recall_f1(node_preds, node_labels)
    out["distress.f1"] = f1
    out["distress.roc_auc"] = _maybe(mx.roc_auc, node_scores, node_labels)
    out["distress.pr_auc"] = _maybe(mx.pr_auc, node_scores, node_labels)

    warning, crisis = risk["warning"], risk["crisis"]
    out["warning.accuracy"] = float(np.mean(warning == crisis))
    _, _, out["warning.f1"] = mx.precision_recall_f1(warning, crisis)
    out["warning.roc_auc"] = _maybe(mx.roc_auc, risk["score"], crisis)
    return out


# ---------------------------------------------------------------------------
# seeded protocol

def seed_protocol(synth_cfg, model_cfg, train_cfg, schedule=None,
                  split="test", modalities=None, seeds=None, **kw):
    """Independent end-to-end runs per seed: fresh data, fresh init.

    Returns (EvalReport, list of TrainingRun).
    """
    seeds = tuple(seeds) if seeds is not None else train_cfg.seeds
    per_seed, runs = [], []
    for seed in seeds:
        scfg = dataclasses.replace(synth_cfg, seed=int(seed))
        dataset = dp.build_dataset(scfg)
        run = tr.TrainingRun(dataset, model_cfg, train_cfg, schedule=schedule,
                             seed=int(seed), modalities=modalities, **kw)
        run.run_all()
        kinds = modalities or fus.MODALITIES
        per_seed.append(evaluate_split(dataset, run.params, model_cfg, split,
                                       kinds=kinds))
        runs.append(run)
    return mx.aggregate_seeds(per_seed), runs


# ---------------------------------------------------------------------------
# bulletin assembly

def node_names(n: int) -> list:
    return [f"inst_{i:02d}" for i in range(n)]


def bulletin_for_date(dataset, params, cfg, date: int, horizon: int = 1,
                      kinds=fus.MODALITIES) -> heads.PolicyBulletin:
    """Render the bulletin for one date from one ``forward_batch`` call over
    every asset, with both heads: the date's risk score and node
    contributions, and each asset's raw-unit forecast ``horizon`` steps
    ahead."""
    dataset.check_date(date)
    batch = dataset.batch_arrays([(a, date) for a in range(dataset.n_assets)])
    out = fm.forward_batch(batch, params, cfg, kinds, horizon=horizon, risk_rows=[0])
    forecasts = heads.micro_forecast(out["mdn_weights"].data, out["mdn_means"].data,
                                     out["mdn_sigmas"].data, dataset.norm)
    # the risk head scores the date once, from its first row, asset 0's
    score = float(out["risk_score"].data[0])
    return heads.generate_bulletin(score, score >= cfg.warning_threshold,
                                   out["contributions"].data[0], forecasts,
                                   node_names(dataset.n_institutions))
