"""Evaluation metrics and the multi-seed aggregation protocol.

Every function here is a pure function over numpy arrays with an exact,
enumeration-friendly definition, so each one can be checked against a
brute-force oracle. No approximations: ROC-AUC is the exact Mann-Whitney
statistic, PR-AUC is the exact step-curve area.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .datapipe import FLAT_BAND
from .errors import ContractError, DegenerateInputError, UndefinedMetricError

# |true| below this is treated as zero and excluded from relative error
MAPE_EPS = 1e-8


def _as_1d(x, name):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be 1-d, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{name} contains non-finite values")
    return arr


def _as_binary(x, name):
    arr = np.asarray(x)
    if arr.dtype != bool:
        f = np.asarray(arr, dtype=np.float64)
        if not np.all((f == 0.0) | (f == 1.0)):
            raise ContractError(f"{name} must be binary (0/1 or bool)")
        arr = f == 1.0
    if arr.ndim != 1:
        raise ContractError(f"{name} must be 1-d, got shape {arr.shape}")
    return arr


def _same_length(a, b, what):
    if a.size != b.size:
        raise ContractError(f"{what}: lengths differ ({a.size} vs {b.size})")


def sign_class(x, band=FLAT_BAND):
    """Ternary movement class: +1 above the flat band, -1 below, 0 inside."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > band, 1, np.where(x < -band, -1, 0))


def directional_accuracy(true, pred, band=FLAT_BAND):
    """Fraction of steps whose movement class matches.

    The flat band applies to both series, so a move the model calls flat
    only scores when the realized move is also inside the band.
    """
    t = _as_1d(true, "true")
    p = _as_1d(pred, "pred")
    _same_length(t, p, "directional_accuracy")
    if t.size == 0:
        raise ContractError("directional_accuracy needs at least one step")
    return float(np.mean(sign_class(t, band) == sign_class(p, band)))


def mape_with_exclusions(true, pred, eps=MAPE_EPS):
    """Mean absolute percentage error and the count of excluded points.

    Points with |true| < eps have no meaningful relative error and are
    excluded rather than allowed to blow up the mean.
    """
    t = _as_1d(true, "true")
    p = _as_1d(pred, "pred")
    _same_length(t, p, "mape")
    include = np.abs(t) >= eps
    excluded = int(t.size - np.count_nonzero(include))
    if not include.any():
        raise DegenerateInputError("every point has |true| below eps; MAPE undefined")
    value = float(np.mean(np.abs(t[include] - p[include]) / np.abs(t[include])) * 100.0)
    return value, excluded


def hit_ratio(true, pred, threshold=FLAT_BAND, band=FLAT_BAND):
    """Directional accuracy restricted to actionable steps (|pred| >= threshold).

    Returns None when no step is actionable; an empty restriction is a
    value, not an error.
    """
    t = _as_1d(true, "true")
    p = _as_1d(pred, "pred")
    _same_length(t, p, "hit_ratio")
    if threshold < 0:
        raise ContractError("threshold must be >= 0")
    actionable = np.abs(p) >= threshold
    if not actionable.any():
        return None
    return directional_accuracy(t[actionable], p[actionable], band)


def precision_recall_f1(pred, true):
    """Standard binary precision/recall/F1 on the positive class.

    Precision with no positive predictions is defined as 0, and F1 is 0
    whenever precision + recall is 0.
    """
    p = _as_binary(pred, "pred")
    t = _as_binary(true, "true")
    _same_length(p, t, "precision_recall_f1")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def _average_ranks(s):
    """Ranks 1..n of ``s``, ties sharing their mean (scipy's "average" ranks)."""
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    # the tie group at sorted positions starts..ends-1 holds ranks starts+1..ends
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def roc_auc(scores, labels):
    """Exact Mann-Whitney ROC-AUC: P(score+ > score-) + half the tie mass.

    Rank arithmetic on <= 2**52 points is exact in float64 (ranks are
    multiples of 1/2), so this equals the pairwise brute force bit for bit.
    """
    s = _as_1d(scores, "scores")
    y = _as_binary(labels, "labels")
    _same_length(s, y, "roc_auc")
    n_pos = int(np.count_nonzero(y))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("ROC-AUC needs both classes present")
    ranks = _average_ranks(s)
    u = ranks[y].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def pr_auc(scores, labels):
    """Area under the precision-recall step curve over all score thresholds.

    Tied scores enter a threshold together because no threshold can
    separate them. The plain loop keeps the summation order identical to
    the enumeration oracle in the tests.
    """
    s = _as_1d(scores, "scores")
    y = _as_binary(labels, "labels")
    _same_length(s, y, "pr_auc")
    n_pos = int(np.count_nonzero(y))
    if n_pos == 0:
        raise UndefinedMetricError("PR-AUC needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    n = s.size
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        group_pos = int(np.count_nonzero(y[i:j]))
        tp += group_pos
        fp += (j - i) - group_pos
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(area)


def early_warning_metrics(warnings, crisis_flags, scores):
    """(accuracy, crisis F1, ROC-AUC of the scores) for a warning sequence."""
    w = _as_binary(warnings, "warnings")
    c = _as_binary(crisis_flags, "crisis_flags")
    _same_length(w, c, "early_warning_metrics")
    if w.size == 0:
        raise ContractError("early_warning_metrics needs at least one step")
    accuracy = float(np.mean(w == c))
    _, _, f1 = precision_recall_f1(w, c)
    auc = roc_auc(scores, c)
    return accuracy, f1, auc


# ---------------------------------------------------------------------------
# multi-seed aggregation

# documented value ranges, looked up by the metric name's last component
_METRIC_RANGES = {
    "directional_accuracy": (0.0, 1.0),
    "hit_ratio": (0.0, 1.0),
    "accuracy": (0.0, 1.0),
    "precision": (0.0, 1.0),
    "recall": (0.0, 1.0),
    "f1": (0.0, 1.0),
    "roc_auc": (0.0, 1.0),
    "pr_auc": (0.0, 1.0),
    "mape": (0.0, math.inf),
}


def _range_for(name):
    return _METRIC_RANGES.get(name.rsplit(".", 1)[-1])


@dataclass(frozen=True)
class EvalReport:
    """Aggregated evaluation result across one or more seeds.

    metrics holds the per-metric mean, per_seed the raw values in seed
    order, std the sample (n-1) standard deviation or None for a single
    seed. A None metric value marks an undefined result (for example a
    hit ratio with no actionable step on some seed).
    """

    metrics: dict
    n_seeds: int
    per_seed: dict
    std: dict

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ContractError("EvalReport needs at least one seed")
        keys = set(self.metrics)
        if keys != set(self.per_seed) or keys != set(self.std):
            raise ContractError("metric key sets disagree across report fields")
        for name in keys:
            vals = self.per_seed[name]
            if len(vals) != self.n_seeds:
                raise ContractError(f"{name}: {len(vals)} values for {self.n_seeds} seeds")
            m = self.metrics[name]
            if any(v is None for v in vals):
                if m is not None:
                    raise ContractError(f"{name}: mean must be None when a seed is undefined")
                continue
            want = float(np.mean(np.asarray(vals, dtype=np.float64)))
            if m is None or abs(m - want) > 1e-9 * max(1.0, abs(want)):
                raise ContractError(f"{name}: mean {m!r} does not match per-seed values")
            rng = _range_for(name)
            if rng is not None and not (rng[0] - 1e-12 <= m <= rng[1] + 1e-12):
                raise ContractError(f"{name}: value {m} outside documented range {rng}")

    def to_json(self):
        payload = {
            "metrics": self.metrics,
            "n_seeds": self.n_seeds,
            "per_seed": {k: list(v) for k, v in self.per_seed.items()},
            "std": self.std,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        return cls(
            metrics=d["metrics"],
            n_seeds=int(d["n_seeds"]),
            per_seed={k: tuple(v) for k, v in d["per_seed"].items()},
            std=d["std"],
        )


def aggregate_seeds(reports):
    """Combine per-seed metric maps into an EvalReport.

    Sample standard deviation uses the n-1 denominator; a single seed has
    no spread estimate and gets None. Any seed reporting None for a metric
    makes the aggregate None for that metric.
    """
    reports = list(reports)
    if not reports:
        raise ContractError("at least one seed report required")
    keys = set(reports[0])
    for r in reports[1:]:
        if set(r) != keys:
            raise ContractError("seed reports carry different metric keys")
    n = len(reports)
    per_seed, mean, std = {}, {}, {}
    for k in sorted(keys):
        vals = tuple(r[k] for r in reports)
        per_seed[k] = vals
        if any(v is None for v in vals):
            mean[k] = None
            std[k] = None
            continue
        arr = np.asarray(vals, dtype=np.float64)
        mean[k] = float(arr.mean())
        if n == 1:
            std[k] = None
        elif arr.min() == arr.max():
            # identical values have zero spread; arr.std would leak the
            # rounding error of the mean back in
            std[k] = 0.0
        else:
            std[k] = float(arr.std(ddof=1))
    return EvalReport(metrics=mean, n_seeds=n, per_seed=per_seed, std=std)


# ---------------------------------------------------------------------------
# plain-text rendering

FORECAST_COLUMNS = (
    ("directional_accuracy", "Directional Accuracy"),
    ("mape", "MAPE"),
    ("hit_ratio", "Hit Ratio"),
)
CLASSIFICATION_COLUMNS = (
    ("accuracy", "Accuracy"),
    ("f1", "F1-Score"),
    ("roc_auc", "ROC-AUC"),
    ("pr_auc", "PR-AUC"),
)
EARLY_WARNING_COLUMNS = (
    ("accuracy", "Accuracy"),
    ("f1", "F1-Score"),
    ("roc_auc", "ROC-AUC"),
)

_PERCENT_STYLE = {"directional_accuracy", "hit_ratio", "accuracy", "f1",
                  "precision", "recall"}


def format_metric(name, value):
    if value is None:
        return "n/a"
    tail = name.rsplit(".", 1)[-1]
    if tail == "mape":
        return f"{value:.1f}"
    if tail.endswith("auc"):
        return f"{value:.3f}"
    if tail in _PERCENT_STYLE:
        return f"{100.0 * value:.1f}%"
    return f"{value:.4f}"


def render_report(report, title, columns, label="this run"):
    """Render an EvalReport as a one-row table, mean with spread when known."""
    cells = {}
    for key, _ in columns:
        text = format_metric(key, report.metrics.get(key))
        s = report.std.get(key)
        if s is not None:
            text = f"{text} +/- {format_metric(key, s).rstrip('%')}"
        cells[key] = text
    header = ["Model"] + [h for _, h in columns]
    row = [label] + [cells[k] for k, _ in columns]
    widths = [max(len(header[i]), len(row[i])) for i in range(len(header))]
    lines = [f"{title}  (seeds: {report.n_seeds})",
             "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths),
             "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()]
    return "\n".join(lines)
