"""Metric oracle tests: every metric against a brute-force enumeration."""

import math

import numpy as np
import pytest

from finfusion import metrics as mx
from finfusion.errors import ContractError, DegenerateInputError, UndefinedMetricError


# ---------------------------------------------------------------------------
# directional accuracy

def test_directional_perfect():
    x = np.array([0.01, -0.02, 0.03])
    assert mx.directional_accuracy(x, x) == 1.0


def test_directional_sign_enumeration():
    assert mx.directional_accuracy([1.0, -1.0, 2.0], [0.5, 0.3, 1.0]) == pytest.approx(2 / 3)


def test_directional_antipodal_is_zero():
    x = np.array([0.01, -0.02, 0.03, -0.04])
    assert mx.directional_accuracy(x, -x) == 0.0


def test_directional_flat_band_both_sides():
    # both inside the band: classes agree at 0 even with opposite raw signs
    assert mx.directional_accuracy([1e-5], [-1e-5]) == 1.0
    # pred inside band, true outside: no credit
    assert mx.directional_accuracy([0.01], [1e-5]) == 0.0


def test_directional_validation():
    with pytest.raises(ContractError):
        mx.directional_accuracy([], [])
    with pytest.raises(ContractError):
        mx.directional_accuracy([1.0], [1.0, 2.0])


def test_directional_identity_property():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(scale=0.02, size=50)
        x = x[np.abs(x) > mx.FLAT_BAND]
        if x.size:
            assert mx.directional_accuracy(x, x) == 1.0


# ---------------------------------------------------------------------------
# MAPE

def test_mape_hand_case():
    assert mx.mape_with_exclusions([100.0, 200.0], [110.0, 180.0])[0] == pytest.approx(10.0)


def test_mape_perfect_is_zero():
    assert mx.mape_with_exclusions([3.0, -4.0], [3.0, -4.0])[0] == 0.0


def test_mape_excludes_near_zero_truths():
    value, excluded = mx.mape_with_exclusions([1e-12, 100.0], [5.0, 110.0])
    assert excluded == 1
    assert value == pytest.approx(10.0)


def test_mape_all_excluded_rejected():
    with pytest.raises(DegenerateInputError):
        mx.mape_with_exclusions([0.0, 1e-10], [1.0, 2.0])


# ---------------------------------------------------------------------------
# hit ratio

def test_hit_ratio_zero_threshold_equals_directional():
    rng = np.random.default_rng(1)
    t = rng.normal(scale=0.01, size=100)
    p = rng.normal(scale=0.01, size=100)
    assert mx.hit_ratio(t, p, threshold=0.0) == mx.directional_accuracy(t, p)


def test_hit_ratio_singleton_actionable():
    # only the second prediction clears the threshold, and it is correct
    got = mx.hit_ratio([0.001, 0.02], [1e-5, 0.03], threshold=0.01)
    assert got == 1.0


def test_hit_ratio_none_when_nothing_actionable():
    assert mx.hit_ratio([0.01, 0.02], [1e-6, 1e-6], threshold=0.01) is None


def test_hit_ratio_restriction_hand_case():
    t = np.array([0.01, -0.01, 0.01, -0.01])
    p = np.array([0.05, 0.05, 1e-6, -0.05])
    # actionable: 0, 1, 3; correct among them: 0 and 3
    assert mx.hit_ratio(t, p, threshold=0.01) == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# precision / recall / F1

def test_prf_hand_case():
    # TP=2, FP=1, FN=1
    pred = [1, 1, 1, 0, 0]
    true = [1, 1, 0, 1, 0]
    p, r, f = mx.precision_recall_f1(pred, true)
    assert (p, r, f) == (pytest.approx(2 / 3), pytest.approx(2 / 3), pytest.approx(2 / 3))


def test_prf_perfect():
    assert mx.precision_recall_f1([1, 0, 1], [1, 0, 1]) == (1.0, 1.0, 1.0)


def test_prf_all_negative_predictor():
    p, r, f = mx.precision_recall_f1([0, 0, 0], [1, 0, 1])
    assert (p, r, f) == (0.0, 0.0, 0.0)


def test_prf_rejects_nonbinary():
    with pytest.raises(ContractError):
        mx.precision_recall_f1([0.5, 1.0], [1, 0])


def test_f1_is_harmonic_mean():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pred = rng.integers(0, 2, size=30)
        true = rng.integers(0, 2, size=30)
        p, r, f = mx.precision_recall_f1(pred, true)
        want = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        assert f == pytest.approx(want, abs=1e-15)
        assert f <= 2 * min(p, r) + 1e-15


# ---------------------------------------------------------------------------
# ROC-AUC

def _roc_brute(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (pos.size * neg.size)


def test_roc_four_point_case():
    assert mx.roc_auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == 0.75


def test_roc_perfect_separation():
    assert mx.roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_roc_all_ties_is_half():
    assert mx.roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5


def test_roc_single_class_rejected():
    with pytest.raises(UndefinedMetricError):
        mx.roc_auc([0.1, 0.2], [1, 1])


def test_roc_equals_brute_force_exactly():
    rng = np.random.default_rng(3)
    for trial in range(40):
        n = int(rng.integers(2, 200))
        # a small discrete score pool forces plenty of ties
        scores = rng.choice([0.1, 0.2, 0.3, 0.5, 0.9], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert mx.roc_auc(scores, labels) == _roc_brute(scores, labels), f"trial {trial}"


def test_roc_monotone_transform_invariant():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60)
    labels[0], labels[1] = 0, 1
    base = mx.roc_auc(scores, labels)
    for f in (np.exp, lambda x: 2 * x + 3, lambda x: x ** 3):
        assert mx.roc_auc(f(scores), labels) == base


# ---------------------------------------------------------------------------
# PR-AUC

def _pr_brute(scores, labels):
    """Exhaustive threshold enumeration, descending distinct scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n_pos = labels.sum()
    area, prev_recall = 0.0, 0.0
    for t in sorted(set(scores), reverse=True):
        flag = scores >= t
        tp = np.count_nonzero(flag & labels)
        fp = np.count_nonzero(flag & ~labels)
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def test_pr_perfect_separation():
    assert mx.pr_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_pr_four_point_case_matches_enumeration():
    scores = [0.9, 0.8, 0.7, 0.1]
    labels = [1, 0, 1, 0]
    assert mx.pr_auc(scores, labels) == pytest.approx(_pr_brute(scores, labels), abs=1e-15)


def test_pr_matches_enumeration_with_ties():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(4, 120))
        scores = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=n)
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[0] = 1
        got = mx.pr_auc(scores, labels)
        assert got == pytest.approx(_pr_brute(scores, labels), abs=1e-12), f"trial {trial}"
        assert 0.0 <= got <= 1.0


def test_pr_random_scores_approach_positive_rate():
    rng = np.random.default_rng(6)
    n, p = 20_000, 0.3
    labels = rng.random(n) < p
    scores = rng.random(n)
    assert abs(mx.pr_auc(scores, labels) - p) < 0.02


def test_pr_no_positives_rejected():
    with pytest.raises(UndefinedMetricError):
        mx.pr_auc([0.1, 0.2], [0, 0])


def test_pr_all_tied_scores_equal_positive_rate():
    labels = np.array([1, 0, 0, 1, 0])
    got = mx.pr_auc(np.full(5, 0.7), labels)
    assert got == pytest.approx(labels.mean())


# ---------------------------------------------------------------------------
# early warning composite

def test_early_warning_perfect():
    flags = np.array([1, 0, 1, 0, 1])
    scores = flags.astype(float)
    assert mx.early_warning_metrics(flags, flags, scores) == (1.0, 1.0, 1.0)


def test_early_warning_inverted_complement():
    rng = np.random.default_rng(7)
    flags = rng.integers(0, 2, size=40)
    flags[0], flags[1] = 0, 1
    warn = rng.integers(0, 2, size=40)
    scores = rng.random(40)
    a1, _, _ = mx.early_warning_metrics(warn, flags, scores)
    a2, _, _ = mx.early_warning_metrics(1 - warn, flags, scores)
    assert a1 + a2 == pytest.approx(1.0)


def test_early_warning_eight_step_hand_case():
    warn = [1, 0, 1, 1, 0, 0, 1, 0]
    flag = [1, 0, 0, 1, 0, 1, 1, 0]
    scores = [0.9, 0.2, 0.6, 0.8, 0.1, 0.4, 0.7, 0.3]
    acc, f1, auc = mx.early_warning_metrics(warn, flag, scores)
    assert acc == pytest.approx(6 / 8)
    # TP=3, FP=1, FN=1: precision 3/4, recall 3/4
    assert f1 == pytest.approx(0.75)
    assert auc == _roc_brute(scores, flag)


# ---------------------------------------------------------------------------
# seed aggregation

def test_aggregate_identical_reports():
    r = {"task.accuracy": 0.8, "task.mape": 12.0}
    rep = mx.aggregate_seeds([r, r, r])
    assert rep.metrics["task.accuracy"] == pytest.approx(0.8)
    assert rep.std["task.accuracy"] == 0.0
    assert rep.n_seeds == 3


def test_aggregate_sample_std():
    rep = mx.aggregate_seeds([{"loss": 1.0}, {"loss": 2.0}, {"loss": 3.0}])
    assert rep.metrics["loss"] == 2.0
    assert rep.std["loss"] == pytest.approx(1.0)


def test_aggregate_single_seed_std_undefined():
    rep = mx.aggregate_seeds([{"loss": 5.0}])
    assert rep.metrics["loss"] == 5.0
    assert rep.std["loss"] is None


def test_aggregate_mismatched_keys_rejected():
    with pytest.raises(ContractError):
        mx.aggregate_seeds([{"a": 1.0}, {"b": 1.0}])
    with pytest.raises(ContractError):
        mx.aggregate_seeds([])


def test_aggregate_none_propagates():
    rep = mx.aggregate_seeds([{"hit_ratio": 0.6}, {"hit_ratio": None}])
    assert rep.metrics["hit_ratio"] is None
    assert rep.std["hit_ratio"] is None


def test_report_mean_invariant_enforced():
    with pytest.raises(ContractError):
        mx.EvalReport(metrics={"x": 9.0}, n_seeds=2,
                      per_seed={"x": (1.0, 2.0)}, std={"x": 0.5})


def test_report_range_invariant_enforced():
    with pytest.raises(ContractError):
        mx.EvalReport(metrics={"roc_auc": 1.5}, n_seeds=1,
                      per_seed={"roc_auc": (1.5,)}, std={"roc_auc": None})


def test_report_json_roundtrip():
    rep = mx.aggregate_seeds([{"f.directional_accuracy": 0.61, "f.mape": 11.0,
                               "f.hit_ratio": None},
                              {"f.directional_accuracy": 0.65, "f.mape": 12.0,
                               "f.hit_ratio": 0.6}])
    back = mx.EvalReport.from_json(rep.to_json())
    assert back == rep


# ---------------------------------------------------------------------------
# rendering

def test_render_report_shapes_and_formats():
    rep = mx.aggregate_seeds([{"directional_accuracy": 0.674, "mape": 10.9,
                               "hit_ratio": 0.643}])
    text = mx.render_report(rep, "Forecast quality", mx.FORECAST_COLUMNS,
                            label="model-a")
    assert "67.4%" in text
    assert "10.9" in text
    assert "64.3%" in text
    assert "+/-" not in text  # one seed has no spread
    assert text.splitlines()[1].startswith("Model")
    assert text.splitlines()[3].startswith("model-a")
    assert len(text.splitlines()) == 4


def test_render_handles_undefined():
    rep = mx.aggregate_seeds([{"directional_accuracy": 0.5, "mape": 9.0,
                               "hit_ratio": None}])
    text = mx.render_report(rep, "t", mx.FORECAST_COLUMNS)
    assert "n/a" in text


def test_render_report_with_spread():
    rep = mx.aggregate_seeds([{"accuracy": 0.8, "roc_auc": 0.9, "f1": 0.7},
                              {"accuracy": 0.9, "roc_auc": 0.8, "f1": 0.8}])
    text = mx.render_report(rep, "Early warning", mx.EARLY_WARNING_COLUMNS)
    assert "seeds: 2" in text
    assert "+/-" in text
    assert "85.0%" in text
