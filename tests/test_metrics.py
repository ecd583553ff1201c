import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import tslto
from tslto import DetectionRule, detection_metrics, imputation_metrics
from tslto.tensor_ops import fold, unfold


def naive_imputation(truth, estimate, sel):
    """Double-loop oracle over the flattened selected entries."""
    se = ae = pe = 0.0
    n = skipped = 0
    for t, e, s in zip(truth.ravel(), estimate.ravel(), sel.ravel()):
        if not s:
            continue
        n += 1
        se += (t - e) ** 2
        ae += abs(t - e)
        if abs(t) >= 1e-12:
            pe += abs((t - e) / t)
        else:
            skipped += 1
    mape = 100.0 * pe / (n - skipped) if n > skipped else None
    return {"rmse": np.sqrt(se / n), "mape": mape, "mae": ae / n,
            "n": n, "mape_skipped": skipped}


class TestImputationMetrics:
    def test_perfect_estimate(self):
        x = np.random.default_rng(0).uniform(1, 2, size=(3, 3, 3))
        out = imputation_metrics(x, x)
        assert out["rmse"] == 0.0
        assert out["mape"] == 0.0
        assert out["mae"] == 0.0

    def test_hand_example(self):
        truth = np.array([2.0, 4.0]).reshape(2, 1, 1)
        estimate = np.array([3.0, 3.0]).reshape(2, 1, 1)
        out = imputation_metrics(truth, estimate, scope="all")
        assert out["rmse"] == 1.0
        assert out["mape"] == pytest.approx(37.5)
        assert out["mae"] == 1.0
        assert out["n"] == 2

    def test_constant_offset(self):
        truth = np.full((4, 3, 2), 5.0)
        out = imputation_metrics(truth, truth + 0.25)
        assert out["rmse"] == pytest.approx(0.25)
        assert out["mae"] == pytest.approx(0.25)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            truth = rng.standard_normal((4, 4, 4))
            estimate = rng.standard_normal((4, 4, 4))
            out = imputation_metrics(truth, estimate)
            assert out["rmse"] >= out["mae"] - 1e-12

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(-3, 3, size=(5, 4, 3))
        estimate = truth + rng.standard_normal(truth.shape)
        mask = rng.random(truth.shape) < 0.5
        out = imputation_metrics(truth, estimate, scope="missing", mask=mask)
        ref = naive_imputation(truth, estimate, ~mask)
        assert out["rmse"] == pytest.approx(ref["rmse"])
        assert out["mape"] == pytest.approx(ref["mape"])
        assert out["mae"] == pytest.approx(ref["mae"])
        assert out["n"] == ref["n"]

    def test_mape_skips_zero_truth(self):
        truth = np.array([0.0, 2.0]).reshape(2, 1, 1)
        estimate = np.array([1.0, 3.0]).reshape(2, 1, 1)
        out = imputation_metrics(truth, estimate)
        assert out["mape"] == pytest.approx(50.0)
        assert out["mape_skipped"] == 1

    def test_all_zero_truth_mape_none(self):
        truth = np.zeros((2, 2, 2))
        out = imputation_metrics(truth, truth + 1.0)
        assert out["mape"] is None
        assert out["mape_skipped"] == 8

    def test_scope_plumbing(self):
        truth = np.ones((2, 2, 2))
        with pytest.raises(ValueError):
            imputation_metrics(truth, truth, scope="missing")
        with pytest.raises(ValueError):
            imputation_metrics(truth, truth, scope="non_anomalous")
        with pytest.raises(ValueError):
            imputation_metrics(truth, truth, scope="bogus")
        # missing scope with a full mask selects nothing
        with pytest.raises(ValueError):
            imputation_metrics(truth, truth, scope="missing",
                               mask=np.ones(truth.shape, bool))

    def test_non_anomalous_scope(self):
        truth = np.ones((2, 2, 2))
        estimate = truth.copy()
        estimate[0, 0, 0] = 100.0
        anom = np.zeros(truth.shape, bool)
        anom[0, 0, 0] = True
        out = imputation_metrics(truth, estimate, scope="non_anomalous",
                                 anomaly_truth=anom)
        assert out["rmse"] == 0.0
        assert out["n"] == 7

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            imputation_metrics(np.ones((2, 2, 2)), np.ones((2, 2, 3)))


def test_import_leaves_scipy_ndimage_unloaded():
    # block-mode scoring imports scipy.ndimage on first use, so a fresh
    # process that imports the package and its CLI never loads it
    src = os.path.dirname(os.path.dirname(os.path.abspath(tslto.__file__)))
    code = "import sys, tslto, tslto.cli; print('scipy.ndimage' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.strip() == "False"


def loop_block_counts(truth_mask, detected):
    """Reference block-mode counts: one scan of the unfolding per component."""
    det2 = unfold(detected, 1)
    truth2 = unfold(truth_mask, 1)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    det_labels, n_det = ndimage.label(det2, structure=structure)
    tp = fp = 0
    for lab in range(1, n_det + 1):
        if truth2[det_labels == lab].any():
            tp += 1
        else:
            fp += 1
    truth_labels, n_truth = ndimage.label(truth2, structure=structure)
    fn = 0
    for lab in range(1, n_truth + 1):
        if not det2[truth_labels == lab].any():
            fn += 1
    return tp, fp, fn


class TestDetectionMetrics:
    def test_exact_match(self):
        truth = np.zeros((3, 3, 3), bool)
        truth[1] = True
        r = truth.astype(float) * 4.0
        out = detection_metrics(truth, r)
        assert out == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_everything_flagged(self):
        # truth fraction p -> precision p, recall 1, F1 = 2p/(1+p)
        rng = np.random.default_rng(3)
        truth = rng.random((10, 10, 10)) < 0.098
        p = truth.mean()
        out = detection_metrics(truth, np.ones(truth.shape))
        assert out["precision"] == pytest.approx(p)
        assert out["recall"] == 1.0
        assert out["f1"] == pytest.approx(2 * p / (1 + p))

    def test_empty_detection_conventions(self):
        truth = np.zeros((2, 2, 2), bool)
        truth[0, 0, 0] = True
        out = detection_metrics(truth, np.zeros(truth.shape))
        assert out["precision"] == 1.0  # no positives -> convention
        assert out["recall"] == 0.0
        assert out["f1"] == 0.0

    def test_empty_truth_conventions(self):
        truth = np.zeros((2, 2, 2), bool)
        out = detection_metrics(truth, np.zeros(truth.shape))
        assert out["recall"] == 1.0
        out2 = detection_metrics(truth, np.ones(truth.shape))
        assert out2["precision"] == 0.0

    def test_entry_counting_oracle(self):
        rng = np.random.default_rng(4)
        truth = rng.random((6, 5, 4)) < 0.3
        r = rng.standard_normal(truth.shape) * (rng.random(truth.shape) < 0.4)
        out = detection_metrics(truth, r)
        det = r != 0
        tp = np.sum(det & truth)
        fp = np.sum(det & ~truth)
        fn = np.sum(~det & truth)
        assert out["precision"] == pytest.approx(tp / (tp + fp))
        assert out["recall"] == pytest.approx(tp / (tp + fn))

    def test_threshold(self):
        truth = np.zeros((2, 2, 2), bool)
        truth[0] = True
        r = np.zeros((2, 2, 2))
        r[0] = 0.5
        rule = DetectionRule(threshold=1.0)
        out = detection_metrics(truth, r, rule)
        assert out["recall"] == 0.0

    def test_block_mode(self):
        # two truth blocks in the mode-1 unfolding; detection hits one of
        # them and adds one spurious component
        truth2 = np.zeros((6, 12))
        truth2[0:2, 0:4] = 1
        truth2[4:6, 6:10] = 1
        det2 = np.zeros((6, 12))
        det2[0:2, 0:4] = 1     # hits the first block
        det2[3, 11] = 1        # spurious single entry
        dims = (6, 4, 3)
        truth = fold(truth2, 1, dims) != 0
        r = fold(det2, 1, dims)
        out = detection_metrics(truth, r, DetectionRule(mode="block"))
        # tp=1 component, fp=1, fn=1
        assert out["precision"] == pytest.approx(0.5)
        assert out["recall"] == pytest.approx(0.5)

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 7)] * 3),
           p_truth=st.floats(0, 1), p_det=st.floats(0, 1),
           seed=st.integers(0, 2**32 - 1))
    def test_block_mode_matches_loop_oracle(self, dims, p_truth, p_det, seed):
        rng = np.random.default_rng(seed)
        truth = rng.random(dims) < p_truth
        detected = rng.random(dims) < p_det
        tp, fp, fn = loop_block_counts(truth, detected)
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        out = detection_metrics(truth, detected.astype(float),
                                DetectionRule(mode="block"))
        assert out["precision"] == precision
        assert out["recall"] == recall
        assert all(type(v) is float for v in out.values())

    def test_invalid_rule(self):
        with pytest.raises(ValueError):
            detection_metrics(np.zeros((2, 2, 2), bool), np.zeros((2, 2, 2)),
                              DetectionRule(mode="pixel"))
        with pytest.raises(ValueError):
            detection_metrics(np.zeros((2, 2, 2), bool), np.zeros((2, 2, 2)),
                              DetectionRule(threshold=-1.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            detection_metrics(np.zeros((2, 2, 2), bool), np.zeros((2, 2, 3)))
