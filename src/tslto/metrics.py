"""Imputation accuracy (RMSE, MAPE, MAE) and anomaly-detection quality
(Precision, Recall, F1)."""

from dataclasses import dataclass

import numpy as np

from .tensor_ops import unfold

SCOPES = ("missing", "all", "non_anomalous")


@dataclass
class DetectionRule:
    mode: str = "entry"  # "entry" or "block"
    threshold: float = 0.0  # detect entries with |R| > threshold

    def validate(self):
        if self.mode not in ("entry", "block"):
            raise ValueError(f"unknown detection mode {self.mode!r}")
        if self.threshold < 0:
            raise ValueError("detection threshold must be nonnegative")


def check_scope(scope):
    """Raise ValueError unless scope is one of SCOPES."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")


def _scope_mask(scope, shape, mask, anomaly_truth):
    check_scope(scope)
    if scope == "all":
        return np.ones(shape, dtype=bool)
    if scope == "missing":
        if mask is None:
            raise ValueError("missing-only scope needs the observation mask")
        return ~np.asarray(mask, dtype=bool)
    if anomaly_truth is None:
        raise ValueError("non-anomalous scope needs the anomaly truth mask")
    return ~np.asarray(anomaly_truth, dtype=bool)


def imputation_metrics(truth, estimate, scope="all", mask=None, anomaly_truth=None):
    """RMSE, MAPE (percent) and MAE over the scoped entries.

    MAPE skips entries with |truth| < 1e-12; the skipped count is reported.
    Returns a dict with keys rmse, mape, mae, n, mape_skipped; mape is None
    when every scoped entry was skipped.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError("truth and estimate shapes differ")
    sel = _scope_mask(scope, truth.shape, mask, anomaly_truth)
    if not sel.any():
        raise ValueError(f"scope {scope!r} selects no entries")
    t = truth[sel]
    e = estimate[sel]
    err = t - e
    rmse = float(np.sqrt(np.mean(err**2)))
    mae = float(np.mean(np.abs(err)))
    nonzero = np.abs(t) >= 1e-12
    skipped = int(t.size - np.count_nonzero(nonzero))
    if nonzero.any():
        mape = float(np.mean(np.abs(err[nonzero] / t[nonzero])) * 100.0)
    else:
        mape = None
    return {"rmse": rmse, "mape": mape, "mae": mae, "n": int(t.size),
            "mape_skipped": skipped}


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if (tp + fp) > 0 else 1.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 1.0
    if precision + recall == 0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


def detection_metrics(truth_mask, r, rule=None):
    """Precision/Recall/F1 of the detected anomaly support against truth.

    Entry mode counts per entry.  Block mode groups detections into
    4-connected components of the mode-1 unfolding; a component is a true
    positive when it touches any truth entry, otherwise a false positive; a
    truth component touched by no detection is a false negative.
    """
    rule = rule or DetectionRule()
    rule.validate()
    truth_mask = np.asarray(truth_mask, dtype=bool)
    r = np.asarray(r, dtype=float)
    if truth_mask.shape != r.shape:
        raise ValueError("truth mask and anomaly tensor shapes differ")
    detected = np.abs(r) > rule.threshold
    if rule.mode == "entry":
        tp = int(np.count_nonzero(detected & truth_mask))
        fp = int(np.count_nonzero(detected & ~truth_mask))
        fn = int(np.count_nonzero(~detected & truth_mask))
        return _prf(tp, fp, fn)
    # imported on first use: scipy.ndimage roughly doubles the package's
    # import time and resident memory, and only block mode needs it
    from scipy import ndimage

    det2 = unfold(detected, 1)
    truth2 = unfold(truth_mask, 1)
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    det_labels, n_det = ndimage.label(det2, structure=structure)
    truth_labels, n_truth = ndimage.label(truth2, structure=structure)
    # labels of the components that touch the other support; 0 is background
    tp = int(np.count_nonzero(np.unique(det_labels[truth2])))
    hit = int(np.count_nonzero(np.unique(truth_labels[det2])))
    return _prf(tp, n_det - tp, n_truth - hit)
