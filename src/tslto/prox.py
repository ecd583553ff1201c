"""Closed-form proximal operators for the l0 and l2,0 penalties.

Both operators compare, per entry or per row, the cost of keeping the value
against the cost of zeroing it; ties at the threshold boundary resolve to
zero.
"""

import numpy as np


def _check_weight(t):
    t = float(t)
    if t < 0:
        raise ValueError(f"prox weight must be nonnegative, got {t}")
    return t


def hard_threshold_l0(x, t, out=None, scratch=None, lane=None):
    """Entrywise hard threshold: zero where x**2 <= 2*t, keep otherwise.

    Minimizes t * ||z||_0 + 0.5 * ||z - x||_F**2 entrywise.  out=x
    thresholds x in place.  scratch, a float array of x's shape, holds the
    comparison (1.0 where kept) instead of a new boolean array; x times it
    is bitwise x times the boolean.  A :class:`tslto.lanes.Lane` runs the
    passes in two halves of column-major arrays; it needs out and
    scratch.
    """
    t = _check_weight(t)
    x = np.asarray(x, dtype=float)
    if lane is None:
        return _keep_above(x, out, scratch, bound=2.0 * t)
    lane.split(_keep_above, x, out, scratch, bound=2.0 * t)
    return out


def _keep_above(x, out, scratch, bound):
    keep = np.greater(np.multiply(x, x, out=scratch), bound, out=scratch)
    return np.multiply(x, keep, out=out)


def group_hard_threshold_l20(m, t):
    """Row-wise hard threshold: zero rows with ||row||_2**2 <= 2*t.

    Minimizes t * ||Y||_{2,0} + 0.5 * ||Y - M||_F**2 row by row.
    """
    t = _check_weight(t)
    m = np.asarray(m, dtype=float)
    keep = np.einsum("ij,ij->i", m, m) > 2.0 * t
    out = np.zeros_like(m)
    out[keep] = m[keep]
    return out
