import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from tslto import group_hard_threshold_l20, hard_threshold_l0

MATRICES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
    elements=hst.floats(-1e3, 1e3),
)
WEIGHTS = hst.floats(0.0, 1e6)


def brute_force_l0(x, t):
    """Per entry, compare the two candidates {0, x} of t*||z||_0 + 0.5(z-x)^2;
    ties resolve to zero."""
    keep_cost = t + 0.0
    zero_cost = 0.5 * x * x
    return np.where(zero_cost <= keep_cost, 0.0, x)


def brute_force_l20(m, t):
    out = np.zeros_like(m)
    for j in range(m.shape[0]):
        row = m[j]
        if 0.5 * np.dot(row, row) > t:
            out[j] = row
    return out


class TestHardThresholdL0:
    def test_zero_weight_identity(self):
        x = np.random.default_rng(0).standard_normal((4, 5))
        np.testing.assert_array_equal(hard_threshold_l0(x, 0.0), x)

    def test_hand_examples(self):
        assert hard_threshold_l0(np.array(3.0), 4.0) == 3.0   # 9 > 8
        assert hard_threshold_l0(np.array(2.8), 4.0) == 0.0   # 7.84 <= 8

    def test_tie_resolves_to_zero(self):
        t = 2.0
        x = np.sqrt(2.0 * t)  # exactly on the boundary
        assert hard_threshold_l0(np.array(x), t) == 0.0
        assert hard_threshold_l0(np.array(-x), t) == 0.0

    def test_exhaustive_grid_matches_brute_force(self):
        xs = np.arange(-5.0, 5.0 + 1e-9, 0.1)
        cases = 0
        for t in (0.5, 2.0, 8.0):
            out = hard_threshold_l0(xs, t)
            np.testing.assert_array_equal(out, brute_force_l0(xs, t))
            cases += xs.size
        # plus a dense random sweep to clear 10^4 total comparisons
        rng = np.random.default_rng(1)
        x = rng.uniform(-5, 5, size=10_000)
        t = 2.0
        np.testing.assert_array_equal(hard_threshold_l0(x, t),
                                      brute_force_l0(x, t))
        assert cases + x.size >= 10_000

    def test_support_subset_of_input(self):
        x = np.array([0.0, 1.0, -3.0, 0.0])
        out = hard_threshold_l0(x, 0.4)
        assert np.all(out[x == 0] == 0)

    def test_monotone_in_t(self):
        x = np.random.default_rng(2).uniform(-4, 4, size=200)
        support = [set(np.flatnonzero(hard_threshold_l0(x, t)))
                   for t in (0.1, 1.0, 5.0)]
        assert support[2] <= support[1] <= support[0]

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            hard_threshold_l0(np.zeros(3), -1.0)

    @given(hst.one_of(MATRICES, MATRICES.map(np.asfortranarray)), WEIGHTS)
    def test_in_place_matches_allocating(self, x, t):
        # signed zeros included: a negative entry thresholded away is -0.0
        x[0, 0] = -0.0
        expected = hard_threshold_l0(x, t)
        # a float scratch for the comparison gives the same bytes
        scratched = hard_threshold_l0(x, t, scratch=np.empty_like(x))
        assert scratched.tobytes() == expected.tobytes()
        out = hard_threshold_l0(x, t, out=x)
        assert out is x
        assert out.tobytes(order="A") == expected.tobytes(order="A")
        np.testing.assert_array_equal(np.signbit(out), np.signbit(expected))


class TestGroupHardThresholdL20:
    def test_zero_weight_identity(self):
        m = np.random.default_rng(3).standard_normal((5, 4))
        np.testing.assert_array_equal(group_hard_threshold_l20(m, 0.0), m)

    def test_hand_example(self):
        m = np.array([[3.0, 4.0], [1.0, 1.0]])  # row norms^2: 25 and 2
        out = group_hard_threshold_l20(m, 2.0)
        np.testing.assert_array_equal(out, [[3.0, 4.0], [0.0, 0.0]])

    def test_row_tie_resolves_to_zero(self):
        m = np.array([[2.0, 0.0]])  # norm^2 = 4 = 2t at t=2
        np.testing.assert_array_equal(group_hard_threshold_l20(m, 2.0),
                                      [[0.0, 0.0]])

    def test_random_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            m = rng.standard_normal((6, 3))
            np.testing.assert_array_equal(
                group_hard_threshold_l20(m, 1.0), brute_force_l20(m, 1.0)
            )

    def test_zero_rows_stay_zero(self):
        m = np.array([[0.0, 0.0], [5.0, 5.0]])
        out = group_hard_threshold_l20(m, 0.3)
        np.testing.assert_array_equal(out[0], [0.0, 0.0])

    def test_monotone_in_t(self):
        m = np.random.default_rng(5).standard_normal((30, 3))
        kept = []
        for t in (0.1, 1.0, 4.0):
            out = group_hard_threshold_l20(m, t)
            kept.append(set(np.flatnonzero(np.any(out != 0, axis=1))))
        assert kept[2] <= kept[1] <= kept[0]

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            group_hard_threshold_l20(np.zeros((2, 2)), -0.5)


def l0_cost(z, x, t):
    """Entrywise t * [z != 0] + 0.5 * (z - x)**2."""
    return t * (z != 0) + 0.5 * (z - x) ** 2


def l20_cost(z, m, t):
    """Row-wise t * [row != 0] + 0.5 * ||row - m_row||**2."""
    return t * np.any(z != 0, axis=1) + 0.5 * np.sum((z - m) ** 2, axis=1)


class TestProxOptimality:
    """Each prox output costs no more than either candidate, zero or keep."""

    @settings(max_examples=200, deadline=None)
    @given(x=MATRICES, t=WEIGHTS, tie=hst.booleans(), data=hst.data())
    def test_l0_no_worse_than_zero_or_keep(self, x, t, tie, data):
        if tie:  # x**2 == 2t exactly at one entry
            i = data.draw(hst.integers(0, x.size - 1))
            t = x.flat[i] * x.flat[i] / 2
        cost = l0_cost(hard_threshold_l0(x, t), x, t)
        assert np.all(cost <= l0_cost(np.zeros_like(x), x, t))
        assert np.all(cost <= l0_cost(x, x, t))

    @settings(max_examples=200, deadline=None)
    @given(m=MATRICES, t=WEIGHTS, tie=hst.booleans(), data=hst.data())
    def test_l20_no_worse_than_zero_or_keep(self, m, t, tie, data):
        if tie:  # ||row||**2 == 2t at one row, up to summation order
            i = data.draw(hst.integers(0, m.shape[0] - 1))
            t = np.sum(m[i] ** 2) / 2
        cost = l20_cost(group_hard_threshold_l20(m, t), m, t)
        # the operator and this check may sum a row's squares in different
        # orders, so a tie can round either way by a few ulps
        slack = 1 + 1e-12
        assert np.all(cost <= l20_cost(np.zeros_like(m), m, t) * slack)
        assert np.all(cost <= l20_cost(m, m, t) * slack)
