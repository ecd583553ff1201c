import numpy as np
import pytest

from tslto import (
    ScaleTransform,
    frobenius_norm,
    hosvd,
    scale_revert,
    scale_transform,
    select_rank,
    tucker_reconstruct,
    tucker_smooth,
    unfold,
)
from tslto.preprocess import observation_mask_from_zeros


def exact_rank_tensor(seed, dims, ranks):
    rng = np.random.default_rng(seed)
    g = rng.uniform(1, 10, size=ranks)
    us = [np.linalg.qr(rng.standard_normal((d, r)))[0]
          for d, r in zip(dims, ranks)]
    return tucker_reconstruct(g, *us)


def _svd_select_rank(x, theta):
    """select_rank from the squared singular values of a thin SVD."""
    ranks = []
    for mode in (1, 2, 3):
        sv2 = np.linalg.svd(unfold(x, mode), compute_uv=False) ** 2
        shares = np.cumsum(sv2) / np.sum(sv2)
        ranks.append(int(np.argmax(shares >= theta)) + 1)
    return tuple(ranks)


class TestSelectRank:
    @pytest.mark.parametrize("seed, dims, ranks", [
        (10, (10, 9, 8), (2, 3, 2)),
        (11, (8, 8, 8), (3, 3, 3)),
        (12, (12, 6, 9), (4, 2, 3)),
        (13, (30, 20, 25), (5, 1, 5)),
    ])
    def test_matches_svd_reference(self, seed, dims, ranks):
        x = exact_rank_tensor(seed, dims, ranks)
        for theta in (1e-9, 0.5, 0.95, 1 - 1e-12):
            assert select_rank(x, theta) == _svd_select_rank(x, theta), theta

    def test_exact_rank_recovery(self):
        # note r2 <= r1 * r3 must hold for a feasible multilinear rank
        x = exact_rank_tensor(0, (10, 9, 8), (2, 3, 2))
        assert select_rank(x, 1 - 1e-12) == (2, 3, 2)

    def test_tiny_theta(self):
        x = exact_rank_tensor(1, (8, 8, 8), (3, 3, 3))
        assert select_rank(x, 1e-9) == (1, 1, 1)

    def test_monotone_in_theta(self):
        for seed in range(20):
            x = np.random.default_rng(seed).standard_normal((7, 6, 5))
            prev = (0, 0, 0)
            for theta in (0.3, 0.6, 0.9, 0.99, 1.0):
                ranks = select_rank(x, theta)
                assert all(a >= b for a, b in zip(ranks, prev))
                prev = ranks

    def test_invalid_theta(self):
        x = np.ones((2, 2, 2))
        for theta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                select_rank(x, theta)

    def test_zero_tensor_rejected(self):
        with pytest.raises(ValueError):
            select_rank(np.zeros((3, 3, 3)))


class TestHosvdSmooth:
    def test_exact_truncation(self):
        x = exact_rank_tensor(2, (10, 9, 8), (2, 2, 2))
        out = tucker_smooth(x, (2, 2, 2))
        assert frobenius_norm(out - x) <= 1e-8 * frobenius_norm(x)

    def test_full_ranks_identity(self):
        x = np.random.default_rng(3).standard_normal((5, 4, 3))
        out = tucker_smooth(x, x.shape)
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_hosvd_core_shape_and_orthonormality(self):
        x = np.random.default_rng(4).standard_normal((6, 5, 4))
        core, factors = hosvd(x, (2, 3, 2))
        assert core.shape == (2, 3, 2)
        for u, r in zip(factors, (2, 3, 2)):
            np.testing.assert_allclose(u.T @ u, np.eye(r), atol=1e-12)

    def test_oversized_ranks_raise(self):
        with pytest.raises(ValueError):
            hosvd(np.ones((3, 3, 3)), (4, 2, 2))

    def test_truncation_never_beats_identity(self):
        x = np.random.default_rng(5).standard_normal((6, 6, 6))
        err2 = frobenius_norm(tucker_smooth(x, (2, 2, 2)) - x)
        err4 = frobenius_norm(tucker_smooth(x, (4, 4, 4)) - x)
        assert err4 <= err2 + 1e-12


class TestScaleTransform:
    def test_roundtrip_on_exact_rank_data(self):
        t = ScaleTransform(shift=20.0, core_scale=0.14, ranks=(2, 3, 2))
        x = exact_rank_tensor(6, (10, 9, 8), t.ranks) + t.shift
        back = scale_revert(scale_transform(x, t), t)
        np.testing.assert_allclose(back, x, atol=1e-8)

    def test_identity_settings(self):
        x = np.random.default_rng(7).standard_normal((5, 4, 3))
        t = ScaleTransform(shift=0.0, core_scale=1.0, ranks=(5, 4, 3))
        np.testing.assert_allclose(scale_transform(x, t), x, atol=1e-10)

    def test_scale_applied(self):
        t = ScaleTransform(shift=0.0, core_scale=0.5, ranks=(2, 2, 2))
        x = exact_rank_tensor(8, (8, 8, 8), t.ranks)
        np.testing.assert_allclose(scale_transform(x, t), 0.5 * x, atol=1e-8)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_transform(np.ones((3, 3, 3)),
                            ScaleTransform(core_scale=0.0, ranks=(1, 1, 1)))


class TestObservationMask:
    def test_zeros_are_missing(self):
        x = np.array([[[0.0, 1.0], [2.0, 0.0]]])
        mask = observation_mask_from_zeros(x)
        np.testing.assert_array_equal(mask, [[[False, True], [True, False]]])
