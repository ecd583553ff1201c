import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tslto import (
    fold,
    frobenius_norm,
    l0_count,
    l20_count,
    mode_n_product,
    project_observed,
    toeplitz_diff,
    toeplitz_diff_adjoint,
    tucker_reconstruct,
    unfold,
)
from tslto.tensor_ops import copy_where, frobenius_inner


def naive_unfold(x, mode):
    """Triple-loop oracle: row = index along `mode`, columns enumerate the
    remaining modes in ascending order with the earlier one varying fastest."""
    d1, d2, d3 = x.shape
    if mode == 1:
        out = np.empty((d1, d2 * d3))
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[i, j + k * d2] = x[i, j, k]
    elif mode == 2:
        out = np.empty((d2, d1 * d3))
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[j, i + k * d1] = x[i, j, k]
    else:
        out = np.empty((d3, d1 * d2))
        for i in range(d1):
            for j in range(d2):
                for k in range(d3):
                    out[k, i + j * d1] = x[i, j, k]
    return out


def naive_tucker(g, u1, u2, u3):
    """Quadruple-loop Tucker reconstruction oracle."""
    d1, d2, d3 = u1.shape[0], u2.shape[0], u3.shape[0]
    r1, r2, r3 = g.shape
    out = np.zeros((d1, d2, d3))
    for a in range(r1):
        for b in range(r2):
            for c in range(r3):
                out += g[a, b, c] * np.einsum(
                    "i,j,k->ijk", u1[:, a], u2[:, b], u3[:, c]
                )
    return out


class TestUnfoldFold:
    def test_degenerate_dims(self):
        np.testing.assert_array_equal(unfold(np.array([[[5.0]]]), 1), [[5.0]])
        np.testing.assert_array_equal(fold(np.array([[5.0]]), 1, (1, 1, 1)),
                                      [[[5.0]]])

    def test_mode1_hand_enumeration(self):
        x = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
        np.testing.assert_array_equal(
            unfold(x, 1), [[111, 121, 112, 122], [211, 221, 212, 222]]
        )

    def test_mode2_fold_reproduces_source(self):
        x = np.empty((2, 2, 2))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    x[i, j, k] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
        np.testing.assert_array_equal(fold(unfold(x, 2), 2, x.shape), x)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_naive_oracle(self, mode):
        x = np.random.default_rng(mode).standard_normal((3, 4, 5))
        np.testing.assert_array_equal(unfold(x, mode), naive_unfold(x, mode))

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_roundtrip_bit_identical(self, mode):
        x = np.random.default_rng(41).standard_normal((3, 4, 5))
        assert np.array_equal(fold(unfold(x, mode), mode, x.shape), x)

    @given(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=6),
        elements=st.floats(allow_nan=False),
    ), st.sampled_from([1, 2, 3]))
    def test_roundtrip_property(self, x, mode):
        m = unfold(x, mode)
        assert m.shape == (x.shape[mode - 1], x.size // x.shape[mode - 1])
        assert np.array_equal(fold(m, mode, x.shape), x)

    @given(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=3, max_dims=3, min_side=2,
                                     max_side=8),
        elements=st.floats(allow_nan=False),
    ), st.sampled_from("CF"), st.sampled_from([1, 2, 3]))
    def test_matches_moveaxis_spelling(self, x, order, mode):
        x = np.asarray(x, order=order)
        axis = mode - 1
        ref = np.moveaxis(x, axis, 0).reshape((x.shape[axis], -1), order="F")
        m = unfold(x, mode)
        assert np.array_equal(m, ref) and m.strides == ref.strides
        rest = [d for i, d in enumerate(x.shape) if i != axis]
        back = np.moveaxis(ref.reshape((x.shape[axis], *rest), order="F"),
                           0, axis)
        t = fold(m, mode, x.shape)
        assert np.array_equal(t, back) and t.strides == back.strides

    def test_kronecker_factor_identity(self):
        # unfold(G x1 U1 x2 U2 x3 U3, n) = U_n @ unfold(G, n) @ kron(...)^T
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 3, 4))
        u1 = rng.standard_normal((5, 2))
        u2 = rng.standard_normal((6, 3))
        u3 = rng.standard_normal((7, 4))
        x = tucker_reconstruct(g, u1, u2, u3)
        pairs = {1: (u3, u2), 2: (u3, u1), 3: (u2, u1)}
        us = {1: u1, 2: u2, 3: u3}
        for mode, (a, b) in pairs.items():
            np.testing.assert_allclose(
                unfold(x, mode),
                us[mode] @ unfold(g, mode) @ np.kron(a, b).T,
                atol=1e-12,
            )


class TestModeNProduct:
    def test_identity_matrix(self):
        x = np.random.default_rng(2).standard_normal((3, 4, 5))
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                mode_n_product(x, np.eye(x.shape[mode - 1]), mode), x, atol=1e-14
            )

    def test_ones_contraction(self):
        x = np.ones((2, 2, 2))
        out = mode_n_product(x, np.array([[1.0, 1.0]]), 1)
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 2.0))

    def test_matches_einsum_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 5))
        for mode, spec in ((1, "ai,ijk->ajk"), (2, "aj,ijk->iak"),
                           (3, "ak,ijk->ija")):
            u = rng.standard_normal((6, x.shape[mode - 1]))
            np.testing.assert_allclose(
                mode_n_product(x, u, mode), np.einsum(spec, u, x), atol=1e-12
            )


class TestTuckerReconstruct:
    def test_scalar_core_constant_tensor(self):
        g = np.full((1, 1, 1), 7.0)
        ones = [np.ones((d, 1)) for d in (2, 3, 4)]
        np.testing.assert_allclose(
            tucker_reconstruct(g, *ones), np.full((2, 3, 4), 7.0), atol=1e-14
        )

    def test_rank_one_placement(self):
        g = np.full((1, 1, 1), 2.0)
        u1 = np.array([[1.0], [0.0]])
        u2 = np.array([[0.0], [1.0]])
        u3 = np.array([[1.0], [1.0]])
        out = tucker_reconstruct(g, u1, u2, u3)
        expected = np.zeros((2, 2, 2))
        expected[0, 1, :] = 2.0
        np.testing.assert_array_equal(out, expected)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((2, 3, 2))
        u1, u2, u3 = (rng.standard_normal((d, r))
                      for d, r in ((4, 2), (5, 3), (6, 2)))
        np.testing.assert_allclose(
            tucker_reconstruct(g, u1, u2, u3), naive_tucker(g, u1, u2, u3),
            atol=1e-10,
        )

    def test_out_matches_allocating(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((2, 3, 2))
        u1, u2, u3 = (rng.standard_normal((d, r))
                      for d, r in ((4, 2), (5, 3), (6, 2)))
        out = np.empty((4, 5, 6), order="F")
        got = tucker_reconstruct(g, u1, u2, u3, out=out)
        assert got is out
        assert got.tobytes() == tucker_reconstruct(g, u1, u2, u3).tobytes()
        # the mode-3 unfolding of a row-major tensor is a copy, not a view
        with pytest.raises(ValueError, match="unfolding is a view"):
            tucker_reconstruct(g, u1, u2, u3, out=np.empty((4, 5, 6)))


class TestProjectObserved:
    def test_full_and_empty_mask(self):
        x = np.random.default_rng(6).standard_normal((2, 3, 4))
        np.testing.assert_array_equal(
            project_observed(x, np.ones(x.shape, bool)), x
        )
        np.testing.assert_array_equal(
            project_observed(x, np.zeros(x.shape, bool)), np.zeros(x.shape)
        )

    def test_case_definition(self):
        x = np.array([3.0, 7.0]).reshape(2, 1, 1)
        mask = np.array([True, False]).reshape(2, 1, 1)
        np.testing.assert_array_equal(
            project_observed(x, mask), np.array([3.0, 0.0]).reshape(2, 1, 1)
        )


class TestCopyWhere:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_np_where_bit_for_bit(self, order):
        rng = np.random.default_rng(9)
        shape = (5, 4, 3)
        dst = np.asarray(rng.standard_normal(shape), order=order)
        src = np.asarray(rng.standard_normal(shape), order=order)
        # NaN (with a payload), infinities and signed zeros on both sides
        flat_dst, flat_src = dst.ravel(order="A"), src.ravel(order="A")
        flat_dst[:6] = (np.nan, np.inf, -np.inf, -0.0, 0.0, -0.0)
        flat_src[:6] = (-0.0, np.nan, 0.0, np.inf, -0.0, 1.0)
        flat_src.view(np.int64)[6] = 0x7FF8000000000123
        mask = np.asarray(rng.random(shape) < 0.6, order=order)
        mask.ravel(order="A")[:7] = (True, True, False, True, False, True,
                                     True)
        want = np.where(mask, src, dst)
        src_bytes = src.tobytes()
        got = copy_where(dst, src, mask, np.empty(shape, order=order))
        assert got is dst
        assert got.tobytes() == want.tobytes()
        assert src.tobytes() == src_bytes


class TestToeplitzDiff:
    def test_constant_rows(self):
        np.testing.assert_array_equal(
            toeplitz_diff(np.ones((4, 3))), np.zeros((3, 3))
        )

    def test_hand_example(self):
        np.testing.assert_array_equal(
            toeplitz_diff(np.array([[1.0], [4.0], [9.0]])), [[-3.0], [-5.0]]
        )

    def test_adjoint_hand_example(self):
        np.testing.assert_array_equal(
            toeplitz_diff_adjoint(np.array([[1.0]])), [[1.0], [-1.0]]
        )

    def test_adjoint_zero(self):
        np.testing.assert_array_equal(
            toeplitz_diff_adjoint(np.zeros((3, 2))), np.zeros((4, 2))
        )

    def test_adjoint_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal((6, 3))
            y = rng.standard_normal((5, 3))
            lhs = np.vdot(toeplitz_diff(x), y)
            rhs = np.vdot(x, toeplitz_diff_adjoint(y))
            assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_out_matches_allocating(self, order):
        rng = np.random.default_rng(8)
        m = np.asarray(rng.standard_normal((6, 3)), order=order)
        for op, shape in ((toeplitz_diff, (5, 3)),
                          (toeplitz_diff_adjoint, (7, 3))):
            out = np.empty(shape, order=order)
            assert op(m, out=out) is out
            assert out.tobytes() == op(m).tobytes()


class TestNormsAndCounts:
    def test_zero_tensor(self):
        z = np.zeros((2, 2))
        assert frobenius_norm(z) == 0.0
        assert l0_count(z) == 0

    def test_frobenius_345(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_l20_count(self):
        m = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
        assert l20_count(m) == 1

    @pytest.mark.parametrize("order_a", ["C", "F"])
    @pytest.mark.parametrize("order_b", ["C", "F"])
    @pytest.mark.parametrize("shape", [(7, 5), (4, 3, 6)])
    def test_inner_matches_vdot(self, shape, order_a, order_b):
        rng = np.random.default_rng(8)
        a = np.asarray(rng.standard_normal(shape), order=order_a)
        b = np.asarray(rng.standard_normal(shape), order=order_b)
        expected = float(np.vdot(a, b))
        scale = frobenius_norm(a) * frobenius_norm(b)
        assert abs(frobenius_inner(a, b) - expected) <= 1e-14 * scale
        assert frobenius_inner(a, a) == pytest.approx(frobenius_norm(a) ** 2,
                                                     rel=1e-14)

    def test_l0_count(self):
        assert l0_count(np.array([0.0, 1.0, -2.0, 0.0])) == 2
