import collections
import functools
import inspect
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from tslto import (
    SolverConfig,
    SolverDivergenceError,
    SolverState,
    SyntheticSpec,
    ablation_config,
    frobenius_norm,
    generate,
    hard_threshold_l0,
    init_state,
    project_observed,
    solve,
    toeplitz_diff,
    toeplitz_diff_adjoint,
    tucker_reconstruct,
    unfold,
)
from tslto import lanes
from tslto import solver as solver_module
from tslto.solver import (
    TraceRow,
    _r_gradient,
    _relative_change,
    admm_iteration,
    block_diff,
    block_diff_adjoint,
    check_convergence,
    double_diff,
    hosvd_factors,
    model_objective,
    update_G,
    update_L,
    update_R,
    update_U,
    update_X,
    update_Y,
    update_Z,
    update_multipliers,
)


def exact_tucker_tensor(seed, dims=(10, 9, 8), ranks=(2, 2, 2)):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0, 10, size=ranks)
    us = [np.linalg.qr(rng.standard_normal((d, r)))[0]
          for d, r in zip(dims, ranks)]
    return tucker_reconstruct(g, *us), g, us


class TestConfigValidation:
    def test_defaults_valid(self):
        SolverConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"beta": -1.0},
        {"mu1": -0.1},
        {"lam": (1.0, -1.0, 1.0)},
        {"alpha": (0.0, 1.0, 1.0)},
        {"gamma": 0.0},
        {"s": 0.0},
        {"growth": 0.9},
        {"prox_rho": 1.0},
        {"max_outer": 0},
        {"ranks": (3, 3)},
        {"ranks": (3, 0, 3)},
        {"penalty_cap": 0.0},
    ])
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()


def _two_slice_block_diff(m):
    d = m[:-1] - m[1:]
    return d[:, :-1] - d[:, 1:]


def _two_slice_toeplitz_diff_adjoint(m):
    rows = np.zeros((m.shape[0] + 1, m.shape[1]))
    rows[:-1] += m
    rows[1:] -= m
    return rows


def _two_slice_block_diff_adjoint(m):
    rows = _two_slice_toeplitz_diff_adjoint(m)
    out = np.zeros((rows.shape[0], rows.shape[1] + 1))
    out[:, :-1] += rows
    out[:, 1:] -= rows
    return out


def _matrices(min_side):
    """Row-major or column-major float matrices, min_side to 9 per side."""
    arrays = hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=min_side, max_side=9),
        elements=hst.floats(-1e6, 1e6),
    )
    return hst.one_of(arrays, arrays.map(np.asfortranarray))


# one row, and eight column-major rows (where numpy 2.4.6's np.negative with
# out= a strided row gives wrong values)
_ADJOINT_EXAMPLES = (
    np.arange(1.0, 6.0).reshape(1, 5),
    np.asfortranarray(np.arange(1.0, 6.0).reshape(1, 5)),
    np.asfortranarray(np.arange(1.0, 25.0).reshape(8, 3)),
)


def _with_examples(test):
    for m in _ADJOINT_EXAMPLES:
        test = example(m)(test)
    return test


class TestBlockDiff:
    def test_hand_example(self):
        m = np.array([[1.0, 2.0], [4.0, 8.0], [9.0, 18.0]])
        rows = m[:-1] - m[1:]
        expected = rows[:, :-1] - rows[:, 1:]
        np.testing.assert_array_equal(block_diff(m), expected)

    def test_constant_matrix(self):
        np.testing.assert_array_equal(block_diff(np.full((4, 5), 3.0)),
                                      np.zeros((3, 4)))

    @given(hst.integers(2, 12), hst.integers(2, 12), hst.integers(0, 2**32 - 1))
    def test_adjoint_identity(self, n, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c))
        y = rng.standard_normal((n - 1, c - 1))
        assert abs(np.vdot(block_diff(x), y)
                   - np.vdot(x, block_diff_adjoint(y))) <= 1e-12 * n * c

    @given(_matrices(min_side=2))
    def test_matches_two_slice_spelling(self, m):
        np.testing.assert_array_equal(block_diff(m), _two_slice_block_diff(m))

    @_with_examples
    @given(_matrices(min_side=1))
    def test_adjoint_matches_two_slice_spelling(self, m):
        np.testing.assert_array_equal(
            block_diff_adjoint(m), _two_slice_block_diff_adjoint(m)
        )

    @_with_examples
    @given(_matrices(min_side=1))
    def test_toeplitz_adjoint_matches_two_slice_spelling(self, m):
        np.testing.assert_array_equal(
            toeplitz_diff_adjoint(m), _two_slice_toeplitz_diff_adjoint(m)
        )


def _random_r_state(dims, seed):
    rng = np.random.default_rng(seed)
    d1, d2, d3 = dims
    zshape = (d1 - 1, d2 * d3 - 1)
    return SimpleNamespace(
        z=rng.standard_normal(zshape),
        w=rng.standard_normal(zshape),
        gamma=float(rng.uniform(0.5, 20.0)),
        x=rng.standard_normal(dims),
        l=rng.standard_normal(dims),
        p=rng.standard_normal(dims),
        s=float(rng.uniform(0.5, 20.0)),
    )


def _four_term_value(r, state):
    """The augmented-Lagrangian terms in R, without completing the square."""
    res_z = state.z - block_diff(unfold(r, 1))
    res_xlr = state.x - state.l - r
    return (
        float(np.vdot(res_z, state.w))
        + 0.5 * state.gamma * float(np.vdot(res_z, res_z))
        + float(np.vdot(res_xlr, state.p))
        + 0.5 * state.s * float(np.vdot(res_xlr, res_xlr))
    )


def _gradient_at(r, state):
    state.r = r
    return _r_gradient(state)


def _majorizer_excess(r, grad, out, lam, state):
    """f(out) minus the majorizer f(r) + <grad, out - r> + ||out - r||^2/(2 lam)
    of f = _four_term_value, with a tolerance for rounding."""
    delta = out - r
    f_r, f_out = _four_term_value(r, state), _four_term_value(out, state)
    bound = (f_r + float(np.vdot(grad, delta))
             + float(np.vdot(delta, delta)) / (2.0 * lam))
    return f_out - bound, 1e-10 * (1.0 + abs(f_r) + abs(f_out))


_r_dims = hst.tuples(hst.integers(2, 5), hst.integers(2, 5), hst.integers(1, 5))


class TestRSmooth:
    @settings(deadline=None)
    @given(_r_dims, hst.integers(0, 2**32 - 1))
    def test_gradient_matches_central_differences(self, dims, seed):
        state = _random_r_state(dims, seed)
        rng = np.random.default_rng(seed + 1)
        r = rng.standard_normal(dims)
        grad = _gradient_at(r, state)
        assert grad.shape == dims
        h = 1e-3
        for _ in range(3):
            d = rng.standard_normal(dims)
            fd = (_four_term_value(r + h * d, state)
                  - _four_term_value(r - h * d, state)) / (2 * h)
            assert abs(fd - float(np.vdot(grad, d))) <= 1e-6 * (1.0 + abs(fd))

    @settings(deadline=None)
    @given(_r_dims, hst.integers(0, 2**32 - 1))
    def test_quadratic_expansion(self, dims, seed):
        # the identity behind update_R's curvature test
        state = _random_r_state(dims, seed)
        rng = np.random.default_rng(seed + 1)
        r, delta = rng.standard_normal((2, *dims))
        grad = _gradient_at(r, state)
        f_r, f_next = _four_term_value(r, state), _four_term_value(r + delta, state)
        d_delta = block_diff(unfold(delta, 1))
        curvature = 0.5 * (state.gamma * float(np.vdot(d_delta, d_delta))
                           + state.s * float(np.vdot(delta, delta)))
        remainder = f_next - f_r - float(np.vdot(grad, delta))
        assert abs(remainder - curvature) <= 1e-10 * (
            1.0 + abs(f_r) + abs(f_next))

    @settings(deadline=None)
    @given(_r_dims, hst.integers(0, 2**32 - 1))
    def test_accepted_step_decreases_the_majorizer(self, dims, seed):
        state = _random_r_state(dims, seed)
        rng = np.random.default_rng(seed + 1)
        state.r = rng.standard_normal(dims)
        state.prox_lam = 10.0  # long enough to need halvings
        grad = _r_gradient(state)
        r = state.r
        out, lam = update_R(state, SolverConfig(mu1=0.1))
        excess, tol = _majorizer_excess(r, grad, out, lam, state)
        assert excess <= tol
        state.r = out  # as admm_iteration stores it
        np.testing.assert_allclose(
            double_diff(state), block_diff(unfold(out, 1)),
            rtol=1e-10, atol=1e-10 * (1.0 + np.abs(out).max()),
        )


def _problem_state(dims=(6, 5, 4)):
    y, _, _ = exact_tucker_tensor(26, dims=dims)
    return init_state(y, np.ones(y.shape, bool), SolverConfig(ranks=(2, 2, 2)))


class TestDoubleDiff:
    @pytest.mark.parametrize("make_state", [
        _problem_state,
        lambda: SimpleNamespace(r=np.zeros((6, 5, 4))),
    ])
    def test_follows_replaced_r(self, make_state):
        state = make_state()
        rng = np.random.default_rng(27)
        for _ in range(3):
            first = double_diff(state)
            np.testing.assert_array_equal(first, block_diff(unfold(state.r, 1)))
            assert double_diff(state) is first
            state.r = rng.standard_normal(state.r.shape)
            np.testing.assert_array_equal(
                double_diff(state), block_diff(unfold(state.r, 1))
            )


class TestLayout:
    def test_tensor_blocks_stay_column_major(self):
        # the criterion-6 instance, with y and mask column-major as solve()
        # passes them on
        inst = generate(SyntheticSpec(dims=(14, 12, 10), core_ranks=(2, 2, 2),
                                      block_count=4, block_cols=10,
                                      missing_rate=0.3, seed=3))
        y = np.asfortranarray(project_observed(inst.full, inst.mask))
        mask = np.asfortranarray(inst.mask)
        cfg = SolverConfig(ranks=(2, 2, 2), max_outer=10, eps=1e-12)
        state = init_state(y, mask, cfg)
        state.iter = 1
        admm_iteration(state, mask, cfg)
        for name in ("x", "l", "r", "p", "z", "w"):
            assert getattr(state, name).flags.f_contiguous, name


class TestInitState:
    def test_zero_tensor(self):
        y = np.zeros((6, 5, 4))
        mask = np.ones(y.shape, bool)
        st = init_state(y, mask, SolverConfig(ranks=(2, 2, 2)))
        for block in (st.x, st.l, st.r, st.g, st.z, st.p, st.w):
            np.testing.assert_array_equal(block, np.zeros_like(block))

    def test_exact_rank_reconstruction(self):
        y, _, _ = exact_tucker_tensor(1)
        st = init_state(y, np.ones(y.shape, bool), SolverConfig(ranks=(2, 2, 2)))
        recon = tucker_reconstruct(st.g, st.u1, st.u2, st.u3)
        assert frobenius_norm(recon - y) <= 1e-8 * frobenius_norm(y)

    def test_partial_mask_zero_fill(self):
        y, _, _ = exact_tucker_tensor(2)
        mask = np.random.default_rng(3).random(y.shape) < 0.5
        st = init_state(y, mask, SolverConfig(ranks=(2, 2, 2)))
        assert np.all(st.x[~mask] == 0)
        np.testing.assert_array_equal(st.x[mask], y[mask])

    def test_empty_mask_raises(self):
        y = np.ones((4, 4, 4))
        with pytest.raises(ValueError):
            init_state(y, np.zeros(y.shape, bool), SolverConfig(ranks=(2, 2, 2)))

    @pytest.mark.parametrize("dims", [(6, 1, 5), (1, 4, 4), (4, 4, 1)])
    def test_mode_of_size_one_raises(self, dims):
        with pytest.raises(ValueError) as exc:
            init_state(np.ones(dims), np.ones(dims, bool),
                       SolverConfig(ranks=(1, 1, 1)))
        assert str(dims) in str(exc.value)

    def test_non_finite_observed_entries_raise(self):
        y = np.ones((4, 4, 4))
        y[0, 0, 0] = np.nan
        y[1, 2, 3] = np.inf
        y[3, 3, 3] = np.nan  # off the mask: never read
        mask = np.ones(y.shape, bool)
        mask[3, 3, 3] = False
        with pytest.raises(ValueError, match="2 observed entries are not finite"):
            init_state(y, mask, SolverConfig(ranks=(2, 2, 2)))

    def test_ranks_exceed_dims_raises(self):
        y = np.ones((4, 4, 4))
        with pytest.raises(ValueError):
            init_state(y, np.ones(y.shape, bool), SolverConfig(ranks=(5, 2, 2)))


class TestUpdateX:
    def test_full_mask(self):
        y, _, _ = exact_tucker_tensor(4)
        mask = np.ones(y.shape, bool)
        st = init_state(y, mask, SolverConfig(ranks=(2, 2, 2)))
        np.testing.assert_array_equal(update_X(st, y, mask), y)

    def test_unobserved_scalar(self):
        st = SimpleNamespace(l=np.full((1, 1, 1), 2.0),
                             r=np.full((1, 1, 1), 1.0),
                             p=np.full((1, 1, 1), 3.0), s=3.0)
        mask = np.zeros((1, 1, 1), bool)
        out = update_X(st, np.zeros((1, 1, 1)), mask)
        np.testing.assert_allclose(out, 2.0)  # 2 + 1 - 3/3

    def test_projection_invariant(self):
        y, _, _ = exact_tucker_tensor(5)
        rng = np.random.default_rng(6)
        mask = rng.random(y.shape) < 0.6
        st = init_state(y, mask, SolverConfig(ranks=(2, 2, 2)))
        st.l = rng.standard_normal(y.shape)
        st.r = rng.standard_normal(y.shape)
        st.p = rng.standard_normal(y.shape)
        x = update_X(st, y, mask)
        assert np.array_equal(x[mask], y[mask])

    def test_non_finite_off_a_row_major_mask_matches_where(self):
        y, _, _ = exact_tucker_tensor(5)
        rng = np.random.default_rng(7)
        mask = rng.random(y.shape) < 0.6
        assert mask.flags.c_contiguous and not mask.flags.f_contiguous
        y = np.where(mask, y, np.nan)
        y[tuple(np.argwhere(~mask)[0])] = np.inf
        y[tuple(np.argwhere(~mask)[1])] = -np.inf
        st = SimpleNamespace(l=rng.standard_normal(y.shape),
                             r=rng.standard_normal(y.shape),
                             p=rng.standard_normal(y.shape), s=1.7)
        want = np.where(mask, y, st.l + st.r - st.p / st.s)
        assert update_X(st, y, mask).tobytes() == want.tobytes()


class TestUpdateG:
    def test_recovers_exact_core(self):
        y, g_star, us = exact_tucker_tensor(7)
        st = SimpleNamespace(l=y, u1=us[0], u2=us[1], u3=us[2])
        np.testing.assert_allclose(update_G(st), g_star, atol=1e-10)

    def test_zero_l(self):
        _, _, us = exact_tucker_tensor(8)
        st = SimpleNamespace(l=np.zeros((10, 9, 8)),
                             u1=us[0], u2=us[1], u3=us[2])
        np.testing.assert_array_equal(update_G(st), np.zeros((2, 2, 2)))

    def test_minimizes_tucker_fit(self):
        # perturbing the returned core can only increase the fit error
        rng = np.random.default_rng(9)
        _, _, us = exact_tucker_tensor(9)
        l = rng.standard_normal((10, 9, 8))
        st = SimpleNamespace(l=l, u1=us[0], u2=us[1], u3=us[2])
        g = update_G(st)
        best = frobenius_norm(tucker_reconstruct(g, *us) - l)
        for _ in range(5):
            trial = g + 0.01 * rng.standard_normal(g.shape)
            assert frobenius_norm(tucker_reconstruct(trial, *us) - l) >= best


class TestUpdateU:
    def test_stationary_point_unchanged(self):
        y, g_star, us = exact_tucker_tensor(10)
        cfg = SolverConfig(ranks=(2, 2, 2))
        st = init_state(y, np.ones(y.shape, bool), cfg)
        st.u1, st.u2, st.u3 = us
        st.g = g_star
        st.l = y
        st.y1, st.y2, st.y3 = (toeplitz_diff(u) for u in us)
        st.v1, st.v2, st.v3 = (np.zeros((u.shape[0] - 1, u.shape[1]))
                               for u in us)
        u1, u2, u3 = update_U(st, cfg)
        np.testing.assert_array_equal(u1, us[0])
        np.testing.assert_array_equal(u2, us[1])
        np.testing.assert_array_equal(u3, us[2])

    def test_descends_and_stays_feasible(self):
        y, _, _ = exact_tucker_tensor(11)
        cfg = SolverConfig(ranks=(2, 2, 2))
        st = init_state(y, np.ones(y.shape, bool), cfg)
        st.l = y + 0.1 * np.random.default_rng(12).standard_normal(y.shape)
        for u in update_U(st, cfg):
            assert frobenius_norm(u.T @ u - np.eye(u.shape[1])) <= 1e-8


class TestUpdateR:
    def _fixed_point_state(self):
        r = np.zeros((2, 2, 2))
        r[0, 0, 0] = 10.0
        r[1, 1, 1] = -10.0
        return SimpleNamespace(
            r=r,
            z=block_diff(unfold(r, 1)),
            w=np.zeros((1, 3)),
            gamma=10.0,
            p=np.zeros((2, 2, 2)),
            s=1.0,
            x=np.full((2, 2, 2), 5.0) + r,
            l=np.full((2, 2, 2), 5.0),
            prox_lam=0.5,
        )

    def test_fixed_point_unchanged(self):
        st = self._fixed_point_state()
        cfg = SolverConfig(mu1=5.0)
        out, lam = update_R(st, cfg)
        np.testing.assert_array_equal(out, st.r)
        assert lam == st.prox_lam

    def test_total_thresholding(self):
        r = np.ones((2, 2, 2))
        st = SimpleNamespace(
            r=r, z=np.zeros((1, 3)), w=np.zeros((1, 3)), gamma=10.0,
            p=np.zeros((2, 2, 2)), s=1.0, x=r.copy(), l=np.zeros((2, 2, 2)),
            prox_lam=1.0,
        )
        out, _ = update_R(st, SolverConfig(mu1=10.0))
        np.testing.assert_array_equal(out, np.zeros((2, 2, 2)))

    @settings(deadline=None)
    @given(_r_dims, hst.integers(0, 2**32 - 1))
    def test_accepted_step_is_the_first_that_majorizes(self, dims, seed):
        state = _random_r_state(dims, seed)
        state.r = np.random.default_rng(seed + 1).standard_normal(dims)
        state.prox_lam = 10.0
        cfg = SolverConfig(mu1=0.1)
        r = state.r
        grad = _r_gradient(state)
        out, lam = update_R(state, cfg)
        excess, tol = _majorizer_excess(r, grad, out, lam, state)
        assert excess <= tol
        # s >= 0.5 > 1 / prox_lam: the first trial step is too long
        assert lam < state.prox_lam
        longer = lam / cfg.prox_rho
        rejected = hard_threshold_l0(r - longer * grad, longer * cfg.mu1)
        excess, tol = _majorizer_excess(r, grad, rejected, longer, state)
        assert excess > -tol  # violated, up to rounding

    def test_exhausted_line_search_raises(self):
        # a step of 1e30 halved 50 times is still far too long to accept
        st = _random_r_state((4, 3, 3), 5)
        st.r = np.zeros((4, 3, 3), order="F")
        st.prox_lam = 1e30
        with pytest.raises(SolverDivergenceError, match="exhausted 50 halvings"):
            update_R(st, SolverConfig())


class TestUpdateL:
    def test_scalar_blend(self):
        # beta=1, s=1, P=0, reconstruction 4, X-R = 2 -> L = 3
        st = SimpleNamespace(
            g=np.full((1, 1, 1), 4.0),
            u1=np.ones((1, 1)), u2=np.ones((1, 1)), u3=np.ones((1, 1)),
            x=np.full((1, 1, 1), 2.0), r=np.zeros((1, 1, 1)),
            p=np.zeros((1, 1, 1)), s=1.0,
        )
        np.testing.assert_allclose(update_L(st, SolverConfig(beta=1.0)), 3.0)

    def test_pure_fit_limit(self):
        y, g_star, us = exact_tucker_tensor(13)
        st = SimpleNamespace(g=g_star, u1=us[0], u2=us[1], u3=us[2],
                             x=np.zeros(y.shape), r=np.zeros(y.shape),
                             p=np.zeros(y.shape), s=0.0)
        np.testing.assert_allclose(update_L(st, SolverConfig(beta=2.0)), y,
                                   atol=1e-12)

    def test_pure_feasibility_limit(self):
        y, g_star, us = exact_tucker_tensor(14)
        target = np.random.default_rng(15).standard_normal(y.shape)
        st = SimpleNamespace(g=g_star, u1=us[0], u2=us[1], u3=us[2],
                             x=target, r=np.zeros(y.shape),
                             p=np.zeros(y.shape), s=1.0)
        np.testing.assert_allclose(update_L(st, SolverConfig(beta=0.0)),
                                   target, atol=1e-12)


class TestUpdateYZ:
    def test_zero_lam_passthrough(self):
        rng = np.random.default_rng(16)
        us = [np.linalg.qr(rng.standard_normal((d, 2)))[0] for d in (6, 5, 4)]
        vs = [rng.standard_normal((d - 1, 2)) for d in (6, 5, 4)]
        st = SimpleNamespace(factors=tuple(us), v1=vs[0], v2=vs[1], v3=vs[2],
                             alpha=np.array([2.0, 3.0, 4.0]))
        out = update_Y(st, SolverConfig(lam=(0.0, 0.0, 0.0)))
        for y, u, v, a in zip(out, us, vs, st.alpha):
            np.testing.assert_allclose(y, toeplitz_diff(u) - v / a, atol=1e-12)

    def test_repeated_rows_zeroed(self):
        u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        st = SimpleNamespace(factors=(u, u, u),
                             v1=np.zeros((3, 2)), v2=np.zeros((3, 2)),
                             v3=np.zeros((3, 2)),
                             alpha=np.array([100.0, 100.0, 100.0]))
        y1, _, _ = update_Y(st, SolverConfig(lam=(1.2, 1.2, 1.2)))
        np.testing.assert_array_equal(y1[0], [0.0, 0.0])
        np.testing.assert_array_equal(y1[2], [0.0, 0.0])

    def test_zero_mu2_passthrough(self):
        rng = np.random.default_rng(17)
        r = rng.standard_normal((4, 3, 3))
        w = rng.standard_normal((3, 8))
        st = SimpleNamespace(r=r, z=np.zeros_like(w), w=w, gamma=5.0)
        np.testing.assert_allclose(
            update_Z(st, SolverConfig(mu2=0.0)),
            block_diff(unfold(r, 1)) - w / 5.0, atol=1e-12,
        )

    def test_constant_anomaly_zero_z(self):
        st = SimpleNamespace(r=np.full((4, 3, 3), 2.5), z=np.ones((3, 8)),
                             w=np.zeros((3, 8)), gamma=5.0)
        np.testing.assert_array_equal(update_Z(st, SolverConfig(mu2=20.0)),
                                      np.zeros((3, 8)))


class TestMultipliers:
    def test_scalar_ascent(self):
        # V=1, alpha=2, residual Y - TU = 3 -> V+ = 7
        u = np.array([[1.0], [0.0]])
        r = np.zeros((2, 2, 2))
        st = SimpleNamespace(
            u1=u, u2=u, u3=u,
            y1=toeplitz_diff(u) + 3.0, y2=toeplitz_diff(u),
            y3=toeplitz_diff(u),
            v1=np.ones((1, 1)), v2=np.zeros((1, 1)), v3=np.zeros((1, 1)),
            alpha=np.array([2.0, 2.0, 2.0]),
            z=np.zeros((1, 3)), w=np.zeros((1, 3)), gamma=1.0,
            r=r, x=np.full((2, 2, 2), 4.0), l=np.full((2, 2, 2), 1.0),
            p=np.zeros((2, 2, 2)), s=3.0,
        )
        v1, v2, _, w, p = update_multipliers(st)
        np.testing.assert_allclose(v1, [[7.0]])
        np.testing.assert_allclose(v2, [[0.0]])
        np.testing.assert_allclose(w, np.zeros((1, 3)))
        np.testing.assert_allclose(p, np.full((2, 2, 2), 9.0))  # 0 + 3*(4-1)

    def test_zero_residuals_unchanged(self):
        y, _, _ = exact_tucker_tensor(18)
        st = init_state(y, np.ones(y.shape, bool), SolverConfig(ranks=(2, 2, 2)))
        st.l = st.x - st.r
        st.z = block_diff(unfold(st.r, 1))
        st.y1, st.y2, st.y3 = (toeplitz_diff(u) for u in st.factors)
        v1, v2, v3, w, p = update_multipliers(st)
        np.testing.assert_array_equal(v1, st.v1)
        np.testing.assert_array_equal(v2, st.v2)
        np.testing.assert_array_equal(v3, st.v3)
        np.testing.assert_array_equal(w, st.w)
        np.testing.assert_array_equal(p, st.p)


def _changes(prev_blocks, cur_blocks):
    return [_relative_change(p, c) for p, c in zip(prev_blocks, cur_blocks)]


class TestWithoutWorkspace:
    def test_updates_write_nothing_into_the_state(self):
        # without a workspace each update allocates its result: the state,
        # and the D R kept for it, are left bit for bit as they were
        y, _, _ = exact_tucker_tensor(28, dims=(7, 6, 5))
        mask = np.random.default_rng(29).random(y.shape) < 0.7
        cfg = SolverConfig(ranks=(2, 2, 2), mu1=0.5)
        st = init_state(project_observed(y, mask), mask, cfg)
        rng = np.random.default_rng(30)
        for name in ("r", "z", "w", "p"):
            block = getattr(st, name)
            setattr(st, name, np.asfortranarray(
                rng.standard_normal(block.shape)))
        held = [a for a in vars(st).values() if isinstance(a, np.ndarray)]
        held.append(double_diff(st))
        before = [a.copy() for a in held]
        returned = [update_X(st, st.x, mask), update_G(st),
                    *update_U(st, cfg), update_R(st, cfg)[0],
                    update_L(st, cfg), *update_Y(st, cfg), update_Z(st, cfg),
                    *update_multipliers(st)]
        st.residuals()
        model_objective(st, cfg)
        assert st.work is None
        for a, copy in zip(held, before):
            assert a.tobytes() == copy.tobytes()
        for out in returned:
            assert not any(np.shares_memory(out, a) for a in held)


class TestConvergence:
    def test_identical_states(self):
        blocks = tuple(np.random.default_rng(19).standard_normal((3, 3, 3))
                       for _ in range(4))
        assert check_convergence(_changes(blocks, blocks), 1e-12)

    def test_ten_percent_change(self):
        x = np.ones((3, 3, 3))
        prev = (x, x, x, x)
        cur = (1.1 * x, x, x, x)
        assert not check_convergence(_changes(prev, cur), 1e-4)

    def test_small_r_change_passes(self):
        x = np.ones((3, 3, 3))
        prev = (x, x, x, x)
        cur = (x, x, x, (1 + 5e-5) * x)
        assert check_convergence(_changes(prev, cur), 1e-4)

    def test_zero_norm_fallback(self):
        z = np.zeros((2, 2, 2))
        assert check_convergence(_changes((z,), (z,)), 1e-8)
        assert _relative_change(z, z + 1.0) == np.sqrt(8.0)
        assert not check_convergence(_changes((z,), (z + 1.0,)), 1e-8)


def _reference_stops(y, mask, cfg, trace_every):
    """Stop decisions of the loop spelled out: it keeps the previous X, G, L
    and R through the iteration and compares them afterwards.  Returns the
    (iter, rel_x, rel_g, rel_l, rel_r) rows at solve's trace iterations,
    the iteration count, whether the loop converged, and the final X, L
    and R."""
    mask = np.asfortranarray(mask, dtype=bool)
    y = np.asfortranarray(y, dtype=float)
    state = init_state(y, mask, cfg)
    rows = []
    for k in range(1, cfg.max_outer + 1):
        state.iter = k
        prev = (state.x, state.g, state.l, state.r)
        state.x = update_X(state, y, mask)
        state.g = update_G(state)
        state.u1, state.u2, state.u3 = update_U(state, cfg)
        state.r, state.prox_lam = update_R(state, cfg)
        state.l = update_L(state, cfg)
        state.y1, state.y2, state.y3 = update_Y(state, cfg)
        state.z = update_Z(state, cfg)
        (state.v1, state.v2, state.v3,
         state.w, state.p) = update_multipliers(state)
        changes = _changes(prev, (state.x, state.g, state.l, state.r))
        converged = k > 1 and all(c < cfg.eps for c in changes)
        if k % trace_every == 0 or k == 1 or converged or k == cfg.max_outer:
            rows.append((k, *changes))
        if converged:
            break
        state.alpha = np.minimum(state.alpha * cfg.growth, cfg.penalty_cap)
        state.gamma = min(state.gamma * cfg.growth, cfg.penalty_cap)
        state.s = min(state.s * cfg.growth, cfg.penalty_cap)
    return rows, k, converged, (state.x, state.l, state.r)


class TestSolve:
    def test_huge_eps_stops_at_two(self):
        y, _, _ = exact_tucker_tensor(20, dims=(8, 8, 8))
        res = solve(y, np.ones(y.shape, bool),
                    SolverConfig(ranks=(2, 2, 2), eps=1.0, max_outer=50))
        assert res.converged
        assert res.iterations == 2

    def test_exact_recovery_small(self):
        y, _, _ = exact_tucker_tensor(21, dims=(12, 12, 12))
        res = solve(y, np.ones(y.shape, bool),
                    SolverConfig(ranks=(2, 2, 2), max_outer=200))
        assert frobenius_norm(res.x - y) <= 1e-3 * frobenius_norm(y)
        assert frobenius_norm(res.r) <= 1e-6 * frobenius_norm(y)

    def test_partial_observation_completes(self):
        y, _, _ = exact_tucker_tensor(22, dims=(14, 14, 14))
        mask = np.random.default_rng(23).random(y.shape) < 0.7
        res = solve(project_observed(y, mask), mask,
                    SolverConfig(ranks=(2, 2, 2), max_outer=300))
        rel = frobenius_norm(res.x - y) / frobenius_norm(y)
        assert rel <= 0.05

    def test_trace_rows(self):
        y, _, _ = exact_tucker_tensor(24, dims=(8, 8, 8))
        # 20 is a multiple of trace_every; trace_every=1 traces every iteration
        for max_outer, every in ((25, 10), (20, 10), (12, 1)):
            res = solve(y, np.ones(y.shape, bool),
                        SolverConfig(ranks=(2, 2, 2), max_outer=max_outer,
                                     eps=1e-12),
                        trace_every=every)
            iters = [row.iter for row in res.trace]
            n = res.iterations
            assert iters == sorted({1, n, *range(every, n + 1, every)})
            assert all(isinstance(row, TraceRow) and len(row) == 9
                       for row in res.trace)
            last = res.trace[-1]
            assert res.objective == last.objective
            assert res.residuals == (last.res_y, last.res_z, last.res_xlr)

    def test_final_state_evaluated_once(self, monkeypatch):
        calls = {"objective": 0, "residuals": 0}
        residuals = SolverState.residuals

        def counting_objective(state, cfg):
            calls["objective"] += 1
            return model_objective(state, cfg)

        def counting_residuals(state):
            calls["residuals"] += 1
            return residuals(state)

        monkeypatch.setattr("tslto.solver.model_objective", counting_objective)
        monkeypatch.setattr(SolverState, "residuals", counting_residuals)
        y, _, _ = exact_tucker_tensor(24, dims=(8, 8, 8))
        mask = np.ones(y.shape, bool)
        cfg = SolverConfig(ranks=(2, 2, 2), max_outer=25, eps=1e-12)
        res = solve(y, mask, cfg, trace_every=10)
        assert res.iterations == 25 and len(res.trace) == 4
        assert calls == {"objective": 4, "residuals": 4}
        last = res.trace[-1]
        assert res.objective == last.objective
        assert res.residuals == (last.res_y, last.res_z, last.res_xlr)
        # without trace rows the result evaluates the final state itself
        calls.update(objective=0, residuals=0)
        untraced = solve(y, mask, cfg)
        assert calls == {"objective": 1, "residuals": 1}
        assert untraced.objective == res.objective
        assert untraced.residuals == res.residuals

    @pytest.mark.parametrize("eps, max_outer, off_mask", [
        (1e-2, 200, None),  # meets eps at iteration 34
        (1e-12, 20, np.nan),  # NaN and one inf off the mask
    ])
    def test_same_stop_decisions_as_the_spelled_out_loop(self, eps, max_outer,
                                                         off_mask):
        inst = generate(SyntheticSpec(dims=(20, 20, 20), block_count=10,
                                      block_cols=40, missing_rate=0.3, seed=4))
        if off_mask is None:
            y = project_observed(inst.full, inst.mask)
        else:
            y = np.where(inst.mask, inst.full, off_mask)
            y[tuple(np.argwhere(~inst.mask)[0])] = np.inf
        cfg = SolverConfig(max_outer=max_outer, eps=eps)
        res = solve(y, inst.mask, cfg, trace_every=3)
        rows, iterations, converged, blocks = _reference_stops(
            y, inst.mask, cfg, 3)
        assert (res.iterations, res.converged) == (iterations, converged)
        assert converged == (off_mask is None)
        got = [(row.iter, row.rel_x, row.rel_g, row.rel_l, row.rel_r)
               for row in res.trace]
        # bitwise: equal floats, not approximately equal ones
        assert got == rows
        # solve writes into its workspace and X only off the mask; the
        # spelled-out loop allocates every block
        for got_block, want in zip((res.x, res.l, res.r), blocks):
            assert np.array_equal(got_block, want)

    def test_holds_only_live_tensors(self):
        # A solve holds X, L, R, P, Z, W and D R, plus its workspace: the
        # spare tensor, R's gradient and two scratch buffers, 11
        # tensor-sized arrays, and the column-major mask (an eighth of a
        # tensor), whatever the missing rate.  Trace rows and the final
        # evaluation write into the workspace.  y is row-major, so a solve
        # that kept a column-major copy of it would hold one more.
        for missing_rate in (0.3, 0.8):
            inst = generate(SyntheticSpec(dims=(60, 50, 40), block_count=10,
                                          block_cols=40,
                                          missing_rate=missing_rate, seed=1))
            y = project_observed(inst.full, inst.mask)
            assert y.flags.c_contiguous and not y.flags.f_contiguous
            cfg = SolverConfig(max_outer=6)
            tracing = tracemalloc.is_tracing()
            if not tracing:
                tracemalloc.start()
            try:
                for trace_every in (0, 1):
                    tracemalloc.reset_peak()
                    start = tracemalloc.get_traced_memory()[0]
                    res = solve(y, inst.mask, cfg, trace_every=trace_every)
                    peak = tracemalloc.get_traced_memory()[1]
                    assert res.iterations == 6
                    held = (peak - start) / y.nbytes
                    assert held <= 11.5, (missing_rate, trace_every)
                    del res
            finally:
                if not tracing:
                    tracemalloc.stop()

    def test_steady_iteration_allocates_no_tensor(self):
        # From the second iteration on, every block writes into the
        # workspace or into itself: no tensor-sized array is allocated, so
        # none is freed and the heap neither grows nor shrinks.
        inst = generate(SyntheticSpec(dims=(60, 50, 40), block_count=10,
                                      block_cols=40, missing_rate=0.3, seed=1))
        y = project_observed(inst.full, inst.mask)
        cfg = SolverConfig(max_outer=6)
        state = init_state(y, inst.mask, cfg)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for k in range(1, cfg.max_outer + 1):
                state.iter = k
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                admm_iteration(state, inst.mask, cfg)
                end, peak = tracemalloc.get_traced_memory()
                if k >= 3:
                    assert (peak - start) / y.nbytes < 0.5, k
                    # up to small objects that await the cycle collector
                    assert abs(end - start) / y.nbytes < 0.01, k
                state.alpha = np.minimum(state.alpha * cfg.growth,
                                         cfg.penalty_cap)
                state.gamma = min(state.gamma * cfg.growth, cfg.penalty_cap)
                state.s = min(state.s * cfg.growth, cfg.penalty_cap)
        finally:
            if not tracing:
                tracemalloc.stop()

    def test_non_finite_state_raises(self, monkeypatch):
        monkeypatch.setattr("tslto.solver.update_L",
                            lambda state, cfg: np.full(state.l.shape, np.nan))
        y, _, _ = exact_tucker_tensor(25, dims=(6, 6, 6))
        with pytest.raises(SolverDivergenceError,
                           match="non-finite state at outer iteration 1"):
            solve(y, np.ones(y.shape, bool), SolverConfig(ranks=(2, 2, 2)))

    def test_one_infinite_entry_raises(self, monkeypatch):
        # the entrywise check runs only when the relative change is not
        # finite; one inf in G must still make it so
        def update_G(state):
            g = tucker_reconstruct(state.l, state.u1.T, state.u2.T, state.u3.T)
            if state.iter == 3:
                g[0, 1, 0] = np.inf
            return g

        monkeypatch.setattr("tslto.solver.update_G", update_G)
        y, _, _ = exact_tucker_tensor(25, dims=(6, 6, 6))
        with pytest.raises(SolverDivergenceError,
                           match="non-finite state at outer iteration 3"):
            solve(y, np.ones(y.shape, bool),
                  SolverConfig(ranks=(2, 2, 2), eps=1e-30))

    def test_non_finite_unobserved_entries_stay_out_of_the_state(self):
        # update_X merges with a bit select (copy_where), so NaN and inf off
        # the mask never reach X; an arithmetic merge (free * ~mask
        # + y * mask) would carry NaN * 0 = NaN into the state
        inst = generate(SyntheticSpec(dims=(20, 20, 20), block_count=10,
                                      block_cols=40, missing_rate=0.3, seed=4))
        y = np.where(inst.mask, inst.full, np.nan)
        y[tuple(np.argwhere(~inst.mask)[0])] = np.inf
        res = solve(y, inst.mask, SolverConfig(max_outer=20, eps=1e-12))
        assert res.iterations == 20
        for name in ("x", "l", "r"):
            assert np.isfinite(getattr(res, name)).all(), name

    def test_factor_signs_do_not_change_the_solve(self, monkeypatch):
        inst = generate(SyntheticSpec(missing_rate=0.3, seed=1))
        y = project_observed(inst.full, inst.mask)
        cfg = SolverConfig(max_outer=30)
        ref = solve(y, inst.mask, cfg)
        # negate column 0 of U1, columns 1 and 2 of U2, every column of U3
        signs = ((-1, 1, 1), (1, -1, -1), (-1, -1, -1))

        def flipped(x, ranks):
            return [u * np.asarray(sign, dtype=float)
                    for u, sign in zip(hosvd_factors(x, ranks), signs)]

        monkeypatch.setattr("tslto.solver.hosvd_factors", flipped)
        res = solve(y, inst.mask, cfg)
        for name in ("x", "l", "r"):
            np.testing.assert_allclose(getattr(res, name), getattr(ref, name),
                                       rtol=0, atol=1e-10, err_msg=name)
        np.testing.assert_array_equal(res.r != 0, ref.r != 0)


class TestAblationConfig:
    def test_variant_map(self):
        base = SolverConfig()
        expectations = {
            "a": (True, False, False),
            "b": (False, True, False),
            "c": (False, False, True),
            "d": (True, True, False),
            "e": (True, False, True),
            "f": (False, True, True),
            "g": (True, True, True),
        }
        for variant, (no_lam, no_mu1, no_mu2) in expectations.items():
            cfg = ablation_config(base, variant)
            assert (cfg.lam == (0.0, 0.0, 0.0)) == no_lam
            assert (cfg.mu1 == 0.0) == no_mu1
            assert (cfg.mu2 == 0.0) == no_mu2

    def test_full_is_unchanged(self):
        base = SolverConfig()
        assert ablation_config(base, "full") == base

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            ablation_config(SolverConfig(), "h")


def _thin_svd_projectors(x, ranks):
    """U U^T of the leading left singular vectors of each mode unfolding."""
    out = []
    for mode, r in zip((1, 2, 3), ranks):
        u = np.linalg.svd(unfold(x, mode), full_matrices=False)[0][:, :r]
        out.append(u @ u.T)
    return out


@hst.composite
def _dims_and_ranks(draw):
    dims = draw(hst.tuples(*[hst.integers(2, 8)] * 3))
    ranks = draw(hst.tuples(*[hst.integers(1, min(dims))] * 3))
    return dims, ranks


class TestHosvdFactors:
    def test_orthonormal_columns(self):
        x = np.random.default_rng(25).standard_normal((6, 5, 4))
        for u in hosvd_factors(x, (3, 3, 3)):
            np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)

    # the shape of the Guangzhou traffic-speed tensor
    @example(((214, 61, 144), (3, 61, 10)), "C", 0)
    @settings(deadline=None)
    @given(_dims_and_ranks(), hst.sampled_from("CF"), hst.integers(0, 2**32 - 1))
    def test_projectors_match_thin_svd(self, dims_and_ranks, order, seed):
        dims, ranks = dims_and_ranks
        x = np.asarray(np.random.default_rng(seed).standard_normal(dims),
                       order=order)
        factors = hosvd_factors(x, ranks)
        for u, ref, d, r in zip(factors, _thin_svd_projectors(x, ranks),
                                dims, ranks):
            assert u.shape == (d, r)
            np.testing.assert_allclose(u @ u.T, ref, rtol=0, atol=1e-10)

    def test_ranks_exceed_dims_names_both(self):
        with pytest.raises(ValueError,
                           match=r"ranks \(2, 5, 2\) exceed tensor dims \(4, 4, 4\)"):
            hosvd_factors(np.ones((4, 4, 4)), [2, 5, 2])


def _lane_instance():
    # 80 x 80 x 64: just above the lane's break-even size
    inst = generate(SyntheticSpec(dims=(80, 80, 64), block_count=160,
                                  missing_rate=0.3, seed=5))
    assert inst.full.size >= lanes.LANE_MIN_ENTRIES
    return project_observed(inst.full, inst.mask), inst.mask


def _wrap_public_functions(monkeypatch, calls):
    """Wrap every public function of the solver's modules in every tslto
    namespace that holds it, as perfbench's tracer does; each call appends
    (name, whether it ran on the main thread) to calls."""
    modules = [sys.modules[f"tslto.{m}"]
               for m in ("solver", "prox", "tensor_ops", "stiefel")]
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "tslto" or n.startswith("tslto."))]
    for module in modules:
        for name, fn in list(vars(module).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue

            @functools.wraps(fn)
            def wrapper(*args, fn=fn, name=name, **kwargs):
                calls.append((name, threading.current_thread()
                              is threading.main_thread()))
                return fn(*args, **kwargs)

            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        monkeypatch.setattr(namespace, key, wrapper)


class TestLanes:
    """A solve above the lane's break-even size runs with OpenBLAS held to
    one thread and, on two CPUs, hands half of each pass to a worker."""

    def test_lane_solve_matches_inline(self, monkeypatch):
        y, mask = _lane_instance()
        cfg = SolverConfig(max_outer=3, eps=1e-12)
        threads = set()
        free_value = solver_module._free_value

        def spy(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return free_value(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_free_value", spy)
        lane = solve(y, mask, cfg, trace_every=1)
        if lanes.usable_cpus() >= 2 and lanes._openblas() is not None:
            assert len(threads) == 2, threads
        threads.clear()
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
        inline = solve(y, mask, cfg, trace_every=1)
        assert threads == {threading.main_thread().name}
        for name in ("x", "l", "r"):
            assert getattr(lane, name).tobytes() == getattr(inline, name).tobytes()
        # bitwise: equal floats, not approximately equal ones
        assert lane.trace == inline.trace
        assert (lane.iterations, lane.converged) == (inline.iterations,
                                                     inline.converged)
        assert lane.objective == inline.objective
        assert lane.residuals == inline.residuals

    def test_blas_threads_restored(self, monkeypatch):
        found = lanes._openblas()
        if found is None:
            pytest.skip("no OpenBLAS thread setter found")
        get, put = found
        y, mask = _lane_instance()
        cfg = SolverConfig(max_outer=2)
        seen = []
        update_G_ = solver_module.update_G

        def recording_update_G(state):
            seen.append(get())
            return update_G_(state)

        monkeypatch.setattr(solver_module, "update_G", recording_update_G)
        original = get()
        try:
            put(2)
            solve(y, mask, cfg)
            assert seen == [1, 1] and get() == 2
            monkeypatch.setattr(solver_module, "update_L",
                                lambda state, cfg: np.full(state.l.shape, np.nan))
            with pytest.raises(SolverDivergenceError):
                solve(y, mask, cfg)
            assert get() == 2
            # below the break-even size BLAS keeps its threads
            seen.clear()
            small = generate(SyntheticSpec(dims=(20, 20, 20), block_count=10,
                                           block_cols=40, seed=4))
            with pytest.raises(SolverDivergenceError):
                solve(small.full, small.mask, cfg)
            assert seen == [2] and get() == 2
        finally:
            put(original)

    def test_public_functions_stay_on_the_main_thread(self, monkeypatch):
        y, mask = _lane_instance()
        cfg = SolverConfig(max_outer=3, eps=1e-12)
        threaded, inline = [], []
        _wrap_public_functions(monkeypatch, threaded)
        solve(y, mask, cfg, trace_every=2)
        assert all(on_main for _, on_main in threaded), [
            name for name, on_main in threaded if not on_main]
        _wrap_public_functions(monkeypatch, inline)
        monkeypatch.setattr(lanes, "usable_cpus", lambda: 1)
        solve(y, mask, cfg, trace_every=2)
        # the second wrap sees every call once; the first, wrapped around
        # it, again
        counts = collections.Counter(name for name, _ in inline)
        assert collections.Counter(name for name, _ in threaded) == counts + counts
        assert counts["hard_threshold_l0"] > 0 and counts["toeplitz_diff"] > 0
