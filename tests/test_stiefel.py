import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tslto import (
    SmoothObjective,
    grad_U_subproblem,
    grad_fbeta_U,
    minimize_on_stiefel,
    toeplitz_diff,
    tucker_reconstruct,
    unfold,
)
from tslto import solver
from tslto.solver import SolverConfig, init_state, update_U
from tslto.stiefel import (
    _polar,
    factor_coefficient,
    fit_coefficients,
    orthonormality_error,
)


def random_stiefel(rng, d, r):
    return np.linalg.qr(rng.standard_normal((d, r)))[0]


def random_problem(rng, dims=(7, 6, 5), ranks=(3, 2, 2)):
    g = rng.standard_normal(ranks)
    us = [random_stiefel(rng, d, r) for d, r in zip(dims, ranks)]
    l = rng.standard_normal(dims)
    return g, us, l


def fd_gradient(fun, u, h=1e-6):
    """Central finite differences of a scalar function of a matrix."""
    grad = np.zeros_like(u)
    for idx in np.ndindex(u.shape):
        up, dn = u.copy(), u.copy()
        up[idx] += h
        dn[idx] -= h
        grad[idx] = (fun(up) - fun(dn)) / (2 * h)
    return grad


class TestPolarStep:
    def test_preserves_orthonormality(self):
        rng = np.random.default_rng(0)
        u = random_stiefel(rng, 8, 3)
        g = rng.standard_normal((8, 3))
        obj = SmoothObjective(lambda u: 0.0, lambda u: g)
        for lip in (1e-3, 0.1, 1.0, 1e3):
            step = minimize_on_stiefel(obj, u, max_iters=1, lipschitz=lip)
            assert orthonormality_error(step) <= 1e-10
            np.testing.assert_allclose(step, _polar(lip * u - g), atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        # G = U S with S symmetric has zero Riemannian gradient; the step
        # polar(L U - G) = polar(U (L I - S)) returns U once L I - S > 0.
        rng = np.random.default_rng(2)
        u = random_stiefel(rng, 4, 2)
        s = rng.standard_normal((2, 2))
        s = s + s.T
        lip = 1.0 + np.linalg.eigvalsh(s).max()
        np.testing.assert_allclose(_polar(lip * u - u @ s), u, atol=1e-12)
        obj = SmoothObjective(lambda v: 0.0, lambda v: v @ s)
        np.testing.assert_array_equal(
            minimize_on_stiefel(obj, u, lipschitz=lip), u
        )

    def test_quadratic_term_constant_on_manifold(self):
        rng = np.random.default_rng(11)
        for d, r in ((9, 3), (50, 3), (6, 6)):
            u = random_stiefel(rng, d, r)
            m = rng.standard_normal((r, 40))
            a = 450.0 * (m @ m.T)
            half_tr = 0.5 * np.trace(a)
            assert abs(0.5 * np.vdot(u @ a, u) - half_tr) <= 1e-12 * half_tr

    def test_factor_steps_never_increase_full_objective(self, monkeypatch):
        # Record the subproblems update_U hands to the manifold search, then
        # step each one and score every iterate by the full subproblem
        # objective, including (1/2) tr(U A U^T).
        rng = np.random.default_rng(12)
        dims, ranks = (9, 8, 7), (3, 2, 2)
        cfg = SolverConfig(ranks=ranks, beta=0.5, alpha=(5.0, 20.0, 50.0))
        state = init_state(rng.standard_normal(dims),
                           np.ones(dims, bool), cfg)
        for k, (d, r) in enumerate(zip(dims, ranks), start=1):
            setattr(state, f"y{k}", rng.standard_normal((d - 1, r)))
            setattr(state, f"v{k}", rng.standard_normal((d - 1, r)))
        calls = []

        def recording(obj, u0, **kwargs):
            calls.append((obj, u0, kwargs))
            return minimize_on_stiefel(obj, u0, **kwargs)

        monkeypatch.setattr(solver, "minimize_on_stiefel", recording)
        us = list(update_U(state, cfg))
        assert len(calls) == 3
        for i, (obj, u, kwargs) in enumerate(calls):
            mode = i + 1
            trial = us[:i] + [u] + list(state.factors[i + 1:])
            m = factor_coefficient(state.g, *trial, mode)
            l_unf = unfold(state.l, mode)
            y, v = getattr(state, f"y{mode}"), getattr(state, f"v{mode}")
            alpha = state.alpha[i]

            def full(u):
                res = y - toeplitz_diff(u)
                return (0.5 * cfg.beta * np.sum((u @ m - l_unf) ** 2)
                        + np.vdot(res, v) + 0.5 * alpha * np.vdot(res, res))

            assert kwargs["lipschitz"] == 4.0 * alpha
            assert kwargs["max_iters"] == 1
            # the step's gradient drops the fit term's quadratic part
            # beta * U M M^T, constant in value on the manifold
            ref = grad_U_subproblem(state.g, *trial, state.l, cfg.beta, mode,
                                    y, v, alpha)
            grad = obj.gradient(u) + cfg.beta * u @ m @ m.T
            assert np.linalg.norm(grad - ref) <= 1e-10 * np.linalg.norm(ref)
            values = [full(u)]
            for _ in range(20):
                u = minimize_on_stiefel(obj, u, max_iters=1,
                                        lipschitz=kwargs["lipschitz"])
                values.append(full(u))
            assert np.all(np.diff(values) <= 1e-10 * abs(values[0]))
            assert values[-1] < values[0]


class TestMinimizeOnStiefel:
    def test_constant_objective_returns_start(self):
        rng = np.random.default_rng(3)
        u0 = random_stiefel(rng, 6, 2)
        obj = SmoothObjective(lambda u: 1.0, lambda u: np.zeros_like(u))
        np.testing.assert_array_equal(minimize_on_stiefel(obj, u0), u0)

    def test_procrustes_alignment(self):
        # minimize 0.5 ||U - Q||^2 over the manifold; global minimum is U = Q
        rng = np.random.default_rng(4)
        q = random_stiefel(rng, 8, 3)
        obj = SmoothObjective(
            lambda u: 0.5 * np.sum((u - q) ** 2), lambda u: u - q
        )
        u0 = random_stiefel(rng, 8, 3)
        u = minimize_on_stiefel(obj, u0, max_iters=2000)
        assert obj.evaluate(u) <= obj.evaluate(u0)
        assert orthonormality_error(u) <= 1e-8
        assert obj.evaluate(u) <= 1e-8

    def test_circle_case(self):
        # D=2, r=1: minimize -q.u on the unit circle; optimum is u = q
        q = np.array([[0.6], [0.8]])
        obj = SmoothObjective(lambda u: -float(np.vdot(q, u)),
                              lambda u: -q.copy())
        u = minimize_on_stiefel(obj, np.array([[0.0], [1.0]]), max_iters=200)
        np.testing.assert_allclose(u, q, atol=1e-6)

    def test_never_increases_objective(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((7, 7))
        a = a + a.T
        obj = SmoothObjective(
            lambda u: float(np.vdot(u, a @ u)), lambda u: 2 * a @ u
        )
        for seed in range(5):
            u0 = random_stiefel(np.random.default_rng(seed), 7, 2)
            u = minimize_on_stiefel(obj, u0, max_iters=100)
            assert obj.evaluate(u) <= obj.evaluate(u0) + 1e-12
            assert orthonormality_error(u) <= 1e-8

    def test_no_objective_and_no_bound_raises(self):
        rng = np.random.default_rng(13)
        u0 = random_stiefel(rng, 6, 2)
        g = rng.standard_normal((6, 2))
        obj = SmoothObjective(None, lambda u: g)
        with pytest.raises(ValueError, match="evaluate"):
            minimize_on_stiefel(obj, u0)

    def test_invalid_max_iters(self):
        obj = SmoothObjective(lambda u: 0.0, lambda u: np.zeros_like(u))
        with pytest.raises(ValueError):
            minimize_on_stiefel(obj, np.eye(2), max_iters=0)


class TestFactorCoefficient:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_unfolding_identity(self, mode):
        rng = np.random.default_rng(6)
        g, us, _ = random_problem(rng)
        recon = tucker_reconstruct(g, *us)
        m = factor_coefficient(g, *us, mode)
        np.testing.assert_allclose(
            unfold(recon, mode), us[mode - 1] @ m, atol=1e-12
        )

    def test_invalid_mode(self):
        rng = np.random.default_rng(7)
        g, us, _ = random_problem(rng)
        with pytest.raises(ValueError):
            factor_coefficient(g, *us, 4)


class TestFitCoefficients:
    @settings(deadline=None)
    @given(hst.tuples(*[hst.integers(2, 8)] * 3), hst.sampled_from("CF"),
           hst.integers(0, 2**32 - 1))
    def test_matches_unfolded_coefficient(self, dims, order, seed):
        # Gauss-Seidel use: each factor is replaced after its coefficient
        rng = np.random.default_rng(seed)
        ranks = [int(rng.integers(1, d + 1)) for d in dims]
        g = np.asarray(rng.standard_normal(ranks), order=order)
        l = np.asarray(rng.standard_normal(dims), order=order)
        us = [random_stiefel(rng, d, r) for d, r in zip(dims, ranks)]
        for mode, lm in enumerate(fit_coefficients(l, g, us), start=1):
            ref = unfold(l, mode) @ factor_coefficient(g, *us, mode).T
            assert lm.shape == ref.shape
            assert np.linalg.norm(lm - ref) <= 1e-12 * np.linalg.norm(ref)
            us[mode - 1] = random_stiefel(rng, dims[mode - 1], ranks[mode - 1])


class TestGradFbetaU:
    def test_zero_residual(self):
        rng = np.random.default_rng(8)
        g, us, _ = random_problem(rng)
        l = tucker_reconstruct(g, *us)
        for mode in (1, 2, 3):
            grad = grad_fbeta_U(g, *us, l, 3.0, mode)
            np.testing.assert_allclose(grad, 0.0, atol=1e-10)

    def test_zero_beta(self):
        rng = np.random.default_rng(9)
        g, us, l = random_problem(rng)
        for mode in (1, 2, 3):
            np.testing.assert_array_equal(
                grad_fbeta_U(g, *us, l, 0.0, mode), np.zeros_like(us[mode - 1])
            )

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_finite_differences(self, mode):
        beta = 2.5
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            g, us, l = random_problem(rng)

            def value(u):
                trial = list(us)
                trial[mode - 1] = u
                return 0.5 * beta * np.sum(
                    (tucker_reconstruct(g, *trial) - l) ** 2
                )

            grad = grad_fbeta_U(g, *us, l, beta, mode)
            fd = fd_gradient(value, us[mode - 1])
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5


class TestGradUSubproblem:
    def test_reduces_to_fit_gradient(self):
        rng = np.random.default_rng(10)
        g, us, l = random_problem(rng)
        for mode in (1, 2, 3):
            u = us[mode - 1]
            y = toeplitz_diff(u)
            v = np.zeros_like(y)
            # zero multiplier, zero residual
            full = grad_U_subproblem(g, *us, l, 2.0, mode, y, v, 5.0)
            fit = grad_fbeta_U(g, *us, l, 2.0, mode)
            np.testing.assert_allclose(full, fit, atol=1e-12)
            # alpha = 0 and v = 0 with arbitrary y
            y2 = rng.standard_normal(y.shape)
            full2 = grad_U_subproblem(g, *us, l, 2.0, mode, y2, v, 0.0)
            np.testing.assert_allclose(full2, fit, atol=1e-12)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_finite_differences(self, mode):
        beta, alpha = 2.0, 4.0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            g, us, l = random_problem(rng)
            d, r = us[mode - 1].shape
            y = rng.standard_normal((d - 1, r))
            v = rng.standard_normal((d - 1, r))

            def value(u):
                trial = list(us)
                trial[mode - 1] = u
                fit = 0.5 * beta * np.sum(
                    (tucker_reconstruct(g, *trial) - l) ** 2
                )
                res = y - toeplitz_diff(u)
                return fit + np.vdot(res, v) + 0.5 * alpha * np.vdot(res, res)

            grad = grad_U_subproblem(g, *us, l, beta, mode, y, v, alpha)
            fd = fd_gradient(value, us[mode - 1])
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5
