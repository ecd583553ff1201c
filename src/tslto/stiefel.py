"""Minimization of smooth objectives over matrices with orthonormal columns.

Majorize-minimize polar iteration (the generalized power iteration of Nie,
Zhang & Li, 2017): with L at least the curvature of f along the step, the
model f(U) + <G, V - U> + (L/2) ||V - U||^2 majorizes f(V), and on the
manifold ||V - U||^2 = 2r - 2 <V, U>, so its minimizer is the orthonormal
polar factor of L U - G, one thin SVD per step, with no line search.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .tensor_ops import (
    frobenius_norm,
    mode_n_product,
    toeplitz_diff,
    toeplitz_diff_adjoint,
    unfold,
)


@dataclass
class SmoothObjective:
    """Objective/gradient pair; gradient is the Euclidean gradient.  evaluate
    may be None when :func:`minimize_on_stiefel` gets a `lipschitz` bound."""

    evaluate: Optional[Callable[[np.ndarray], float]]
    gradient: Callable[[np.ndarray], np.ndarray]


def orthonormality_error(u):
    u = np.asarray(u)
    return frobenius_norm(u.T @ u - np.eye(u.shape[1]))


def _polar(m):
    """Orthonormal polar factor: the Stiefel point maximizing <U, m>."""
    p, _, qt = np.linalg.svd(m, full_matrices=False)
    return p @ qt


def minimize_on_stiefel(obj, u0, max_iters=60, lipschitz=None):
    """Descend `obj` from a feasible point, staying on the manifold.

    Each step is U+ = polar(L U - grad f(U)).  `lipschitz` is a bound on the
    curvature of f; without one, L starts at ||G|| / ||U|| and doubles until
    the majorization inequality holds at the trial point, so the objective
    never increases either way (that search raises ValueError when
    `obj.evaluate` is None).  Stops on max_iters, on a zero Riemannian
    gradient (||G - U G^T U||_F below 1e-8 * (1 + ||u0||_F)), or when a
    step moves U by at most 1e-10 * (1 + ||u0||_F).
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    u = np.asarray(u0, dtype=float)
    grad_tol = 1e-8 * (1.0 + frobenius_norm(u))
    step_tol = 1e-10 * (1.0 + frobenius_norm(u))
    lip = lipschitz
    if lip is None:
        if obj.evaluate is None:
            raise ValueError("obj.evaluate is None and no lipschitz bound")
        f = float(obj.evaluate(u))
        if not np.isfinite(f):
            raise ValueError("non-finite objective at the initial point")

    for _ in range(max_iters):
        g = np.asarray(obj.gradient(u), dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite gradient during the manifold search")
        if frobenius_norm(g - u @ (g.T @ u)) <= grad_tol:
            break
        if lip is None:
            lip = frobenius_norm(g) / frobenius_norm(u)
        u_new = _polar(lip * u - g)
        step = u_new - u
        while lipschitz is None and frobenius_norm(step) > step_tol:
            f_new = float(obj.evaluate(u_new))
            if f_new <= f + float(np.vdot(g, step)) + 0.5 * lip * float(
                np.vdot(step, step)
            ):
                f = f_new
                break
            lip *= 2.0
            u_new = _polar(lip * u - g)
            step = u_new - u
        if frobenius_norm(step) <= step_tol:
            break
        u = u_new
    return u


def factor_coefficient(g_core, u1, u2, u3, mode):
    """Matrix M with unfold(reconstruction, mode) == U_mode @ M.

    The Kronecker factor of the unfolded Tucker form is applied through mode
    products, never materialized.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"invalid mode {mode!r}")
    t = g_core
    for other, u in zip((1, 2, 3), (u1, u2, u3)):
        if other != mode:
            t = mode_n_product(t, u, other)
    return unfold(t, mode)


def fit_coefficients(l, g_core, us):
    """Yield unfold(L, i) @ factor_coefficient(G, U1, U2, U3, i).T for i = 1, 2, 3.

    Each is formed from the partial projection L x_{j != i} U_j^T as
    unfold(L x_{j != i} U_j^T, i) @ unfold(G, i).T, which never unfolds L.
    Modes 2 and 3 share L x_1 U1^T.  The factors are read from the list `us`
    only when the next coefficient is asked for, so a Gauss-Seidel caller
    that replaces us[i - 1] between steps gets each mode's coefficient at the
    factors updated so far.
    """
    yield unfold(mode_n_product(mode_n_product(l, us[2].T, 3), us[1].T, 2),
                 1) @ unfold(g_core, 1).T
    l1 = mode_n_product(l, us[0].T, 1)
    yield unfold(mode_n_product(l1, us[2].T, 3), 2) @ unfold(g_core, 2).T
    yield unfold(mode_n_product(l1, us[1].T, 2), 3) @ unfold(g_core, 3).T


def grad_fbeta_U(g_core, u1, u2, u3, l, beta, mode):
    """Gradient of (beta/2) * ||reconstruction - L||_F^2 w.r.t. factor `mode`."""
    us = {1: u1, 2: u2, 3: u3}
    m = factor_coefficient(g_core, u1, u2, u3, mode)
    residual = us[mode] @ m - unfold(l, mode)
    return beta * residual @ m.T


def grad_U_subproblem(g_core, u1, u2, u3, l, beta, mode, y, v, alpha):
    """Full factor-subproblem gradient including the multiplier terms."""
    us = {1: u1, 2: u2, 3: u3}
    grad = grad_fbeta_U(g_core, u1, u2, u3, l, beta, mode)
    return grad - toeplitz_diff_adjoint(v + alpha * (y - toeplitz_diff(us[mode])))
