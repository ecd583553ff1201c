"""ADMM driver for the sparse low-rank tensor recovery model.

One outer iteration (`admm_iteration`) updates, in order: the completed
tensor X, the Tucker core G, the three factors U1-U3 (Gauss-Seidel, each by
one majorize-minimize polar step on the Stiefel manifold, a departure from
the paper's manifold search), the anomaly tensor R (one backtracking
proximal-gradient step), the low-rank surrogate L, the auxiliary blocks
Y1-Y3 and Z (group / elementwise hard thresholds), and finally the Lagrange
multipliers.  The penalty weights alpha, gamma and s grow by a fixed factor
each iteration up to a cap.

Every tensor-sized block (X, L, R, P, Z, W) is kept column-major, the layout
of `tucker_reconstruct`'s output, so that the mode-1 unfolding and folding
are views and no elementwise update mixes memory layouts.

A solve allocates its tensors once.  Its first iteration gives the state a
:class:`Workspace`: a spare tensor that the X, R and L replacements swap
with, R's gradient, two flat scratch buffers that each block views in the
shape it needs, and the column-major mask.  Every block update, trace row
and the final evaluation asks the workspace where a result goes: into
these buffers, or, for Z, W, P and the kept D R, into the block itself
(:meth:`Workspace.keep`), so from the second iteration on no tensor-sized
array is allocated or freed.  A state without a workspace, such as the
one a spelled-out loop runs on, is served by an allocating one: each
buffer it hands out is a new array, so the same code writes nothing into
the state and gives bitwise the same values.  X equals the observations on
the mask from `init_state` on, so `solve` keeps no copy of y: `update_X`
forms L + R - P/s in the spare and copies the old X onto the mask with a
branch-free bit select (:func:`tslto.tensor_ops.copy_where`).

A solve holds 11 tensor-sized arrays: X, L, R, P, Z, W and the kept D R,
plus the four workspace buffers, and the column-major mask (an eighth of a
tensor) when the given one is row-major.  The factor steps add products of
a factor's size (D_i x D_j x r_k) at their peak: a solve peaks 11.2 (100^3)
to 11.3 (60 x 50 x 40) tensors above its inputs, at any missing rate.
When every block allocated its result, the freed temporaries made glibc
trim and refault the heap top in every iteration; the workspace removes
most of those minor page faults and about 15 % of a 50^3 solve's
wall time, with bit-identical outputs (BENCH_17.json).

A solve of at least ``tslto.lanes.LANE_MIN_ENTRIES`` entries (about 74^3)
runs its loop in two lanes (:func:`tslto.lanes.solve_lane`): after the
HOSVD start, OpenBLAS is held to one thread, and where a second CPU is free
the workspace's lane gets a worker thread.  Each block update hands the
lane half of each elementwise pass (flat halves of the column-major
tensors; column or row halves of the difference operators), and a norm or
inner product beside another pass: ||prev|| beside ||prev - new|| in
:func:`_replace`, ||delta||^2 beside the row difference of delta in each R
trial, the (X - R) and P terms of L beside its Tucker reconstruction.  No
norm or inner product is split and no buffer is added, so a lane solve is
bitwise an inline one, and every public function is still called on the
calling thread, as often as inline.  Smaller solves, and
:func:`admm_iteration` called on its own, run the same code inline.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .lanes import INLINE, solve_lane
from .prox import group_hard_threshold_l20, hard_threshold_l0
from .stiefel import SmoothObjective, fit_coefficients, minimize_on_stiefel
from .tensor_ops import (
    copy_where,
    frobenius_inner,
    frobenius_norm,
    l0_count,
    l20_count,
    mode_gram,
    project_observed,
    toeplitz_diff,
    toeplitz_diff_adjoint,
    tucker_reconstruct,
    unfold,
)


class SolverDivergenceError(RuntimeError):
    """Raised when the iteration produces non-finite state."""


@dataclass
class SolverConfig:
    beta: float = 450.0
    lam: tuple = (1.2, 1.2, 1.2)
    mu1: float = 5.0
    mu2: float = 20.0
    alpha: tuple = (100.0, 100.0, 100.0)
    gamma: float = 10.0
    s: float = 2.0
    growth: float = 1.15
    penalty_cap: float = 100.0
    eps: float = 1e-4
    ranks: tuple = (3, 3, 3)
    max_outer: int = 2000
    prox_rho: float = 0.5

    def validate(self):
        if self.beta < 0 or self.mu1 < 0 or self.mu2 < 0 or min(self.lam) < 0:
            raise ValueError("objective weights must be nonnegative")
        if (min(self.alpha) <= 0 or self.gamma <= 0 or self.s <= 0
                or self.penalty_cap <= 0):
            raise ValueError(
                "penalty parameters alpha, gamma, s and penalty_cap must be positive"
            )
        if self.growth < 1:
            raise ValueError("growth must be >= 1")
        if not 0 < self.prox_rho < 1:
            raise ValueError("prox_rho must lie in (0, 1)")
        if self.max_outer < 1:
            raise ValueError("max_outer must be >= 1")
        if len(self.ranks) != 3 or min(self.ranks) < 1:
            raise ValueError("ranks must be three positive integers")


@dataclass
class SolverState:
    x: np.ndarray
    l: np.ndarray
    r: np.ndarray
    g: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    z: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    w: np.ndarray
    p: np.ndarray
    alpha: np.ndarray
    gamma: float
    s: float
    prox_lam: float
    iter: int = 0
    work: "Workspace" = field(default=None, repr=False)

    @property
    def factors(self):
        return (self.u1, self.u2, self.u3)

    def residuals(self):
        res_y = sum(
            frobenius_norm(y - toeplitz_diff(u))
            for y, u in zip((self.y1, self.y2, self.y3), self.factors)
        )
        work = _work(self)
        res_z = frobenius_norm(np.subtract(
            self.z, double_diff(self), out=work.scratch(0, self.z.shape)))
        xlr = np.subtract(self.x, self.l, out=work.scratch(0, self.x.shape))
        xlr -= self.r
        return res_y, res_z, frobenius_norm(xlr)


class Workspace:
    """Tensor-sized buffers that one solve reuses in every iteration.

    - ``spare``: the tensor that the next X, R or L is written into; the
      tensor it replaces becomes the spare (:func:`_replace`).
    - ``grad``: R's gradient.
    - two flat scratch buffers, which :meth:`scratch` views in the shape a
      block needs.
    - :meth:`keep`: where a block updated in place goes.
    - ``mask``: the observation mask, column-major (one byte an entry; no
      copy when the given mask already is).
    - ``lane``: the :class:`tslto.lanes.Lane` that the block updates hand
      their independent halves to; inline unless :func:`solve` gives it a
      worker.

    A state carries one as ``state.work`` (:func:`solve` or
    :func:`admm_iteration` attaches it).  A state without one is served by
    an allocating workspace (:func:`_work`), whose buffers are new arrays
    at each request and whose lane is inline, so a loop that keeps the
    previous blocks, as a test's spelled-out loop does, still can.
    """

    def __init__(self, dims, mask, lane=INLINE):
        self.lane = lane
        self.mask = np.asfortranarray(mask, dtype=bool)
        if self.mask.shape != tuple(dims):
            raise ValueError(
                f"mask shape {self.mask.shape} != tensor shape {dims}")
        self.spare = np.empty(dims, order="F")
        self.grad = np.empty(dims, order="F")
        size = math.prod(dims)
        self._flat = (np.empty(size), np.empty(size))

    def scratch(self, i, shape):
        """Scratch buffer i (0 or 1) as a column-major array of `shape`,
        which holds at most a tensor's entries."""
        return self._flat[i][:math.prod(shape)].reshape(shape, order="F")

    def keep(self, a):
        """The array that block `a`'s update is written into: `a` itself,
        as a solve updates Z, W, P and the kept D R in place."""
        return a


class _AllocatingWorkspace:
    """The workspace of a state that has none: each ``spare``, ``grad``,
    ``scratch`` and ``keep`` is a new column-major array, and the lane is
    inline."""

    lane = INLINE

    def __init__(self, dims):
        self._dims = dims

    spare = grad = property(lambda self: np.empty(self._dims, order="F"))

    def scratch(self, i, shape):
        return np.empty(shape, order="F")

    def keep(self, a):
        return np.empty(a.shape, order="F")


def _work(state, mask=None):
    """The state's workspace.  A state without one gets, given the mask, a
    :class:`Workspace` of its own, and otherwise an allocating workspace
    for the call."""
    if getattr(state, "work", None) is None:
        if mask is None:
            return _AllocatingWorkspace(state.r.shape)
        state.work = Workspace(state.r.shape, mask)
    return state.work


# One diagnostics row of :func:`solve`: the iteration, the model objective,
# the three feasibility residuals and the relative changes of X, G, L and R.
TraceRow = namedtuple(
    "TraceRow", "iter objective res_y res_z res_xlr rel_x rel_g rel_l rel_r"
)


@dataclass
class SolveResult:
    x: np.ndarray
    l: np.ndarray
    r: np.ndarray
    iterations: int
    residuals: tuple
    objective: float
    trace: list = field(default_factory=list)
    converged: bool = False


def column_diff(m, out=None, lane=None):
    """Consecutive-column differences (M @ T_r.T): column j of the result
    is m[:, j] - m[:, j+1].  out, when given, receives the result; a lane
    takes half of the rows."""
    return toeplitz_diff(m.T, out=None if out is None else out.T, lane=lane).T


def block_diff(m):
    """Row differences followed by column differences (T_l @ M @ T_r.T)."""
    return column_diff(toeplitz_diff(m))


def block_diff_adjoint(m, out=None, tmp=None, lane=None):
    """Adjoint of :func:`block_diff` (T_l.T @ M @ T_r).  out, when given,
    receives the result and tmp the row adjoint T_l.T @ M; a lane takes
    half of each pass."""
    rows = toeplitz_diff_adjoint(m, out=tmp, lane=lane)
    return toeplitz_diff_adjoint(rows.T, out=None if out is None else out.T,
                                 lane=lane).T


def double_diff(state):
    """D R = block_diff(unfold(state.r, 1)), computed once per anomaly tensor.

    The result is kept on the state, together with the array it belongs to,
    as the plain attribute ``_double_diff``, so any object with an ``r``
    attribute works.  It is recomputed whenever ``state.r`` is another array;
    the solver never writes into R in place.  :func:`update_R` leaves
    D R + D delta there for the tensor it returns, in the array its
    workspace keeps for D R.
    """
    memo = getattr(state, "_double_diff", None)
    if memo is None or memo[0] is not state.r:
        memo = (state.r, block_diff(unfold(state.r, 1)))
        state._double_diff = memo
    return memo[1]


def hosvd_factors(x, ranks):
    """Leading left singular vectors of each mode unfolding.

    Taken as the leading eigenvectors of each mode's D_k x D_k Gram matrix
    (:func:`mode_gram`), which span the same subspaces as a thin SVD of the
    D_k x (prod of the other dims) unfolding at a small fraction of its
    time and memory.  Column signs are arbitrary, as with an SVD; the ADMM
    iteration does not depend on them.  Raises ValueError when a rank
    exceeds its mode's dimension.

    The Gram resolves singular values only down to about 1e-8 of the
    largest (its eigenvalues to about machine epsilon times the largest),
    which is why :func:`tslto.datagen.sparsity_report`, whose numerical
    rank cuts there, keeps a thin SVD.
    """
    x = np.asarray(x, dtype=float)
    if any(r > d for r, d in zip(ranks, x.shape)):
        raise ValueError(f"ranks {tuple(ranks)} exceed tensor dims {x.shape}")
    factors = []
    for mode, r in zip((1, 2, 3), ranks):
        # eigh sorts eigenvalues ascending: the last r columns, reversed
        _, vecs = np.linalg.eigh(mode_gram(x, mode))
        factors.append(vecs[:, :-r - 1:-1].copy())
    return factors


def init_state(y, mask, cfg):
    """Zero-filled observed start with HOSVD factors and zero multipliers.

    Every tensor-sized block, and the kept D R (:func:`double_diff`), is
    allocated column-major.
    """
    cfg.validate()
    y = np.asfortranarray(y, dtype=float)
    mask = np.asfortranarray(mask, dtype=bool)
    dims = y.shape
    if min(dims) < 2:
        raise ValueError(f"every mode needs at least 2 entries, got dims {dims}")
    if not mask.any():
        raise ValueError("empty observation mask: the model is unidentifiable")
    x0 = project_observed(y, mask)
    bad = int(np.count_nonzero(~np.isfinite(x0)))
    if bad:
        raise ValueError(f"{bad} observed entries are not finite")
    l0 = np.copy(x0)
    r0 = np.zeros(dims, order="F")
    u1, u2, u3 = hosvd_factors(l0, cfg.ranks)
    zshape = (dims[0] - 1, dims[1] * dims[2] - 1)
    state = SolverState(
        x=x0,
        l=l0,
        r=r0,
        g=tucker_reconstruct(l0, u1.T, u2.T, u3.T),
        u1=u1,
        u2=u2,
        u3=u3,
        y1=toeplitz_diff(u1),
        y2=toeplitz_diff(u2),
        y3=toeplitz_diff(u3),
        z=np.zeros(zshape, order="F"),
        v1=np.zeros((dims[0] - 1, cfg.ranks[0])),
        v2=np.zeros((dims[1] - 1, cfg.ranks[1])),
        v3=np.zeros((dims[2] - 1, cfg.ranks[2])),
        w=np.zeros(zshape, order="F"),
        p=np.zeros(dims, order="F"),
        alpha=np.asarray(cfg.alpha, dtype=float),
        gamma=float(cfg.gamma),
        s=float(cfg.s),
        prox_lam=1.0 / cfg.s,
    )
    # D R now, before a workspace exists: taken inside the first R step,
    # block_diff's row difference would top a solve's peak memory
    double_diff(state)
    return state


def update_X(state, y, mask):
    """X = Y on the mask, L + R - P/s elsewhere.

    The full L + R - P/s is formed in the workspace's spare and y, read as
    float64, copied onto the mask, read as bool, bit for bit
    (:func:`copy_where`), at the same cost at every missing rate.
    """
    y, mask = np.asarray(y, dtype=float), np.asarray(mask, dtype=bool)
    work = _work(state)
    out, scratch = work.spare, work.scratch(0, state.l.shape)
    work.lane.split(_free_value, state.l, state.r, state.p, out, scratch,
                    s=state.s)
    return copy_where(out, y, mask, scratch, lane=work.lane)


def _free_value(l, r, p, out, tmp, s):
    """out = L + R - P/s, update_X's value off the mask."""
    np.add(l, r, out=out)
    out -= np.divide(p, s, out=tmp)


def update_G(state):
    """Core that minimizes the Tucker fit to L given orthonormal factors."""
    return tucker_reconstruct(state.l, state.u1.T, state.u2.T, state.u3.T)


def update_U(state, cfg):
    """Gauss-Seidel pass of one MM-polar step per factor subproblem.

    On U^T U = I the fit term (beta/2) * ||U M - L_[i]||^2 equals
    -<U, C> + const with C = beta * L_[i] M^T, because
    tr(U A U^T) = tr(A) for A = beta * M M^T; the subproblem is that linear
    term plus the penalty <Y - D U, V> + (alpha/2) * ||Y - D U||^2, whose
    curvature alpha * ||D^T D|| is below 4 * alpha.  The step is therefore
    U+ = polar(C + D^T (V + alpha Y) + alpha (4I - D^T D) U).  C comes from
    the partial projections of :func:`fit_coefficients`.
    """
    us = [state.u1, state.u2, state.u3]
    ys = (state.y1, state.y2, state.y3)
    vs = (state.v1, state.v2, state.v3)
    for i, lm in enumerate(fit_coefficients(state.l, state.g, us)):
        c = cfg.beta * lm
        y, v, alpha = ys[i], vs[i], state.alpha[i]

        def gradient(u, c=c, y=y, v=v, alpha=alpha):
            return -c - toeplitz_diff_adjoint(v + alpha * (y - toeplitz_diff(u)))

        us[i] = minimize_on_stiefel(SmoothObjective(None, gradient), us[i],
                                    max_iters=1, lipschitz=4.0 * alpha)
    return tuple(us)


# R line-search trials before SolverDivergenceError.  As ||D||^2 < 16, every
# finite trial passes once lam <= 1 / (s + 16 gamma), so the limit is reached
# only through non-finite trials or from a start step above
# prox_rho^-49 / (s + 16 gamma) (2^49 / (s + 16 gamma) at prox_rho = 0.5).
R_MAX_HALVINGS = 50


def _r_gradient(state):
    """Gradient at state.r of the smooth part f of the R subproblem, the
    augmented-Lagrangian terms <Z - D R, W> + (gamma/2) ||Z - D R||^2
    + <X - L - R, P> + (s/2) ||X - L - R||^2, written into the workspace's
    ``grad``.

    s (X - L + P/s - R) goes to scratch 0, with P/s in the spare (dead from
    X's swap to R's first trial), and the Z terms' residual to the Z-shaped
    head of the gradient buffer, whose double adjoint goes through scratch 1
    into the whole buffer.  The lane takes half of each pass.
    """
    dims, zshape = state.r.shape, state.z.shape
    work = _work(state)
    lane, grad = work.lane, work.grad
    res_xlr = work.scratch(0, dims)
    lane.split(_feasibility_residual, state.x, state.l, state.p, state.r,
               res_xlr, work.spare, s=state.s)
    res_z = grad.reshape(-1, order="F")[:math.prod(zshape)].reshape(
        zshape, order="F")
    lane.split(_z_residual, state.w, state.z, double_diff(state), res_z,
               gamma=state.gamma)
    block_diff_adjoint(res_z, out=unfold(grad, 1),
                       tmp=work.scratch(1, (dims[0], zshape[1])), lane=lane)
    lane.split(_combine_gradient, grad, res_xlr, gamma=state.gamma)
    return grad


def _feasibility_residual(x, l, p, r, out, tmp, s):
    """out = s (X - L + P/s - R), with P/s in tmp."""
    np.subtract(x, l, out=out)
    out += np.divide(p, s, out=tmp)
    out -= r
    out *= s


def _z_residual(w, z, d_r, out, gamma):
    """out = W/gamma + Z - D R."""
    np.divide(w, gamma, out=out)
    out += z
    out -= d_r


def _combine_gradient(grad, res_xlr, gamma):
    """grad = -gamma * grad - res_xlr, in place."""
    grad *= -gamma
    grad -= res_xlr


def update_R(state, cfg):
    """One backtracking proximal-gradient step on the anomaly tensor.

    f is quadratic, so f(R) + <grad f(R), delta> is on both sides of the
    majorizer test f(R + delta) <= f(R) + <grad f(R), delta>
    + ||delta||^2 / (2 lam) and cancels, leaving the curvature test
    gamma ||D delta||^2 + s ||delta||^2 <= ||delta||^2 / lam: one double
    difference and two inner products per trial, no value of f.  The
    accepted step also gives D R+ = D R + D delta, left for
    :func:`double_diff`.  Returns the new tensor and the accepted step,
    which warm-starts the next outer iteration's line search.

    Each trial is written into the workspace's spare.  The lane takes half
    of each elementwise pass, and ||delta||^2 beside the row difference of
    delta.
    """
    r = state.r
    dims = r.shape
    work = _work(state)
    lane = work.lane
    grad = _r_gradient(state)
    lam = state.prox_lam
    for _ in range(R_MAX_HALVINGS):
        # r - lam * grad, thresholded in place
        candidate = work.spare
        lane.split(_descent_step, grad, r, candidate, step=-lam)
        hard_threshold_l0(candidate, lam * cfg.mu1, out=candidate,
                          scratch=work.scratch(0, dims), lane=lane)
        delta = work.scratch(0, dims)
        lane.split(np.subtract, candidate, r, delta)
        # D delta = column_diff(toeplitz_diff(unfold(delta, 1))); the column
        # difference overwrites delta's scratch
        sq, rows = lane.both(
            partial(_sum_squares, delta),
            lambda: toeplitz_diff(unfold(delta, 1), out=work.scratch(
                1, (dims[0] - 1, dims[1] * dims[2])), lane=lane))
        d_delta = column_diff(rows, out=work.scratch(0, state.z.shape),
                              lane=lane)
        if (state.gamma * frobenius_inner(d_delta, d_delta) + state.s * sq
                <= sq / lam):
            d_r = double_diff(state)
            total = work.keep(d_r)
            lane.split(np.add, d_r, d_delta, total)
            state._double_diff = (candidate, total)
            return candidate, lam
        lam *= cfg.prox_rho
    raise SolverDivergenceError(
        "proximal line search for the anomaly block exhausted "
        f"{R_MAX_HALVINGS} halvings (penalty scaling diverged)"
    )


def _descent_step(grad, r, out, step):
    """out = grad * step + r."""
    np.multiply(grad, step, out=out)
    out += r


def _sum_squares(a):
    """<a, a>, as :func:`tslto.tensor_ops.frobenius_inner` takes it for a
    column-major array."""
    flat = a.ravel(order="F")
    return float(np.dot(flat, flat))


def _norm(a):
    """||a||, as :func:`tslto.tensor_ops.frobenius_norm` takes it."""
    return float(np.linalg.norm(a.ravel(order="K")))


def _accumulate(out, *terms):
    """out += each term, in order."""
    for term in terms:
        out += term


def update_L(state, cfg):
    """Closed-form blend of the Tucker fit and the feasibility target:
    (beta * recon + s * (X - R) + P) / (beta + s), where the fit's weight
    scales the r1 x r2 x r3 core before the reconstruction.  It is written
    into the workspace's spare.  The lane forms the two other terms in the
    scratch buffers beside the reconstruction."""
    denom = cfg.beta + state.s
    work = _work(state)
    lane, spare = work.lane, work.spare
    fit = work.scratch(0, state.x.shape)
    dual = work.scratch(1, state.x.shape)
    _, out = lane.both(
        partial(_l_terms, state.x, state.r, state.p, fit, dual,
                weight=state.s / denom, denom=denom),
        lambda: tucker_reconstruct(cfg.beta / denom * state.g,
                                   state.u1, state.u2, state.u3, out=spare))
    lane.split(_accumulate, out, fit, dual)
    return out


def _l_terms(x, r, p, fit, dual, weight, denom):
    """fit = (X - R) * weight and dual = P / denom."""
    np.subtract(x, r, out=fit)
    fit *= weight
    np.divide(p, denom, out=dual)


def update_Y(state, cfg):
    """Group hard threshold on the shifted factor differences."""
    out = []
    for u, v, alpha, lam_i in zip(
        state.factors, (state.v1, state.v2, state.v3), state.alpha, cfg.lam
    ):
        out.append(
            group_hard_threshold_l20(toeplitz_diff(u) - v / alpha, lam_i / alpha)
        )
    return tuple(out)


def update_Z(state, cfg):
    """Elementwise hard threshold on the doubly-differenced anomaly block,
    written where the workspace keeps Z.  The lane takes half of each
    pass."""
    work = _work(state)
    target = work.keep(state.z)
    work.lane.split(_z_target, state.w, double_diff(state), target,
                    gamma=state.gamma)
    return hard_threshold_l0(target, cfg.mu2 / state.gamma, out=target,
                             scratch=work.scratch(0, target.shape),
                             lane=work.lane)


def _z_target(w, d_r, out, gamma):
    """out = D R - W / gamma."""
    np.divide(w, gamma, out=out)
    np.subtract(d_r, out, out=out)


def update_multipliers(state):
    """Dual ascent on the five constraints, W and P written where the
    workspace keeps them.  The lane takes half of each of their passes."""
    work = _work(state)
    v1 = state.v1 + state.alpha[0] * (state.y1 - toeplitz_diff(state.u1))
    v2 = state.v2 + state.alpha[1] * (state.y2 - toeplitz_diff(state.u2))
    v3 = state.v3 + state.alpha[2] * (state.y3 - toeplitz_diff(state.u3))
    w, p = work.keep(state.w), work.keep(state.p)
    work.lane.split(_ascent, state.w, work.scratch(0, state.w.shape), w,
                    state.z, double_diff(state), step=state.gamma)
    work.lane.split(_ascent, state.p, work.scratch(0, state.p.shape), p,
                    state.x, state.l, state.r, step=state.s)
    return v1, v2, v3, w, p


def _ascent(mult, tmp, out, a, *minus, step):
    """out = step * (a - each of minus, in order) + mult, through tmp."""
    np.subtract(a, minus[0], out=tmp)
    for b in minus[1:]:
        tmp -= b
    tmp *= step
    np.add(tmp, mult, out=out)


def _relative(step, prev_norm):
    """||old - new|| / ||old||, or ||old - new|| when ||old|| is zero."""
    return step / prev_norm if prev_norm > 0 else step


def _relative_change(prev, cur):
    """The relative change of a block, as :func:`_replace` takes it."""
    return _relative(frobenius_norm(prev - cur), frobenius_norm(prev))


def check_convergence(changes, eps):
    """All four relative block changes (X, G, L, R) below eps.

    The changes are those :func:`admm_iteration` returns, each equal to
    :func:`_relative_change` of the replaced block, where a zero-norm
    previous block falls back to absolute change.
    """
    return all(change < eps for change in changes)


def model_objective(state, cfg):
    recon = tucker_reconstruct(state.g, state.u1, state.u2, state.u3,
                               out=_work(state).scratch(0, state.l.shape))
    recon -= state.l
    return (
        0.5 * cfg.beta * frobenius_norm(recon) ** 2
        + sum(
            lam_i * l20_count(y)
            for lam_i, y in zip(cfg.lam, (state.y1, state.y2, state.y3))
        )
        + cfg.mu1 * l0_count(state.r)
        + cfg.mu2 * l0_count(state.z)
    )


def _replace(state, name, block):
    """Store `block` as state.<name>; returns its relative change.

    A block written into the workspace's spare swaps with the block it
    replaces; otherwise the replaced block is released on return.  Raises
    SolverDivergenceError when the block is not finite.
    """
    prev = getattr(state, name)
    work = state.work
    lane, diff = work.lane, work.scratch(0, block.shape)
    lane.split(np.subtract, prev, block, diff)
    step, prev_norm = lane.both(partial(_norm, diff),
                                lambda: frobenius_norm(prev))
    change = _relative(step, prev_norm)
    # a non-finite entry makes the change non-finite (its difference with
    # the old block is not finite, and norms do not cancel), so only then is
    # the block checked entrywise
    if not np.isfinite(change) and not np.all(np.isfinite(block)):
        raise SolverDivergenceError(
            f"non-finite state at outer iteration {state.iter}"
        )
    if block is work.spare:
        work.spare = prev
    setattr(state, name, block)
    return change


def admm_iteration(state, mask, cfg):
    """One outer iteration: the eight block updates, in order, on state.

    The first call gives a state without one its :class:`Workspace`, with
    an inline lane, which keeps a column-major copy of mask; later calls
    read that copy.  X equals the observations on the mask from
    :func:`init_state` on, so X itself supplies them to update_X.  Returns
    the relative changes of X, G, L and R, each taken as the block is
    replaced.
    """
    work = _work(state, mask)
    rel_x = _replace(state, "x", update_X(state, state.x, work.mask))
    rel_g = _replace(state, "g", update_G(state))
    state.u1, state.u2, state.u3 = update_U(state, cfg)
    r, state.prox_lam = update_R(state, cfg)
    rel_r = _replace(state, "r", r)
    rel_l = _replace(state, "l", update_L(state, cfg))
    state.y1, state.y2, state.y3 = update_Y(state, cfg)
    state.z = update_Z(state, cfg)
    state.v1, state.v2, state.v3, state.w, state.p = update_multipliers(state)
    return rel_x, rel_g, rel_l, rel_r


def solve(y, mask, cfg, trace_every=0):
    """Run the full ADMM loop; returns recovered X, low-rank L, anomaly R.

    trace_every > 0 records a :class:`TraceRow` on the first and last
    iterations and every that many in between.
    y is read only by :func:`init_state`, which makes a transient
    column-major copy of a row-major one; from then on X holds the
    observations.  The workspace keeps a column-major copy of a row-major
    mask.  Trace rows and the final evaluation use the state's workspace.

    The loop and the final evaluation run with the lane of
    :func:`tslto.lanes.solve_lane`: at or above its break-even size, with
    OpenBLAS held to one thread and, where a second CPU is free, a worker
    thread that takes the independent halves of each block update.  The
    HOSVD start runs before, with the caller's BLAS threads.
    """
    state = init_state(y, mask, cfg)
    trace = []
    converged = False
    with solve_lane(state.x.size) as lane:
        state.work = Workspace(state.x.shape, mask, lane)
        for k in range(1, cfg.max_outer + 1):
            state.iter = k
            changes = admm_iteration(state, mask, cfg)
            converged = k > 1 and check_convergence(changes, cfg.eps)
            last = converged or k == cfg.max_outer
            if trace_every and (k % trace_every == 0 or k == 1 or last):
                trace.append(TraceRow(k, model_objective(state, cfg),
                                      *state.residuals(), *changes))
            if converged:
                break

            state.alpha = np.minimum(state.alpha * cfg.growth, cfg.penalty_cap)
            state.gamma = min(state.gamma * cfg.growth, cfg.penalty_cap)
            state.s = min(state.s * cfg.growth, cfg.penalty_cap)

        if trace:
            # the final iteration wrote this row from the same state
            row = trace[-1]
            objective = row.objective
            residuals = (row.res_y, row.res_z, row.res_xlr)
        else:
            objective, residuals = model_objective(state, cfg), state.residuals()
    return SolveResult(
        x=state.x,
        l=state.l,
        r=state.r,
        iterations=state.iter,
        residuals=residuals,
        objective=objective,
        trace=trace,
        converged=converged,
    )


# Ablation variants in the order `tslto ablate` runs them, each with the
# weights it zeroes: lam (factor row sparsity), mu1 (anomaly sparsity) and
# mu2 (block-continuity sparsity).
ABLATION_VARIANTS = {
    "a": ("lam",), "b": ("mu1",), "c": ("mu2",), "d": ("lam", "mu1"),
    "e": ("lam", "mu2"), "f": ("mu1", "mu2"), "g": ("lam", "mu1", "mu2"),
    "full": (),
}


def ablation_config(cfg, variant):
    """Copy of cfg with the weights of the named ablation variant zeroed."""
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}")
    zero = {"lam": (0.0, 0.0, 0.0), "mu1": 0.0, "mu2": 0.0}
    return replace(cfg, **{w: zero[w] for w in ABLATION_VARIANTS[variant]})
