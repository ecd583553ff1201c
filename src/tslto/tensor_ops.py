"""Dense third-order tensor algebra: unfolding, mode products, Tucker
reconstruction, masked projection and copy, and first-difference
operators.

Unfolding convention: the mode-k unfolding places mode k on the rows; the
column index orders the remaining modes ascending, with the earlier mode
varying fastest.  Under this convention the mode-1 unfolding of a Tucker
reconstruction factors as U1 @ unfold(G, 1) @ kron(U3, U2).T, which is what
the factor-gradient formulas assume.
"""

from functools import partial

import numpy as np

MODES = (1, 2, 3)
# Axis order that brings mode k to the front with the other two in ascending
# order (np.moveaxis(x, k - 1, 0)), and its inverse for folding back.
_UNFOLD_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}
_FOLD_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (1, 2, 0)}


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def unfold(x, mode):
    """Mode-k unfolding of a third-order tensor.

    Returns a (D_k, prod of remaining dims) matrix.  Column index of entry
    (i1, i2, i3) is the remaining indices in ascending mode order, earlier
    mode varying fastest (e.g. mode 1: col = i2 + i3 * D2, zero-based).
    """
    _check_mode(mode)
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={x.ndim}")
    return x.transpose(_UNFOLD_AXES[mode]).reshape(
        (x.shape[mode - 1], -1), order="F")


def fold(m, mode, dims):
    """Inverse of :func:`unfold`: fold a matrix back into a tensor of `dims`."""
    _check_mode(mode)
    m = np.asarray(m)
    dims = tuple(int(d) for d in dims)
    if len(dims) != 3:
        raise ValueError("dims must have three entries")
    axis = mode - 1
    rest = [d for i, d in enumerate(dims) if i != axis]
    if m.shape != (dims[axis], rest[0] * rest[1]):
        raise ValueError(
            f"matrix shape {m.shape} inconsistent with dims {dims} and mode {mode}"
        )
    t = m.reshape((dims[axis], rest[0], rest[1]), order="F")
    return t.transpose(_FOLD_AXES[mode])


def mode_n_product(x, a, mode, out=None):
    """Mode-n product X x_n A; replaces dimension D_n by A.shape[0].

    out, when given, receives the product; its mode-n unfolding must be a
    view (as it is for mode 3 of a column-major tensor).
    """
    _check_mode(mode)
    x = np.asarray(x)
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[1] != x.shape[mode - 1]:
        raise ValueError(
            f"matrix shape {a.shape} does not match tensor dim {x.shape[mode - 1]} "
            f"along mode {mode}"
        )
    dims = list(x.shape)
    dims[mode - 1] = a.shape[0]
    if out is None:
        return fold(a @ unfold(x, mode), mode, dims)
    target = unfold(out, mode)
    if out.shape != tuple(dims) or not np.may_share_memory(target, out):
        raise ValueError(f"out must be a {tuple(dims)} tensor whose mode-{mode} "
                         "unfolding is a view")
    np.matmul(a, unfold(x, mode), out=target)
    return out


def mode_gram(x, mode):
    """Gram matrix unfold(x, mode) @ unfold(x, mode).T, of size D_k x D_k.

    Its eigenvalues are the squared singular values of the unfolding and its
    eigenvectors the left singular vectors, resolved down to about machine
    epsilon times the largest eigenvalue.
    """
    a = unfold(x, mode)
    return a @ a.T


def tucker_reconstruct(g, u1, u2, u3, out=None):
    """Reconstruct G x_1 U1 x_2 U2 x_3 U3 from a core tensor and factors.

    out, a column-major tensor, receives the last mode product.
    """
    t = mode_n_product(g, u1, 1)
    t = mode_n_product(t, u2, 2)
    return mode_n_product(t, u3, 3, out=out)


def project_observed(x, mask):
    """Keep entries of x on the observation mask, zero elsewhere."""
    x = np.asarray(x)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape:
        raise ValueError(f"mask shape {mask.shape} != tensor shape {x.shape}")
    return np.where(mask, x, 0.0)


def copy_where(dst, src, mask, scratch, lane=None):
    """dst[mask] = src[mask] in place, bit for bit; returns dst.

    dst, src and scratch are float64 arrays of one shape and mask a bool
    array of it.  The bit patterns of src and dst are xored into scratch,
    kept where mask by a multiply with its 0s and 1s, and xored into dst:
    three elementwise passes without a branch, where
    ``np.copyto(dst, src, where=mask)`` copies run by run and takes about
    2.7 times as long on a scattered mask (50^3, 30 % of it unset).  A
    :class:`tslto.lanes.Lane` runs the passes in two halves of column-major
    arrays.
    """
    if lane is None:
        _select_bits(dst, src, mask, scratch)
    else:
        lane.split(_select_bits, dst, src, mask, scratch)
    return dst


def _select_bits(dst, src, mask, scratch):
    bits = dst.view(np.int64)
    flips = np.bitwise_xor(bits, src.view(np.int64),
                           out=scratch.view(np.int64))
    flips *= mask
    bits ^= flips


def toeplitz_diff(m, out=None, lane=None):
    """Consecutive-row differences: row j of the result is m[j] - m[j+1].

    Applies the (n-1) x n banded [1, -1] difference matrix without
    materializing it.  out, when given, receives the result.  A
    :class:`tslto.lanes.Lane` takes half of a matrix result, cut where its
    halves stay contiguous (columns when out is column-major, else rows);
    it needs out.
    """
    m = np.asarray(m)
    if m.shape[0] < 2:
        raise ValueError("toeplitz_diff needs at least two rows")
    if lane is None:
        return np.subtract(m[:-1], m[1:], out=out)
    if out.flags.f_contiguous:
        def part(cols):
            np.subtract(m[:-1, cols], m[1:, cols], out=out[:, cols])

        lane.halves(part, out.shape[1])
    else:
        def part(rows):
            np.subtract(m[rows], m[rows.start + 1:rows.stop + 1],
                        out=out[rows])

        lane.halves(part, out.shape[0])
    return out


def toeplitz_diff_adjoint(m, out=None, lane=None):
    """Adjoint (transpose) of :func:`toeplitz_diff`: maps (n-1) x c to n x c.

    out, when given, receives the result.  A :class:`tslto.lanes.Lane`
    takes half of it, cut as :func:`toeplitz_diff` cuts.
    """
    m = np.asarray(m)
    if out is None:
        out = np.empty(
            (m.shape[0] + 1, m.shape[1]),
            dtype=np.result_type(m, float),
            order="F" if np.isfortran(m) else "C",
        )
    if lane is None:
        _adjoint_rows(m, out, slice(0, out.shape[0]))
    elif out.flags.f_contiguous:
        lane.halves(lambda cols: _adjoint_rows(m[:, cols], out[:, cols],
                                               slice(0, out.shape[0])),
                    out.shape[1])
    else:
        lane.halves(partial(_adjoint_rows, m, out), out.shape[0])
    return out


def _adjoint_rows(m, out, rows):
    """Rows `rows` (a slice with a start and a stop) of
    toeplitz_diff_adjoint(m), into out."""
    lo, hi = rows.start, rows.stop
    n = m.shape[0]
    if lo == 0:
        out[0] = m[0]
        lo = 1
    if hi == n + 1:
        # out[n] = -m[n - 1], not np.negative(m[n - 1], out=out[n]): numpy
        # 2.4.6 writes wrong values through the latter when both rows are
        # strided views of column-major arrays (seen with 8-row inputs)
        out[n] = -m[n - 1]
        hi = n
    np.subtract(m[lo:hi], m[lo - 1:hi - 1], out=out[lo:hi])


def frobenius_norm(x):
    """Frobenius norm of a tensor or matrix."""
    return float(np.linalg.norm(np.asarray(x).ravel(order="K")))


def frobenius_inner(a, b):
    """Frobenius inner product <a, b> of two real arrays of one shape.

    Flattens column-major when both operands are column-major, so that
    neither is copied (np.vdot copies any array that is not row-major).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    order = "F" if a.flags.f_contiguous and b.flags.f_contiguous else "C"
    return float(np.dot(a.ravel(order=order), b.ravel(order=order)))


def l0_count(x):
    """Number of nonzero entries."""
    return int(np.count_nonzero(np.asarray(x)))


def l20_count(m):
    """Number of nonzero rows of a matrix."""
    m = np.asarray(m)
    return int(np.count_nonzero(np.any(m != 0, axis=1)))
