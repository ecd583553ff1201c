"""Real-dataset preparation: rank selection from the mode unfoldings'
singular spectra (read from their Gram matrices), Tucker smoothing to build
a low-rank ground truth, and the invertible core-scaling transform applied
before solving."""

from dataclasses import dataclass

import numpy as np

from .solver import hosvd_factors
from .tensor_ops import mode_gram, tucker_reconstruct


@dataclass
class ScaleTransform:
    shift: float = 20.0
    core_scale: float = 0.14
    ranks: tuple = (2, 5, 6)

    def validate(self):
        if self.core_scale == 0:
            raise ValueError("core_scale must be nonzero")


def select_rank(x, theta=0.95):
    """Smallest per-mode rank capturing a theta share of squared singular mass.

    The squared singular values of each unfolding are the eigenvalues of its
    Gram matrix (:func:`tslto.tensor_ops.mode_gram`), clipped at 0 and sorted
    descending.  The Gram resolves them only down to about machine epsilon
    times the largest: beyond an exact rank the remaining share reads
    1e-16 to 3e-15 for modes of 8 to 214 rows, so 1 - theta must stay well
    above that (1 - 1e-12 does).
    """
    if not 0 < theta <= 1:
        raise ValueError("theta must lie in (0, 1]")
    x = np.asarray(x, dtype=float)
    if not np.any(x):
        raise ValueError("rank selection is undefined for the zero tensor")
    ranks = []
    for mode in (1, 2, 3):
        sv2 = np.clip(np.linalg.eigvalsh(mode_gram(x, mode))[::-1], 0.0, None)
        # divided by its own last entry, so that theta = 1 is always reached
        shares = np.cumsum(sv2)
        shares /= shares[-1]
        ranks.append(int(np.argmax(shares >= theta)) + 1)
    return tuple(ranks)


def hosvd(x, ranks):
    """Truncated HOSVD: (core, [u1, u2, u3])."""
    x = np.asarray(x, dtype=float)
    u1, u2, u3 = factors = hosvd_factors(x, ranks)
    return tucker_reconstruct(x, u1.T, u2.T, u3.T), factors


def tucker_smooth(x, ranks):
    """HOSVD truncation at the given ranks, then reconstruction."""
    core, factors = hosvd(x, ranks)
    return tucker_reconstruct(core, *factors)


def scale_transform(x, t=None):
    """Shift, decompose, scale the core, reconstruct."""
    t = t or ScaleTransform()
    t.validate()
    core, factors = hosvd(np.asarray(x, dtype=float) - t.shift, t.ranks)
    return tucker_reconstruct(core * t.core_scale, *factors)


def scale_revert(x, t=None):
    """Inverse of :func:`scale_transform` on rank-exact inputs."""
    t = t or ScaleTransform()
    t.validate()
    core, factors = hosvd(np.asarray(x, dtype=float), t.ranks)
    return tucker_reconstruct(core / t.core_scale, *factors) + t.shift


def observation_mask_from_zeros(x):
    """Mask of observed entries for datasets encoding missing values as zeros."""
    return np.asarray(x) != 0
