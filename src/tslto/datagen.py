"""Synthetic instances: a piecewise-constant Tucker low-rank component plus
block-sparse anomalies and a uniform missing mask.

All randomness comes from numpy's PCG64 generator seeded from the spec, so
instances reproduce bit-for-bit across platforms for a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    fold,
    l0_count,
    l20_count,
    toeplitz_diff,
    tucker_reconstruct,
    unfold,
)


@dataclass
class SyntheticSpec:
    dims: tuple = (50, 50, 50)
    core_ranks: tuple = (3, 3, 3)
    core_low: float = 0.0
    core_high: float = 100.0
    distinctive_rows_per_factor: int = 2
    anomaly_mean: float = 4.0
    anomaly_variance: float = 0.01
    block_count: int = 50
    block_rows: int = 2
    block_cols: int = 125
    missing_rate: float = 0.0
    seed: int = 0

    def validate(self):
        d1, d2, d3 = self.dims
        if not 0 <= self.missing_rate < 1:
            raise ValueError("missing_rate must lie in [0, 1)")
        if self.block_rows > d1 or self.block_cols > d2 * d3:
            raise ValueError("anomaly block exceeds the mode-1 unfolding")
        if self.block_count * self.block_rows * self.block_cols > d1 * d2 * d3:
            raise ValueError("anomaly blocks cannot fit in the tensor")
        if any(r > d for r, d in zip(self.core_ranks, self.dims)):
            raise ValueError("core ranks exceed tensor dims")

    @property
    def block_area(self):
        return self.block_rows * self.block_cols


@dataclass
class SyntheticInstance:
    full: np.ndarray
    lowrank: np.ndarray
    anomaly: np.ndarray
    mask: np.ndarray
    anomaly_truth: np.ndarray


def _piecewise_factor(rng, d, r, distinctive_rows):
    """d x r factor: r contiguous constant segments, then a few rows replaced
    by fresh random vectors, then unit-norm columns."""
    u = np.empty((d, r))
    bounds = np.linspace(0, d, r + 1).round().astype(int)
    for seg in range(r):
        u[bounds[seg] : bounds[seg + 1]] = rng.random(r)
    for row in rng.choice(d, size=distinctive_rows, replace=False):
        u[row] = rng.random(r)
    return u / np.linalg.norm(u, axis=0)


def _place_blocks(rng, spec):
    """Non-overlapping axis-aligned blocks in the mode-1 unfolding."""
    d1, d2, d3 = spec.dims
    cols = d2 * d3
    occupied = np.zeros((d1, cols), dtype=bool)
    placed = 0
    attempts = 0
    max_attempts = 10 * spec.block_count
    anomaly = np.zeros((d1, cols))
    while placed < spec.block_count:
        if attempts >= max_attempts:
            raise RuntimeError(
                f"could not place {spec.block_count} non-overlapping blocks "
                f"after {max_attempts} attempts"
            )
        attempts += 1
        top = rng.integers(0, d1 - spec.block_rows + 1)
        left = rng.integers(0, cols - spec.block_cols + 1)
        patch = occupied[top : top + spec.block_rows, left : left + spec.block_cols]
        if patch.any():
            continue
        patch[:] = True
        anomaly[
            top : top + spec.block_rows, left : left + spec.block_cols
        ] = rng.normal(
            spec.anomaly_mean,
            np.sqrt(spec.anomaly_variance),
            size=(spec.block_rows, spec.block_cols),
        )
        placed += 1
    return anomaly, occupied


def generate(spec):
    """Draw a synthetic instance; deterministic given spec.seed."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    core = rng.uniform(spec.core_low, spec.core_high, size=spec.core_ranks)
    factors = [
        _piecewise_factor(rng, d, r, spec.distinctive_rows_per_factor)
        for d, r in zip(spec.dims, spec.core_ranks)
    ]
    lowrank = tucker_reconstruct(core, *factors)
    anomaly_mat, occupied = _place_blocks(rng, spec)
    anomaly = fold(anomaly_mat, 1, spec.dims)
    anomaly_truth = fold(occupied.astype(float), 1, spec.dims) != 0
    mask = rng.random(spec.dims) >= spec.missing_rate
    return SyntheticInstance(
        full=lowrank + anomaly,
        lowrank=lowrank,
        anomaly=anomaly,
        mask=mask,
        anomaly_truth=anomaly_truth,
    )


def sparsity_report(instance):
    """Sanity summary: factor difference sparsity, anomaly count, observed
    fraction.

    Factor sparsity is measured on the HOSVD factors of the low-rank part,
    truncated at each unfolding's numerical rank, via the number of nonzero
    rows of their consecutive-row differences (thresholded at 1e-10 to absorb
    roundoff).  Unlike the solver's HOSVD start, this keeps a thin SVD: its
    rank cut sigma > 1e-8 * sigma_0 is lambda > 1e-16 * lambda_0 on the Gram
    matrix, below what the Gram's eigenvalues resolve.
    """
    factor_rows = []
    for mode in (1, 2, 3):
        u, sv, _ = np.linalg.svd(unfold(instance.lowrank, mode),
                                 full_matrices=False)
        rank = max(1, int(np.sum(sv > 1e-8 * sv[0])))
        d = toeplitz_diff(u[:, :rank])
        d = np.where(np.abs(d) <= 1e-10, 0.0, d)
        factor_rows.append(l20_count(d))
    return {
        "factor_diff_nonzero_rows": tuple(factor_rows),
        "anomaly_entries": l0_count(instance.anomaly),
        "observed_fraction": float(np.mean(instance.mask)),
    }
