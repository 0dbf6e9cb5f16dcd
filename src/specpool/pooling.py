"""Second-order (and first-order baseline) pooling of descriptor fields.

The second-order pool is the weighted average of outer products
H = sum_s pi(s) h(s) h(s)^T, with pi the normalized Voronoi areas on a
mesh and the uniform weight 1/|S| on a point cloud. H is symmetric PSD
up to round-off and is explicitly symmetrized. Mesh and cloud weights
differ only in how ``pi`` is built; pooling treats them alike.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class PoolWeights:
    """Normalized per-point weights, summing to 1."""

    pi: np.ndarray

    def __post_init__(self):
        self.pi = np.ascontiguousarray(self.pi, dtype=np.float64)
        if self.pi.ndim != 1 or len(self.pi) == 0:
            raise DataError("weights must be a non-empty vector")
        if np.any(self.pi <= 0.0):
            raise DataError(f"non-positive weight at index "
                            f"{int(np.argmin(self.pi))}")
        if abs(self.pi.sum() - 1.0) > 1e-12:
            raise DataError(f"weights sum to {self.pi.sum()!r}, expected 1")


@dataclass
class PooledSPD:
    """Pooled second-order matrix, exactly symmetric, PSD up to round-off."""

    H: np.ndarray

    def __post_init__(self):
        self.H = np.ascontiguousarray(self.H, dtype=np.float64)
        if self.H.ndim != 2 or self.H.shape[0] != self.H.shape[1]:
            raise DataError(f"H must be square, got shape {self.H.shape}")
        if not np.array_equal(self.H, self.H.T):
            raise DataError("H must be exactly symmetric")
        if not np.all(np.isfinite(self.H)):
            raise DataError("non-finite entries in pooled matrix")


def mesh_weights(mass):
    """Area weights pi(s) = a(s) / sum a(p)."""
    mass = np.asarray(mass, dtype=np.float64)
    return PoolWeights(mass / mass.sum())


def cloud_weights(n_points):
    """Uniform weights 1/|S|."""
    if n_points < 1:
        raise DataError("need at least one point")
    return PoolWeights(np.full(n_points, 1.0 / n_points))


def _check(field, weights):
    if field.n_points != len(weights.pi):
        raise DataError(f"field has {field.n_points} points but weights "
                        f"have {len(weights.pi)}")


def pool_second_order(field, weights):
    """H = sum_s pi(s) h(s) h(s)^T, symmetrized as (H + H^T)/2."""
    _check(field, weights)
    h = field.values
    raw = (h * weights.pi[:, None]).T @ h
    return PooledSPD(0.5 * (raw + raw.T))


def pool_first_order(field, weights):
    """Weighted average vector sum_s pi(s) h(s)."""
    _check(field, weights)
    return weights.pi @ field.values
