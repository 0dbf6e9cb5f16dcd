"""Spectral transform of pooled SPD matrices.

The transform eigendecomposes H, L2-normalizes the eigenvalue vector,
applies the learnable mixture-of-power function f(x) = sum_i gamma_i
x**alpha_i (gamma = softmax of logits, alpha_i = i/N_m), reconstructs, and
vectorizes the upper triangle. Backward reaches only the mixture logits:
the eigenvectors and normalized eigenvalues are treated as constants.

Both directions go through the per-shape factor Q of ``mpf_q_matrix``:
the forward row is Q @ gamma and the weight gradient is Q^T @ dL. Q^T is
the exact backward because the upper-triangle vectorization scatters a
gradient dL into a symmetric matrix S with its off-diagonal entries
halved: the eigenvalue gradient u_k^T S u_k reads each off-diagonal entry
from both mirror slots, so halving counts it once, as Q's upper-triangle
rows do. An unhalved scatter equals Q with its off-diagonal rows doubled
and fails the end-to-end finite-difference check.

The logits are the trainer's ``omega`` block, N_m + 1 of them, zero at
the start (the uniform mixture); H is a plain symmetric array.
"""

import numpy as np
import scipy.linalg

from .errors import DataError

FIXED_TRANSFORMS = ("log_e", "log_reg", "log_max", "half_power",
                    "l2_norm", "ssn")


def softmax(x):
    e = np.exp(x - np.max(x))
    gamma = e / np.sum(e)
    # subnormal weights add nothing to Q @ gamma but slow every product
    return np.where(gamma < np.finfo(gamma.dtype).tiny, 0.0, gamma)


def power_grid(n_mix):
    """Exponents alpha_i = i/N_m for i = 0..N_m."""
    if n_mix < 1:
        raise DataError(f"need n_mix >= 1, got {n_mix}")
    return np.arange(n_mix + 1) / float(n_mix)


def eig_sym(H):
    """Eigendecomposition of a symmetric PSD matrix, descending order.

    Negative round-off eigenvalues are clamped to 0. Diagonal input keeps
    the identity eigenvector convention (up to column sign).
    """
    mat = np.asarray(H, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataError(f"expected a square matrix, got shape {mat.shape}")
    asym = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
    if asym > 1e-10 * max(1.0, np.max(np.abs(mat))):
        raise DataError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    evals, evecs = scipy.linalg.eigh(0.5 * (mat + mat.T))
    order = slice(None, None, -1)
    return np.ascontiguousarray(evecs[:, order]), \
        np.maximum(evals[order], 0.0)


def g_vec(mat):
    """Upper triangle of a symmetric matrix, row-major."""
    return mat[np.triu_indices(mat.shape[0])]


def g_dim(d):
    return d * (d + 1) // 2


def mpf_eval(gamma, x):
    """f(x) = sum_i gamma_i x**alpha_i with the convention 0**0 = 1.

    ``gamma`` must lie on the simplex; then f(1) = sum(gamma) = 1 and
    f(0) = gamma[0].
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if gamma.ndim != 1 or len(gamma) < 2:
        raise DataError("gamma must be a vector of length >= 2")
    x = float(x)
    if x < 0.0:
        raise DataError(f"mixture of powers is defined on x >= 0, got {x}")
    return float(np.sum(gamma * x ** power_grid(len(gamma) - 1)))


def normalized_spectrum(H):
    """(U, lam) with lam the unit-norm clamped eigenvalue vector."""
    U, raw = eig_sym(H)
    norm = np.linalg.norm(raw)
    if norm == 0.0:
        raise DataError("all-zero matrix: spectrum cannot be normalized")
    return U, raw / norm


def softmax_backward(gamma, dgamma):
    """Pull a gradient on the weights back to the logits."""
    return gamma * (dgamma - np.dot(gamma, dgamma))


def mpf_q_matrix(U, powers):
    """Per-shape factor Q with columns g(U diag(powers[:, i]) U^T).

    The transformed vector is Q @ gamma and the weight gradient is
    Q^T @ dL_dgH, which makes per-batch work independent of the d^3
    reconstruction cost.
    """
    d, m = powers.shape
    q = np.empty((g_dim(d), m))
    iu = np.triu_indices(d)
    for i in range(m):
        b = (U * powers[:, i]) @ U.T
        q[:, i] = b[iu]
    return q


def fixed_transform(H, kind, eps):
    """Non-learned transform baselines.

    The first four kinds map the normalized spectrum entrywise and
    reconstruct: log; log(x + eps); log(max(x, eps)); sqrt(x). The last
    two act on the raw upper-triangle vector: L2 normalization, and
    signed square root followed by L2 normalization.
    """
    if kind not in FIXED_TRANSFORMS:
        raise DataError(f"unknown transform {kind!r}; "
                        f"choose from {FIXED_TRANSFORMS}")
    mat = np.asarray(H, dtype=np.float64)
    if kind == "l2_norm" or kind == "ssn":
        gv = g_vec(mat)
        if kind == "ssn":
            gv = np.sign(gv) * np.sqrt(np.abs(gv))
        norm = np.linalg.norm(gv)
        if norm == 0.0:
            raise DataError("all-zero matrix cannot be normalized")
        return gv / norm

    U, lam = normalized_spectrum(mat)
    if kind == "log_e":
        if np.any(lam == 0.0):
            raise DataError("log transform undefined: zero eigenvalue "
                            "(use log_reg or log_max)")
        mapped = np.log(lam)
    elif kind == "log_reg":
        if eps <= 0:
            raise DataError(f"eps must be positive, got {eps}")
        mapped = np.log(lam + eps)
    elif kind == "log_max":
        if eps <= 0:
            raise DataError(f"eps must be positive, got {eps}")
        mapped = np.log(np.maximum(lam, eps))
    else:
        mapped = np.sqrt(lam)
    return g_vec((U * mapped) @ U.T)
