"""Spectral transform of pooled SPD matrices.

The transform eigendecomposes H, L2-normalizes the eigenvalue vector,
applies the learnable mixture-of-power function f(x) = sum_i gamma_i
x**alpha_i (gamma = softmax of logits, alpha_i = i/N_m), reconstructs, and
vectorizes the upper triangle. Backward reaches only the mixture logits:
the eigenvectors and normalized eigenvalues are treated as constants.

Normalized eigenvalues at or below ``ZERO_EIGENVALUE_TOL`` are round-off:
H is numerically low-rank (an LSF H of size 625 has 7-72 eigenvalues above
it), which values an eigensolver returns for the rest depends on the
LAPACK build, and f amplifies them (1e-12**0.1 is 0.063).
``nonzero_spectrum`` sets them to exactly 0 and keeps only the r eigenpairs
above the threshold. Every direction orthogonal to those r eigenvectors
has eigenvalue 0, whose powers are 0**alpha = e0 = (1, 0, ..., 0) with the
convention 0**0 = 1, so f(H) = gamma_0 I + U_r diag(P0 @ gamma) U_r^T with
P0 = lam_r**alpha - e0 (``shifted_powers``). The fixed transforms keep the
full spectrum.

The trainer's ``FeatureSet`` computes both directions from (U_r, P0) per
shape, in O(d^2 r). The forward row is g of that matrix. The row's
derivative along A = U_r diag(p) U_r^T, p a change of P0 @ gamma, pairs a
row gradient dL with A as sum_{j <= l} dL_jl A_jl. With S holding dL in
its upper triangle and zeros below, that sum is tr(A S) = sum_k p_k
u_k^T S u_k, so the weight gradient is P0^T diag(U_r^T S U_r) + e0 tr S.
Each entry of dL is read once, as the row holds each entry once;
scattering dL into both triangles reads every off-diagonal entry twice
and fails the end-to-end finite-difference check.

``mpf_q_matrix`` builds the same map as one dense factor Q per shape, the
row Q @ gamma and the gradient Q^T @ dL. It is the reference definition
the gradient checker compares the production path with, not the
production path: Q has d(d+1)/2 x (N_m + 1) entries, 17 MB at d = 625.

The logits are the trainer's ``omega`` block, N_m + 1 of them, zero at
the start (the uniform mixture); H is a plain symmetric array.
"""

import numpy as np
import scipy.linalg

from .errors import DataError

# normalized eigenvalues of H at or below this are round-off (d * float64
# epsilon is 1.4e-13 at d = 625); the benchmark's feature-row check counts
# those above it as set by H (perfbench ROUNDOFF_EIG), so a higher cut would
# drop eigenvalues the check expects to be kept
ZERO_EIGENVALUE_TOL = 1e-12

FIXED_TRANSFORMS = ("log_e", "log_reg", "log_max", "half_power",
                    "l2_norm", "ssn")


def softmax(x):
    e = np.exp(x - np.max(x))
    gamma = e / np.sum(e)
    # subnormal weights add nothing to a feature row but slow every product
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


def nonzero_spectrum(H):
    """(U_r, lam_r): the normalized eigenpairs above ZERO_EIGENVALUE_TOL.

    The other eigenvalues are exactly 0 and their eigenvectors are dropped;
    ``shifted_powers`` accounts for the null space they span.
    """
    U, lam = normalized_spectrum(H)
    r = int(np.count_nonzero(lam > ZERO_EIGENVALUE_TOL))
    return np.ascontiguousarray(U[:, :r]), lam[:r]


def shifted_powers(lam, n_mix):
    """P0 = lam**alpha - e0, r x (n_mix + 1), for the nonzero eigenvalues.

    e0 = (1, 0, ..., 0) holds the powers of the null space's eigenvalue 0,
    so f(H) = gamma_0 I + U_r diag(P0 @ gamma) U_r^T and column 0 of P0 is
    exactly 0.
    """
    p = lam[:, None] ** power_grid(n_mix)[None, :]
    p[:, 0] -= 1.0
    return p


def softmax_backward(gamma, dgamma):
    """Pull a gradient on the weights back to the logits."""
    return gamma * (dgamma - np.dot(gamma, dgamma))


def mpf_q_matrix(U, powers):
    """Per-shape factor Q with columns g(U diag(powers[:, i]) U^T + N_i).

    U is d x r with orthonormal columns and ``powers`` is r x m, the
    eigenvalue powers for alpha_0 = 0 < alpha_1 < ... . The directions
    orthogonal to U have eigenvalue 0, so N_0 = I - U U^T and the other
    N_i are 0: column 0 is exactly g(I) when powers[:, 0] is all ones.
    Column i >= 1 costs d^2 r. The transformed vector is Q @ gamma and
    the weight gradient is Q^T @ dL_dgH. This is the reference the
    gradient checker holds the trainer's factored rows and gradients to.
    """
    d, m = U.shape[0], powers.shape[1]
    upper = np.triu(np.ones((d, d), dtype=bool))  # g's row-major order
    # powers of the null space's zero eigenvalue, 0**alpha = (1, 0, ..., 0);
    # column i is g(I) * null[i] + g(U diag(powers[:, i] - null[i]) U^T)
    null = np.eye(1, m)[0]
    qt = np.zeros((m, g_dim(d)))
    for i in range(m):
        p = powers[:, i] - null[i]
        if np.any(p):
            qt[i] = ((U * p) @ U.T)[upper]
    qt[0] += g_vec(np.eye(d))
    # filled by rows, which is twice as fast as writing strided columns
    return np.ascontiguousarray(qt.T)


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
