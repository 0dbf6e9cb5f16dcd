"""Per-point raw descriptor fields.

Spectral descriptors (heat kernel signature, its scale-invariant variant,
wave kernel signature) are computed from a truncated Laplace-Beltrami
spectrum; the localized statistical feature histogram is computed on a
sampled point cloud with normals. Each has one fixed setting: SIHKS
(Bronstein & Kokkinos 2010) gives 50 values per point, WKS (Aubry et al.
2011) 100 and LSF 5**4 = 625.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError
from .rng import substream

logger = logging.getLogger(__name__)

HKS_FLOOR = 1e-300  # clamp before log; avoids -inf on total underflow

SIHKS_TAU_STEP = 1.0 / 16.0
SIHKS_TAUS = 1.0 + np.arange(385) * SIHKS_TAU_STEP  # 1, 1 + 1/16, ..., 25
SIHKS_TAUS.setflags(write=False)
SIHKS_DIM = 50
WKS_DIM = 100
LSF_BINS = 5

# neighbor pairs framed and binned per step; bounds the frame arrays of one
# step to a few MB whatever the neighborhood size
PAIR_CHUNK = 1 << 16


@dataclass
class DescriptorField:
    """Per-point descriptor vectors: ``values`` is (n_points, dim)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"descriptor values must be 2-d, got shape "
                            f"{self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DataError("non-finite descriptor values")

    @property
    def n_points(self):
        return self.values.shape[0]


@dataclass
class LSFParams:
    """Neighborhood radius and neighbor cap for the 4-tuple feature."""

    radius: float
    neighbor_cap: int

    def __post_init__(self):
        if self.radius <= 0:
            raise DataError(f"radius must be positive, got {self.radius}")


def hks(spectrum, times):
    """Heat kernel signature: HKS(s, t) = sum_k exp(-lambda_k t) phi_k(s)^2."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or len(times) == 0:
        raise DataError("empty time grid")
    if times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise DataError("times must be positive and strictly ascending")
    decay = np.exp(-np.outer(spectrum.eigenvalues, times))
    values = (spectrum.eigenfunctions ** 2) @ decay
    return DescriptorField(values)


def sihks(spectrum):
    """Scale-invariant HKS.

    Sample HKS on the log-time grid ``SIHKS_TAUS``, differentiate log HKS
    w.r.t. tau, and keep the magnitudes of the first ``SIHKS_DIM`` Fourier
    components. Scaling the shape shifts the log-time profile, which the
    derivative plus the Fourier magnitude cancel.
    """
    h = hks(spectrum, 2.0 ** SIHKS_TAUS).values
    if np.any(h < HKS_FLOOR):
        bad = int(np.flatnonzero(np.any(h < HKS_FLOOR, axis=1))[0])
        logger.warning("heat signature underflow at point %d; clamped to %g",
                       bad, HKS_FLOOR)
        h = np.maximum(h, HKS_FLOOR)
    deriv = np.diff(np.log(h), axis=1) / SIHKS_TAU_STEP
    mags = np.abs(np.fft.fft(deriv, axis=1))[:, :SIHKS_DIM]
    return DescriptorField(mags)


def wks(spectrum):
    """Wave kernel signature over a log-eigenvalue energy grid.

    WKS(s, e) = C_e sum_k phi_k(s)^2 exp(-(e - log lambda_k)^2 / (2 sigma^2))
    at ``WKS_DIM`` energies spanning the positive log-eigenvalues, with
    sigma = 7 grid steps and C_e normalizing each energy's weights to sum 1.
    No energy is more than 49.5 steps (7.07 sigma) from an end of the span,
    so every total weight is at least exp(-25). Zero eigenvalues (the
    constant mode, which ``lb_spectrum`` sets to exactly 0) are excluded;
    one positive eigenvalue gives sigma = 0: every energy takes that mode.
    """
    lam = spectrum.eigenvalues
    if lam[-1] <= 0.0:
        raise DataError("all eigenvalues zero: wave signature undefined")
    pos = lam > 0.0
    loglam = np.log(lam[pos])
    phi2 = spectrum.eigenfunctions[:, pos] ** 2

    energies = np.linspace(loglam[0], loglam[-1], WKS_DIM)
    sigma = 7.0 * ((energies[-1] - energies[0]) / (WKS_DIM - 1))
    gap = energies[None, :] - loglam[:, None]
    if sigma == 0.0:
        weights = (gap == 0.0).astype(np.float64)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(-0.5 * (gap / sigma) ** 2)
    return DescriptorField(phi2 @ (weights / weights.sum(axis=0)))


def lsf(cloud, params, seed=0):
    """Localized statistical feature histograms.

    For each point p1, every neighbor p2 within the radius yields a 4-tuple
    in the frame u = n1, v = (p2-p1) x u (normalized), w = u x v:

        beta1 = atan2(w . n2, u . n2)
        beta2 = v . n2
        beta3 = u . (p2-p1) / |p2-p1|
        beta4 = |p2-p1|

    Tuples fill a joint histogram with ``LSF_BINS`` bins per coordinate
    (raw counts). Pairs with |p2-p1| = 0 or p2-p1 parallel to n1 have no
    frame and are skipped. Dense neighborhoods are subsampled to
    ``neighbor_cap`` with a per-point stream derived from ``seed``.

    All neighbor pairs come from one k-d tree query as one array of
    directed (p1, p2) index pairs; frames, tuples and bins are computed on
    slices of ``PAIR_CHUNK`` pairs, and the (point, bin) keys of all slices
    are counted into every point's histogram with one ``bincount``.
    """
    pts = cloud.points
    nrm = cloud.normals
    n = len(pts)
    radius = params.radius
    nbins = LSF_BINS
    dim = nbins ** 4

    # bin layout: right-closed intervals, exact left edge falls in bin 0
    lows = np.array([-np.pi, -1.0, -1.0, 0.0])
    spans = np.array([2.0 * np.pi, 2.0, 2.0, radius])
    widths = spans / nbins

    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    degree = np.bincount(src, minlength=n)
    src, dst = _cap_neighbors(src, dst, degree, params.neighbor_cap, seed)

    keys = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(src), PAIR_CHUNK):
        i = src[start:start + PAIR_CHUNK]
        j = dst[start:start + PAIR_CHUNK]
        d = pts[j] - pts[i]
        dist = np.linalg.norm(d, axis=1)
        u = nrm[i]
        dxu = np.cross(d, u)
        dxu_norm = np.linalg.norm(dxu, axis=1)
        ok = (dist > 0.0) & (dxu_norm > 0.0)
        i, d, dist, u = i[ok], d[ok], dist[ok], u[ok]
        v = dxu[ok] / dxu_norm[ok, None]
        w = np.cross(u, v)
        n2 = nrm[j[ok]]
        beta = np.empty((len(d), 4))
        beta[:, 0] = np.arctan2(np.einsum("ij,ij->i", w, n2),
                                np.einsum("ij,ij->i", n2, u))
        beta[:, 1] = np.einsum("ij,ij->i", v, n2)
        beta[:, 2] = np.einsum("ij,ij->i", d, u) / dist
        beta[:, 3] = dist
        bins = np.ceil((beta - lows) / widths).astype(np.int64) - 1
        np.clip(bins, 0, nbins - 1, out=bins)
        flat = ((bins[:, 0] * nbins + bins[:, 1]) * nbins
                + bins[:, 2]) * nbins + bins[:, 3]
        keys.append(i * dim + flat)
    counts = np.bincount(np.concatenate(keys), minlength=n * dim)
    empty = int(np.count_nonzero(degree == 0))
    if empty:
        logger.warning("%d of %d points have no neighbors within radius %g",
                       empty, n, radius)
    return DescriptorField(counts.reshape(n, dim))


def _cap_neighbors(src, dst, degree, cap, seed):
    """Directed pairs with every neighborhood above ``cap`` cut to ``cap``.

    A capped point draws from its own substream over its ascending
    neighbor indices, so the sample does not depend on pair order.
    """
    over = degree > cap
    capped = over[src]
    csrc, cdst = src[capped], dst[capped]
    cdst = cdst[np.lexsort((cdst, csrc))]
    heads = np.flatnonzero(over)
    ends = np.cumsum(degree[heads])
    picked = [substream(seed, "lsf", i).choice(cdst[end - degree[i]:end],
                                                cap, replace=False)
              for i, end in zip(heads, ends)]
    return (np.concatenate([src[~capped], np.repeat(heads, cap)]),
            np.concatenate([dst[~capped], *picked]))


def concat(fields):
    """Join descriptor fields along the feature axis, in argument order."""
    if not fields:
        raise DataError("cannot concatenate an empty field list")
    counts = {f.n_points for f in fields}
    if len(counts) > 1:
        raise DataError(f"mismatched point counts: {sorted(counts)}")
    if len(fields) == 1:
        return fields[0]
    return DescriptorField(np.concatenate([f.values for f in fields], axis=1))
