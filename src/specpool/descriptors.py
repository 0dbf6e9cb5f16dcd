"""Per-point raw descriptor fields.

Spectral descriptors (heat kernel signature, its scale-invariant variant,
wave kernel signature) are computed from a truncated Laplace-Beltrami
spectrum; the localized statistical feature histogram is computed on a
sampled point cloud with normals.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DataError
from .rng import substream

logger = logging.getLogger(__name__)

HKS_FLOOR = 1e-300  # clamp before log; avoids -inf on total underflow

KINDS = ("hks", "sihks", "wks", "lsf", "concat")

# neighbor pairs framed and binned per step; bounds the frame arrays of one
# step to a few MB whatever the neighborhood size
PAIR_CHUNK = 1 << 16


@dataclass
class DescriptorField:
    """Per-point descriptor vectors: ``values`` is (n_points, dim)."""

    values: np.ndarray
    kind: str

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"descriptor values must be 2-d, got shape "
                            f"{self.values.shape}")
        if self.kind not in KINDS:
            raise DataError(f"unknown descriptor kind {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise DataError(f"non-finite {self.kind} descriptor values")

    @property
    def n_points(self):
        return self.values.shape[0]


@dataclass
class SIHKSParams:
    """Log-time grid t = base**tau and output size of the Fourier step."""

    base: float = 2.0
    tau_min: float = 1.0
    tau_max: float = 25.0
    tau_step: float = 1.0 / 16.0
    out_dim: int = 50

    def taus(self):
        if self.base <= 1.0:
            raise DataError(f"log-time base must exceed 1, got {self.base}")
        if self.tau_step <= 0 or self.tau_max <= self.tau_min:
            raise DataError("bad tau grid")
        steps = int(round((self.tau_max - self.tau_min) / self.tau_step))
        return self.tau_min + np.arange(steps + 1) * self.tau_step


@dataclass
class WKSParams:
    """Energy grid size and bandwidth; ``None`` fields are derived."""

    dim: int = 100
    sigma: float = None     # default 7 * grid step
    energies: np.ndarray = None  # overrides the derived grid


@dataclass
class LSFParams:
    """Neighborhood radius and histogram layout for the 4-tuple feature."""

    radius: float
    neighbor_cap: int
    bins_per_dim: int = 5

    def __post_init__(self):
        if self.radius <= 0:
            raise DataError(f"radius must be positive, got {self.radius}")
        if self.bins_per_dim < 2:
            raise DataError(f"need bins_per_dim >= 2, got {self.bins_per_dim}")


def hks(spectrum, times):
    """Heat kernel signature: HKS(s, t) = sum_k exp(-lambda_k t) phi_k(s)^2."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or len(times) == 0:
        raise DataError("empty time grid")
    if times[0] <= 0 or np.any(np.diff(times) <= 0):
        raise DataError("times must be positive and strictly ascending")
    decay = np.exp(-np.outer(spectrum.eigenvalues, times))
    values = (spectrum.eigenfunctions ** 2) @ decay
    return DescriptorField(values, "hks")


def sihks(spectrum, params=None):
    """Scale-invariant HKS.

    Sample HKS on the log-time grid, differentiate log HKS w.r.t. tau, and
    keep the magnitudes of the first ``out_dim`` Fourier components. Scaling
    the shape shifts the log-time profile, which the derivative plus the
    Fourier magnitude cancel.
    """
    params = params or SIHKSParams()
    taus = params.taus()
    if params.out_dim < 1 or params.out_dim > len(taus) - 1:
        raise DataError(f"out_dim {params.out_dim} outside 1..{len(taus) - 1}")
    h = hks(spectrum, params.base ** taus).values
    if np.any(h < HKS_FLOOR):
        bad = int(np.flatnonzero(np.any(h < HKS_FLOOR, axis=1))[0])
        logger.warning("heat signature underflow at point %d; clamped to %g",
                       bad, HKS_FLOOR)
        h = np.maximum(h, HKS_FLOOR)
    deriv = np.diff(np.log(h), axis=1) / params.tau_step
    mags = np.abs(np.fft.fft(deriv, axis=1))[:, :params.out_dim]
    return DescriptorField(mags, "sihks")


def wks(spectrum, params=None):
    """Wave kernel signature over a log-eigenvalue energy grid.

    WKS(s, e) = C_e sum_k phi_k(s)^2 exp(-(e - log lambda_k)^2 / (2 sigma^2))
    with C_e normalizing each energy's weights to sum 1. Zero eigenvalues
    (the constant mode, which ``lb_spectrum`` sets to exactly 0) are
    excluded from the sum.
    """
    params = params or WKSParams()
    lam = spectrum.eigenvalues
    if lam[-1] <= 0.0:
        raise DataError("all eigenvalues zero: wave signature undefined")
    pos = lam > 0.0
    loglam = np.log(lam[pos])
    phi2 = spectrum.eigenfunctions[:, pos] ** 2

    if params.energies is not None:
        energies = np.asarray(params.energies, dtype=np.float64)
    else:
        if params.dim < 1:
            raise DataError(f"need dim >= 1, got {params.dim}")
        energies = np.linspace(loglam[0], loglam[-1], params.dim)
    if params.sigma is not None:
        sigma = float(params.sigma)
    else:
        step = (energies[-1] - energies[0]) / (len(energies) - 1) \
            if len(energies) > 1 else 0.0
        sigma = 7.0 * step

    gap = energies[None, :] - loglam[:, None]
    if sigma == 0.0:
        weights = (gap == 0.0).astype(np.float64)
    else:
        with np.errstate(over="ignore"):
            weights = np.exp(-0.5 * (gap / sigma) ** 2)
    wsum = weights.sum(axis=0)
    if np.any(wsum == 0.0):
        bad = float(energies[int(np.argmin(wsum))])
        raise DataError(f"energy {bad:g} has zero total weight; widen sigma")
    return DescriptorField(phi2 @ (weights / wsum), "wks")


def lsf(cloud, params, seed=0):
    """Localized statistical feature histograms.

    For each point p1, every neighbor p2 within the radius yields a 4-tuple
    in the frame u = n1, v = (p2-p1) x u (normalized), w = u x v:

        beta1 = atan2(w . n2, u . n2)
        beta2 = v . n2
        beta3 = u . (p2-p1) / |p2-p1|
        beta4 = |p2-p1|

    Tuples fill a joint histogram with ``bins_per_dim`` bins per coordinate
    (raw counts). Pairs with |p2-p1| = 0 or p2-p1 parallel to n1 have no
    frame and are skipped. Dense neighborhoods are subsampled to
    ``neighbor_cap`` with a per-point stream derived from ``seed``.

    All neighbor pairs come from one k-d tree query as one array of
    directed (p1, p2) index pairs; frames, tuples and bins are computed on
    slices of ``PAIR_CHUNK`` pairs, and each slice is counted into every
    point's histogram with one ``bincount``.
    """
    pts = cloud.points
    nrm = cloud.normals
    n = len(pts)
    radius = params.radius
    nbins = params.bins_per_dim
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

    counts = np.zeros(n * dim, dtype=np.int64)
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
        counts += np.bincount(i * dim + flat, minlength=n * dim)
    empty = int(np.count_nonzero(degree == 0))
    if empty:
        logger.warning("%d of %d points have no neighbors within radius %g",
                       empty, n, radius)
    return DescriptorField(counts.reshape(n, dim), "lsf")


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
    return DescriptorField(np.concatenate([f.values for f in fields], axis=1),
                           "concat")
