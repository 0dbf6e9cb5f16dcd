import contextlib

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial import cKDTree

from specpool.descriptors import DescriptorField
from specpool.rng import substream
from specpool.shape_io import TriMesh
from specpool.trainer import FeatureSet


@pytest.fixture
def equilateral_mesh():
    verts = np.array([[0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.5, np.sqrt(3.0) / 2.0, 0.0]])
    return TriMesh(verts, np.array([[0, 1, 2]]))


@pytest.fixture
def right_triangle_mesh():
    # right angle at vertex 0, legs of length 1
    verts = np.array([[0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0]])
    return TriMesh(verts, np.array([[0, 1, 2]]))


@pytest.fixture
def square_mesh():
    # unit square as two right triangles sharing the diagonal 0-2
    verts = np.array([[0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [1.0, 1.0, 0.0],
                      [0.0, 1.0, 0.0]])
    return TriMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


@pytest.fixture
def tetra_mesh():
    verts = np.array([[1.0, 1.0, 1.0],
                      [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0],
                      [-1.0, -1.0, 1.0]])
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return TriMesh(verts, faces)


def random_rotation(rng, d=3):
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_spd(rng, d, rank=None):
    m = rng.normal(size=(d, rank or d))
    return m @ m.T / d


def random_simplex(rng, n):
    # dyadic rationals k/2^20: entries and partial sums are exact binary
    # floats, so the vector sums to exactly 1.0
    total = 1 << 20
    p = rng.uniform(0.1, 1.0, size=n)
    k = rng.multinomial(total - n, p / p.sum()) + 1
    return k / float(total)


# ---------------------------------------------------------------------------
# oracles: independent reference paths the production code is checked against

def reference_scatter(vec, d, offdiag=0.5):
    """Symmetric matrix from an upper-triangle gradient, off-diagonals
    placed in both mirror slots scaled by ``offdiag``."""
    if len(vec) != d * (d + 1) // 2:
        raise ValueError(f"gradient length {len(vec)} does not fit d = {d}")
    s = np.zeros((d, d))
    s[np.triu_indices(d)] = vec
    off = np.triu(s, 1)
    return np.diag(np.diag(s)) + offdiag * (off + off.T)


def _powers(lam, n_weights):
    return lam[:, None] ** (np.arange(n_weights) / (n_weights - 1.0))[None, :]


def reference_forward(U, lam, gamma):
    """Upper triangle of U f(Lambda) U^T, reconstructed explicitly."""
    fvals = _powers(lam, len(gamma)) @ gamma
    return ((U * fvals) @ U.T)[np.triu_indices(len(lam))]


def reference_backward(U, lam, gamma, grad, offdiag=0.5):
    """d(loss)/d(omega) for the upper-triangle gradient ``grad``.

    Scatters ``grad`` into a symmetric matrix, rotates it into the
    eigenbasis and takes the diagonal, contracts with the power table and
    projects through the softmax.
    """
    s = reference_scatter(grad, len(lam), offdiag)
    dlam = np.einsum("jk,jk->k", U, s @ U)
    dgamma = _powers(lam, len(gamma)).T @ dlam
    return gamma * (dgamma - gamma @ dgamma)


def unhalved_q(q):
    """Q with its off-diagonal rows doubled: Q^T then pulls a gradient back
    through the unhalved scatter (``reference_backward`` with offdiag=1)."""
    d = int(round((np.sqrt(8 * len(q) + 1) - 1) / 2))
    i, j = np.triu_indices(d)
    doubled = q.copy()
    doubled[i != j] *= 2.0
    return doubled


def _unhalved_pull_gamma_grad(self, indices, dx):
    dgamma = np.zeros(self.n_weights)
    for row, i in enumerate(indices):
        dgamma += unhalved_q(self.q[i]).T @ dx[row]
    return dgamma


@pytest.fixture
def unhalved_scatter(monkeypatch):
    """Context manager that swaps the trainer's transform backward for the
    unhalved off-diagonal scatter, which the gradient check must reject."""
    @contextlib.contextmanager
    def inject():
        with monkeypatch.context() as m:
            m.setattr(FeatureSet, "pull_gamma_grad",
                      _unhalved_pull_gamma_grad)
            yield
    return inject


def dense_lb_spectrum(lap, mass, k):
    """Lowest ``k`` eigenpairs of L phi = lambda diag(mass) phi, dense.

    The generalized LAPACK solve on the full matrices, at the mesh's own
    unit: the reference that ``lb_operator.lb_spectrum``'s shift-invert
    solve is checked against. Returns (eigenvalues, eigenvectors) as
    LAPACK gives them, with no zero snap and no sign fix.
    """
    return scipy.linalg.eigh(lap.toarray(), np.diag(mass),
                             subset_by_index=(0, k - 1))


def loo_nn_accuracy(embeddings, labels):
    """Leave-one-out 1-nearest-neighbor accuracy.

    Cross-checks the NN retrieval metric: each shape is classified by its
    nearest other shape.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    correct = 0
    for i in range(len(embeddings)):
        dists = np.linalg.norm(embeddings - embeddings[i], axis=1)
        dists[i] = np.inf
        if labels[int(np.argmin(dists))] == labels[i]:
            correct += 1
    return correct / len(embeddings)


def lsf_reference(cloud, params, seed=0):
    """Localized statistical feature histograms, one point at a time.

    The per-point loop that ``descriptors.lsf`` replaces with array
    operations over all neighbour pairs; the two must agree bit for bit.
    """
    pts = cloud.points
    nrm = cloud.normals
    n = len(pts)
    radius = params.radius
    nbins = params.bins_per_dim
    dim = nbins ** 4
    lows = np.array([-np.pi, -1.0, -1.0, 0.0])
    spans = np.array([2.0 * np.pi, 2.0, 2.0, radius])
    widths = spans / nbins

    tree = cKDTree(pts)
    neighborhoods = tree.query_ball_point(pts, radius)
    values = np.zeros((n, dim))
    for i in range(n):
        nb = np.array(sorted(j for j in neighborhoods[i] if j != i),
                      dtype=np.intp)
        if len(nb) == 0:
            continue
        if len(nb) > params.neighbor_cap:
            rng = substream(seed, "lsf", i)
            nb = np.sort(rng.choice(nb, params.neighbor_cap, replace=False))
        d = pts[nb] - pts[i]
        dist = np.linalg.norm(d, axis=1)
        u = nrm[i]
        dxu = np.cross(d, u)
        dxu_norm = np.linalg.norm(dxu, axis=1)
        ok = (dist > 0.0) & (dxu_norm > 0.0)
        if not ok.any():
            continue
        d, dist = d[ok], dist[ok]
        v = dxu[ok] / dxu_norm[ok, None]
        w = np.cross(u, v)
        n2 = nrm[nb[ok]]
        beta = np.empty((len(d), 4))
        beta[:, 0] = np.arctan2(np.einsum("ij,ij->i", w, n2), n2 @ u)
        beta[:, 1] = np.einsum("ij,ij->i", v, n2)
        beta[:, 2] = (d @ u) / dist
        beta[:, 3] = dist
        bins = np.ceil((beta - lows) / widths).astype(np.int64) - 1
        np.clip(bins, 0, nbins - 1, out=bins)
        flat = ((bins[:, 0] * nbins + bins[:, 1]) * nbins
                + bins[:, 2]) * nbins + bins[:, 3]
        values[i] = np.bincount(flat, minlength=dim)
    return DescriptorField(values, "lsf")
