"""Discrete Laplace-Beltrami operator and its truncated spectrum.

The stiffness matrix uses cotangent edge weights, the mass is the mixed
Voronoi vertex area (circumcentric cells for non-obtuse triangles, the
half/quarter midpoint split for obtuse ones). The spectrum solves the
generalized problem L phi = lambda A phi for the smallest eigenvalues
with one solver, shift-invert Lanczos (Vallet & Levy 2008, "Manifold
Harmonics"), at every mesh size.

The solve runs at unit area: L is dimensionless and lambda * area is
scale-free (Reuter et al. 2006, "Shape-DNA"), so dividing the mass by the
total area gives the solver the same problem at every mesh unit. The
residual bound stays absolute and is checked on the original L and A.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import DataError

# kept only because perfbench/tracing.py reads it to name lb_spectrum spans
DENSE_VERTEX_LIMIT = 4000

# eigenvalues at or below this fraction of the largest one are the zero
# mode (the constant function), which the solvers return at round-off level
ZERO_EIGENVALUE_RTOL = 1e-8


@dataclass
class LBSpectrum:
    """Truncated spectrum: ascending eigenvalues, mass-orthonormal modes."""

    eigenvalues: np.ndarray   # (k,) non-negative ascending
    eigenfunctions: np.ndarray  # (n, k), columns mass-orthonormal
    mass: np.ndarray          # (n,) positive Voronoi areas


def _corner_cotangents(vertices, faces):
    """Cotangent at each triangle corner, shape (m, 3); plus double areas."""
    p0 = vertices[faces[:, 0]]
    p1 = vertices[faces[:, 1]]
    p2 = vertices[faces[:, 2]]
    # cot at corner c = (u . v) / |u x v| for the two edges leaving c
    cots = np.empty((len(faces), 3))
    double_area = None
    for c, (a, b) in enumerate(((p1, p2), (p2, p0), (p0, p1))):
        o = (p0, p1, p2)[c]
        u = a - o
        v = b - o
        cross = np.cross(u, v)
        norm = np.linalg.norm(cross, axis=1)
        if np.any(norm == 0.0):
            raise DataError(
                f"degenerate face at index {int(np.argmin(norm))}"
            )
        cots[:, c] = np.einsum("ij,ij->i", u, v) / norm
        double_area = norm  # same for every corner
    return cots, double_area


def cotan_laplacian(mesh):
    """Sparse symmetric stiffness matrix with cotangent weights.

    Off-diagonal entries are -(cot a + cot b)/2 over the angles opposite
    the edge; diagonals make every row sum to zero, so the matrix is
    positive semidefinite with the constant vector in its kernel.
    """
    faces = mesh.faces
    cots, _ = _corner_cotangents(mesh.vertices, faces)
    n = mesh.n_vertices
    # each corner contributes cot/2 to the edge opposite it, symmetrically
    rows = np.concatenate([faces[:, 1], faces[:, 2],
                           faces[:, 2], faces[:, 0],
                           faces[:, 0], faces[:, 1]])
    cols = np.concatenate([faces[:, 2], faces[:, 1],
                           faces[:, 0], faces[:, 2],
                           faces[:, 1], faces[:, 0]])
    vals = 0.5 * np.concatenate([cots[:, 0], cots[:, 0],
                                 cots[:, 1], cots[:, 1],
                                 cots[:, 2], cots[:, 2]])
    weights = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    diag = np.asarray(weights.sum(axis=1)).ravel()
    lap = sp.diags(diag) - weights
    return lap.tocsr()


def voronoi_areas(mesh):
    """Per-vertex mixed Voronoi areas.

    Non-obtuse triangles distribute circumcentric cell areas
    (|e|^2 cot(opposite) / 8 per incident edge); a triangle with an obtuse
    corner gives half its area to that corner and a quarter to the others.
    """
    faces = mesh.faces
    cots, double_area = _corner_cotangents(mesh.vertices, faces)
    tri_area = 0.5 * double_area

    sq = np.empty((len(faces), 3))  # squared length of the edge opposite corner c
    v = mesh.vertices
    sq[:, 0] = np.sum((v[faces[:, 1]] - v[faces[:, 2]]) ** 2, axis=1)
    sq[:, 1] = np.sum((v[faces[:, 2]] - v[faces[:, 0]]) ** 2, axis=1)
    sq[:, 2] = np.sum((v[faces[:, 0]] - v[faces[:, 1]]) ** 2, axis=1)

    contrib = np.empty((len(faces), 3))
    # corner c touches the edges opposite the other two corners
    contrib[:, 0] = (sq[:, 1] * cots[:, 1] + sq[:, 2] * cots[:, 2]) / 8.0
    contrib[:, 1] = (sq[:, 2] * cots[:, 2] + sq[:, 0] * cots[:, 0]) / 8.0
    contrib[:, 2] = (sq[:, 0] * cots[:, 0] + sq[:, 1] * cots[:, 1]) / 8.0

    obtuse_at = cots < 0.0
    any_obtuse = obtuse_at.any(axis=1)
    for c in range(3):
        rows = any_obtuse
        contrib[rows, c] = np.where(obtuse_at[rows, c],
                                    0.5 * tri_area[rows],
                                    0.25 * tri_area[rows])

    areas = np.zeros(mesh.n_vertices)
    np.add.at(areas, faces.ravel(), contrib.ravel())
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise DataError(f"vertex {bad} has non-positive Voronoi area "
                        "(isolated or fully degenerate star)")
    return areas


def mesh_component_count(mesh):
    """Connected components of the face graph (edges from triangles)."""
    f = mesh.faces
    rows = np.concatenate([f[:, 0], f[:, 1], f[:, 2]])
    cols = np.concatenate([f[:, 1], f[:, 2], f[:, 0]])
    adj = sp.coo_matrix((np.ones(len(rows)), (rows, cols)),
                        shape=(mesh.n_vertices, mesh.n_vertices))
    return csgraph.connected_components(adj, directed=False,
                                        return_labels=False)


def lb_spectrum(lap, mass, k):
    """Lowest ``k`` eigenpairs of L phi = lambda diag(mass) phi, 1 <= k < n.

    Shift-invert Lanczos with a fixed start vector on the unit-area
    problem L phi' = lambda' (mass / area) phi'; it returns
    lambda = lambda' / area and phi = phi' / sqrt(area), so its shift and
    its convergence do not depend on the mesh unit. Lanczos cannot return
    all n pairs, hence k < n.

    The residual ||L phi - lambda M phi|| / ||M phi|| must stay below the
    absolute bound 1e-6 on the original operator and mass. At tiny mesh
    units (per-vertex area near 1e-9) that residual is round-off in
    L phi - lambda M phi, which no solver lowers, so such meshes are
    rejected. Eigenvalues at round-off level are snapped to exactly 0 and
    eigenvector signs are fixed so the largest-magnitude entry is positive.
    """
    n = lap.shape[0]
    if k < 1 or k >= n:
        raise DataError(f"need 1 <= k < {n} (the vertex count), got {k}")
    ncomp = csgraph.connected_components(abs(lap), directed=False,
                                         return_labels=False)
    if ncomp != 1:
        raise DataError(f"mesh has {ncomp} connected components; expected 1")

    # shift slightly negative: L itself is singular at 0
    v0 = np.full(n, 1.0 / np.sqrt(n))
    area = mass.sum()
    try:
        evals, evecs = eigsh(lap.tocsc(), k=k,
                             M=sp.diags(mass / area).tocsc(),
                             sigma=-0.01, which="LM", v0=v0)
    except ArpackNoConvergence as exc:
        raise DataError(f"eigensolver did not converge: "
                        f"{len(exc.eigenvalues)}/{k} pairs found")
    order = np.argsort(evals, kind="stable")
    evals = evals[order] / area
    evecs = evecs[:, order] / np.sqrt(area)

    resid = _max_residual(lap, mass, evals, evecs)
    if resid > 1e-6:
        raise DataError(f"eigensolver residual {resid:.3e} exceeds 1e-6")

    zero = evals <= ZERO_EIGENVALUE_RTOL * evals[-1]
    evals = np.where(zero, 0.0, evals)
    # a multiple zero eigenvalue means the operator decouples even when the
    # sparsity structure looks connected (e.g. cancelled cotangent weights)
    if k >= 2 and evals[-1] > 0.0 and zero[1]:
        raise DataError(f"mesh has {int(zero.sum())} connected components; "
                        "expected 1")
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        if col[np.argmax(np.abs(col))] < 0.0:
            evecs[:, j] = -col
    return LBSpectrum(evals, np.ascontiguousarray(evecs), np.asarray(mass))


def _max_residual(lap, mass, evals, evecs):
    num = lap @ evecs - (mass[:, None] * evecs) * evals[None, :]
    den = np.linalg.norm(mass[:, None] * evecs, axis=0)
    return float(np.max(np.linalg.norm(num, axis=0) / den))


def mesh_spectrum(mesh, k):
    """Build operator and mass for ``mesh``; return its lowest modes.

    That is k modes, or n - 1 on a mesh of n <= k vertices.
    """
    ncomp = mesh_component_count(mesh)
    if ncomp != 1:
        raise DataError(f"mesh has {ncomp} connected components; expected 1")
    lap = cotan_laplacian(mesh)
    mass = voronoi_areas(mesh)
    return lb_spectrum(lap, mass, min(k, mesh.n_vertices - 1))
