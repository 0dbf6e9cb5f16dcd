"""Deterministic synthetic benchmark of smoothly deformed closed surfaces.

Each class is a parametric base shape (sphere, ellipsoid, torus, capsule,
bumpy-sphere); each instance applies a smooth low-frequency displacement
along vertex normals (approximately isometric at small amplitude) plus a
random rigid motion. Output is OFF files and a manifest.
"""

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import substream
from .shape_io import (DatasetManifest, ManifestEntry, TriMesh, face_areas,
                       save_manifest, save_mesh)

logger = logging.getLogger(__name__)

GENERATORS = ("sphere", "ellipsoid", "torus", "capsule", "bumpy_sphere")

# base-shape scale; sized so that descriptor log-time grids see the whole
# spectral decay well inside their sampling window
DEFAULT_SCALE = 256.0


@dataclass
class SynthSpec:
    classes: tuple = ("sphere", "ellipsoid", "torus", "capsule")
    instances_per_class: int = 20
    resolution: int = 1500       # target vertex count per mesh
    amplitude: float = 0.06     # displacement relative to shape scale
    seed: int = 0

    def __post_init__(self):
        if len(self.classes) < 2:
            raise DataError("need at least 2 classes")
        unknown = set(self.classes) - set(GENERATORS)
        if unknown:
            raise DataError(f"unknown generator kinds {sorted(unknown)}")
        if self.instances_per_class < 4:
            raise DataError("need at least 4 instances per class")
        if self.resolution < 12:
            raise DataError("resolution too small")
        if not 0.0 <= self.amplitude < 0.5:
            raise DataError("amplitude must be in [0, 0.5)")


# ---------------------------------------------------------------------------
# base meshes

def icosahedron():
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    return verts, faces


def icosphere(level):
    """Subdivided icosahedron projected to the unit sphere.

    Vertex counts by level: 12, 42, 162, 642, 2562, ... Each level keeps
    the vertices of the one before and appends its edge midpoints
    (``_subdivide``), so vertex and face order are fixed by the level.
    """
    verts, faces = icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
        verts /= np.linalg.norm(verts, axis=1)[:, None]
    return verts, faces


def _subdivide(verts, faces):
    """Split every face into four at its edge midpoints.

    The input vertices keep their indices. Midpoint vertices follow them,
    numbered in the order their edges are first met walking the faces and,
    within a face (a, b, c), the edges ab, bc, ca; each is 0.5 * (v_i + v_j),
    the same in either orientation. Face (a, b, c) becomes (a, ab, ca),
    (b, bc, ab), (c, ca, bc), (ab, bc, ca), in that order.
    """
    n = len(verts)
    edges = faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    keys = edges.min(axis=1) * n + edges.max(axis=1)
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = edges[first[order]]
    mids = 0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]])
    ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    out = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1)
    return np.concatenate([verts, mids]), out.reshape(-1, 3)


def icosphere_level_for(target_vertices):
    """Largest subdivision level whose vertex count stays within target."""
    level, count = 0, 12
    while count * 4 - 6 <= target_vertices:
        level += 1
        count = count * 4 - 6
    return level


def torus_mesh(n_major, n_minor, major_radius=1.0, minor_radius=0.35):
    """Torus sampled on an ``n_major`` x ``n_minor`` angle grid.

    Grid point (i, j) is vertex i * n_minor + j. Each cell, in row-major
    (i, j) order, gives the faces (a, b, c) and (a, c, d) with a = (i, j),
    b = (i + 1, j), c = (i + 1, j + 1) and d = (i, j + 1), indices modulo
    the grid.
    """
    u = 2.0 * np.pi * np.arange(n_major) / n_major
    v = 2.0 * np.pi * np.arange(n_minor) / n_minor
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (major_radius + minor_radius * np.cos(vv)) * np.cos(uu)
    y = (major_radius + minor_radius * np.cos(vv)) * np.sin(uu)
    z = minor_radius * np.sin(vv)
    verts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    i = np.arange(n_major)[:, None]
    j = np.arange(n_minor)[None, :]
    i1, j1 = (i + 1) % n_major, (j + 1) % n_minor
    a, b = i * n_minor + j, i1 * n_minor + j
    c, d = i1 * n_minor + j1, i * n_minor + j1
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return verts, faces


def base_shape(kind, resolution):
    """Unit-scale base mesh for a generator kind."""
    level = icosphere_level_for(resolution)
    if kind == "sphere":
        return icosphere(level)
    if kind == "ellipsoid":
        verts, faces = icosphere(level)
        return verts * np.array([1.0, 0.62, 0.45]), faces
    if kind == "capsule":
        verts, faces = icosphere(level)
        verts = verts.copy()
        verts[:, 2] += 0.8 * np.sign(verts[:, 2])
        return verts, faces
    if kind == "bumpy_sphere":
        verts, faces = icosphere(level)
        x, y, z = verts.T
        radial = 1.0 + 0.16 * (x * y + y * z) + 0.12 * (x * x - z * z)
        return verts * radial[:, None], faces
    if kind == "torus":
        n_major = max(int(round(np.sqrt(target_ratio() * resolution))), 8)
        n_minor = max(int(round(n_major / target_ratio())), 6)
        return torus_mesh(n_major, n_minor)
    raise DataError(f"unknown generator kind {kind!r}")


def target_ratio():
    # major/minor grid aspect for the torus, roughly matching its radii
    return 1.6


def vertex_normals(verts, faces):
    """Area-weighted vertex normals, unit length."""
    a = verts[faces[:, 0]]
    cross = np.cross(verts[faces[:, 1]] - a, verts[faces[:, 2]] - a)
    normals = np.zeros_like(verts)
    np.add.at(normals, faces[:, 0], cross)
    np.add.at(normals, faces[:, 1], cross)
    np.add.at(normals, faces[:, 2], cross)
    norms = np.linalg.norm(normals, axis=1)
    if np.any(norms == 0.0):
        raise DataError("vertex with zero normal")
    return normals / norms[:, None]


# ---------------------------------------------------------------------------
# instance synthesis

def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _deform(verts, faces, rng, amplitude):
    """Smooth low-frequency displacement along vertex normals."""
    radius = np.linalg.norm(verts - verts.mean(axis=0), axis=1).max()
    normals = vertex_normals(verts, faces)
    disp = np.zeros(len(verts))
    for _ in range(3):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        wave = direction * rng.uniform(0.6, 1.8) / radius
        phase = rng.uniform(0.0, 2.0 * np.pi)
        disp += rng.uniform(0.5, 1.0) * np.sin(verts @ wave + phase)
    disp *= amplitude * radius / 3.0
    return verts + disp[:, None] * normals


def make_instance(kind, resolution, amplitude, rng):
    """One deformed, rigidly moved instance of a class.

    A deformation that degenerates any triangle is retried at half
    amplitude (logged).
    """
    base_verts, faces = base_shape(kind, resolution)
    amp = amplitude
    for attempt in range(4):
        verts = _deform(base_verts, faces, rng, amp) if amp > 0 \
            else base_verts
        areas = face_areas(verts, faces)
        if areas.min() > 1e-12 * areas.max():
            break
        logger.warning("degenerate %s instance at amplitude %.3g; "
                       "retrying at half amplitude", kind, amp)
        amp *= 0.5
    else:
        raise DataError(f"could not generate a valid {kind} instance")
    verts = verts @ _random_rotation(rng).T
    verts = (verts + rng.uniform(-0.5, 0.5, size=3)) * DEFAULT_SCALE
    return TriMesh(verts, faces)


def generate(spec, out_dir):
    """Write all instance meshes plus a manifest; returns the manifest.

    Deterministic: every instance derives its own random stream from
    (seed, class, index), and files are written with fixed formatting.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for label, kind in enumerate(spec.classes):
        for i in range(spec.instances_per_class):
            rng = substream(spec.seed, "shape", kind, i)
            mesh = make_instance(kind, spec.resolution, spec.amplitude, rng)
            shape_id = f"{kind}_{i:03d}"
            relpath = f"{shape_id}.off"
            save_mesh(out_dir / relpath, mesh)
            entries.append(ManifestEntry(shape_id, relpath, label, "train"))
    manifest = DatasetManifest(entries, len(spec.classes), root=out_dir)
    save_manifest(out_dir / "manifest.tsv", manifest)
    return manifest
