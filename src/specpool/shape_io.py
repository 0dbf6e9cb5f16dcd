"""Shape parsing, dataset manifests, and surface point sampling.

Meshes are read from ASCII OFF, OBJ (``v``/``f`` records) and ASCII PLY
and written as ASCII OFF. Manifests are tab-separated text files, one
shape per line.
"""

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, ManifestError, MeshFormatError

logger = logging.getLogger(__name__)

MESH_EXTENSIONS = (".off", ".obj", ".ply")
SPLITS = ("train", "test")


@dataclass
class TriMesh:
    """Triangle mesh: ``vertices`` (n, 3) float and ``faces`` (m, 3) int."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DataError(f"vertices must be (n, 3), got {self.vertices.shape}")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise DataError(f"faces must be (m, 3), got {self.faces.shape}")
        if len(self.vertices) < 3 or len(self.faces) < 1:
            raise DataError(
                f"mesh too small: {len(self.vertices)} vertices, {len(self.faces)} faces"
            )
        if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
            raise DataError("face index out of range")
        f = self.faces
        if np.any((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])):
            raise DataError("face with repeated vertex index")

    @property
    def n_vertices(self):
        return len(self.vertices)


@dataclass
class PointCloud:
    """Sampled surface points with unit normals, both (n, 3)."""

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.normals = np.ascontiguousarray(self.normals, dtype=np.float64)
        if self.points.shape != self.normals.shape or self.points.ndim != 2 \
                or self.points.shape[1] != 3:
            raise DataError(
                f"points/normals must be matching (n, 3) arrays, got "
                f"{self.points.shape} and {self.normals.shape}"
            )
        norms = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-6):
            raise DataError("normals must have unit length within 1e-6")


@dataclass
class ManifestEntry:
    shape_id: str
    relpath: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    """Shape inventory with labels and a train/test split assignment."""

    entries: list
    class_count: int
    root: Path = field(default_factory=Path)

    def full_path(self, entry):
        return Path(self.root) / entry.relpath

    def subset(self, split):
        return [e for e in self.entries if e.split == split]


# ---------------------------------------------------------------------------
# geometry helpers

def face_areas(vertices, faces):
    """Triangle areas, shape (m,)."""
    a = vertices[faces[:, 0]]
    cross = np.cross(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a)
    return 0.5 * np.linalg.norm(cross, axis=1)


def face_unit_normals(vertices, faces):
    """Unit face normals; degenerate faces raise ``DataError``."""
    a = vertices[faces[:, 0]]
    cross = np.cross(vertices[faces[:, 1]] - a, vertices[faces[:, 2]] - a)
    norms = np.linalg.norm(cross, axis=1)
    if np.any(norms == 0.0):
        raise DataError(f"degenerate face at index {int(np.argmin(norms))}")
    return cross / norms[:, None]


def bounding_sphere_diameter(points):
    """Diameter of the bounding sphere centered at the bbox midpoint."""
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    return 2.0 * float(np.linalg.norm(points - center, axis=1).max())


# ---------------------------------------------------------------------------
# mesh file parsing

def _mesh_extension(path):
    ext = path.suffix.lower()
    if ext not in MESH_EXTENSIONS:
        raise MeshFormatError(path, f"unsupported mesh extension {ext!r}")
    return ext


def mesh_file_hash(path):
    """Hex sha256 of a mesh file's lowercased extension and bytes.

    It keys the cache records computed from the file without parsing it.
    The extension is part of the digest because the same bytes parse
    differently as OFF, OBJ or PLY. A file ``load_mesh`` rejects before
    parsing raises the same ``MeshFormatError`` here.
    """
    path = Path(path)
    ext = _mesh_extension(path)
    h = hashlib.sha256(ext.encode("ascii") + b"\0")
    h.update(_read_bytes(path))
    return h.hexdigest()


def _read_bytes(path):
    try:
        return path.read_bytes()
    except OSError as exc:
        raise MeshFormatError(path, f"cannot read file: {exc}")


def load_mesh(path):
    """Parse a mesh file (OFF, OBJ or ASCII PLY, by extension)."""
    path = Path(path)
    ext = _mesh_extension(path)
    data = _read_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MeshFormatError(
            path, f"byte 0x{data[exc.start]:02x} at offset {exc.start} is "
                  f"not UTF-8; mesh files are read as text",
            data.count(b"\n", 0, exc.start) + 1)
    if ext == ".off":
        vertices, faces = _parse_off(path, text)
    elif ext == ".obj":
        vertices, faces = _parse_obj(path, text)
    else:
        vertices, faces = _parse_ply(path, text)
    try:
        return TriMesh(np.asarray(vertices), np.asarray(faces))
    except DataError as exc:
        raise MeshFormatError(path, str(exc))


def _content_lines(text):
    """Yield (line_number, stripped_line) skipping blanks and # comments."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line


def _parse_off(path, text):
    lines = list(_content_lines(text))
    if not lines:
        raise MeshFormatError(path, "empty file")
    lineno, header = lines[0]
    tokens = header.split()
    if tokens[0] != "OFF":
        raise MeshFormatError(path, "missing OFF header", lineno)
    if len(tokens) >= 4:
        counts, body = tokens[1:4], lines[1:]
    else:
        if len(lines) < 2:
            raise MeshFormatError(path, "missing counts line", lineno)
        counts, body = lines[1][1].split(), lines[2:]
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        raise MeshFormatError(path, f"bad counts line {counts!r}")
    if len(body) < nv + nf:
        raise MeshFormatError(
            path,
            f"declares {nv} vertices / {nf} faces but only {len(body)} data lines "
            "follow",
            body[-1][0] if body else lineno,
        )
    vertices = []
    for lineno, line in body[:nv]:
        parts = line.split()
        if len(parts) < 3:
            raise MeshFormatError(path, f"bad vertex line {line!r}", lineno)
        try:
            vertices.append([float(x) for x in parts[:3]])
        except ValueError:
            raise MeshFormatError(path, f"bad vertex line {line!r}", lineno)
    faces = []
    for lineno, line in body[nv:nv + nf]:
        parts = line.split()
        try:
            arity = int(parts[0])
            idx = [int(x) for x in parts[1:1 + arity]]
        except (ValueError, IndexError):
            raise MeshFormatError(path, f"bad face line {line!r}", lineno)
        if arity != 3 or len(idx) != 3:
            raise MeshFormatError(path, f"non-triangle face (arity {arity})", lineno)
        if min(idx) < 0 or max(idx) >= nv:
            raise MeshFormatError(path, f"face index out of range: {idx}", lineno)
        faces.append(idx)
    return vertices, faces


def _parse_obj(path, text):
    vertices, faces = [], []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshFormatError(path, f"bad vertex line {line!r}", lineno)
            try:
                vertices.append([float(x) for x in parts[1:4]])
            except ValueError:
                raise MeshFormatError(path, f"bad vertex line {line!r}", lineno)
        elif parts[0] == "f":
            if len(parts) != 4:
                raise MeshFormatError(path, "non-triangle face", lineno)
            try:
                # tokens may carry /vt/vn suffixes; only the vertex index is used
                idx = [int(tok.split("/")[0]) for tok in parts[1:]]
            except ValueError:
                raise MeshFormatError(path, f"bad face line {line!r}", lineno)
            if min(idx) < 1:
                raise MeshFormatError(path, f"face index out of range: {idx}", lineno)
            faces.append([i - 1 for i in idx])
    if faces and max(max(f) for f in faces) >= len(vertices):
        raise MeshFormatError(path, "face index out of range")
    return vertices, faces


def _parse_ply(path, text):
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MeshFormatError(path, "missing ply header", 1)
    elements = []  # (name, count, property names)
    pos = 1
    fmt_seen = False
    while pos < len(lines):
        parts = lines[pos].strip().split()
        pos += 1
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            if parts[1] != "ascii":
                raise MeshFormatError(path, f"unsupported PLY format {parts[1]!r}", pos)
            fmt_seen = True
        elif parts[0] == "element":
            elements.append([parts[1], int(parts[2]), []])
        elif parts[0] == "property":
            if not elements:
                raise MeshFormatError(path, "property before element", pos)
            elements[-1][2].append(parts[-1])
        elif parts[0] == "end_header":
            break
    else:
        raise MeshFormatError(path, "missing end_header")
    if not fmt_seen:
        raise MeshFormatError(path, "missing format line")

    data = [(i, ln.strip()) for i, ln in enumerate(lines[pos:], start=pos + 1)
            if ln.strip()]
    vertices, faces = [], []
    cursor = 0
    for name, count, props in elements:
        rows = data[cursor:cursor + count]
        if len(rows) < count:
            raise MeshFormatError(path, f"element {name!r} declares {count} rows, "
                                        f"found {len(rows)}")
        cursor += count
        if name == "vertex":
            try:
                cols = [props.index(c) for c in ("x", "y", "z")]
            except ValueError:
                raise MeshFormatError(path, "vertex element lacks x/y/z properties")
            for lineno, line in rows:
                vals = line.split()
                try:
                    vertices.append([float(vals[c]) for c in cols])
                except (ValueError, IndexError):
                    raise MeshFormatError(path, f"bad vertex line {line!r}", lineno)
        elif name == "face":
            for lineno, line in rows:
                vals = line.split()
                try:
                    arity = int(vals[0])
                    idx = [int(x) for x in vals[1:1 + arity]]
                except (ValueError, IndexError):
                    raise MeshFormatError(path, f"bad face line {line!r}", lineno)
                if arity != 3:
                    raise MeshFormatError(path, f"non-triangle face (arity {arity})",
                                          lineno)
                if min(idx) < 0 or max(idx) >= len(vertices):
                    raise MeshFormatError(path, f"face index out of range: {idx}",
                                          lineno)
                faces.append(idx)
    return vertices, faces


def save_mesh(path, mesh):
    """Write a mesh as ASCII OFF with full-precision coordinates."""
    path = Path(path)
    ext = path.suffix.lower()
    if ext != ".off":
        raise MeshFormatError(path, f"cannot write mesh extension {ext!r}; "
                                    "use .off")
    v, f = mesh.vertices, mesh.faces
    out = ["OFF", f"{len(v)} {len(f)} 0"]
    out.extend("%.17g %.17g %.17g" % tuple(p) for p in v)
    out.extend("3 %d %d %d" % tuple(t) for t in f)
    path.write_text("\n".join(out) + "\n")


# ---------------------------------------------------------------------------
# point sampling

def sample_points(mesh, n, seed):
    """Sample ``n`` points uniformly w.r.t. surface area.

    Faces are selected with probability proportional to area, then a point
    is placed uniformly inside the chosen triangle. Each sample carries the
    normal of its source face. Deterministic given ``seed``.
    """
    if n < 1:
        raise DataError(f"need n >= 1 points, got {n}")
    areas = face_areas(mesh.vertices, mesh.faces)
    keep = areas > 0.0
    if not keep.any():
        raise DataError("mesh has zero total area")
    if not keep.all():
        logger.warning("dropping %d zero-area faces before sampling",
                       int((~keep).sum()))
    faces = mesh.faces[keep]
    areas = areas[keep]
    normals = face_unit_normals(mesh.vertices, faces)

    rng = np.random.default_rng(seed)
    cum = np.cumsum(areas)
    pick = np.searchsorted(cum, rng.random(n) * cum[-1], side="right")
    pick = np.minimum(pick, len(faces) - 1)

    r1, r2 = rng.random((2, n))
    s = np.sqrt(r1)
    a = mesh.vertices[faces[pick, 0]]
    b = mesh.vertices[faces[pick, 1]]
    c = mesh.vertices[faces[pick, 2]]
    points = (1.0 - s)[:, None] * a + (s * (1.0 - r2))[:, None] * b \
        + (s * r2)[:, None] * c
    return PointCloud(points, normals[pick])


# ---------------------------------------------------------------------------
# manifests

def load_manifest(path, class_count=None):
    """Parse a manifest: ``shape_id<TAB>relpath<TAB>label<TAB>split`` lines."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")
    entries = []
    seen = set()
    for lineno, line in _content_lines(path.read_text()):
        parts = line.split("\t")
        if len(parts) != 4:
            raise ManifestError(f"{path}:{lineno}: expected 4 tab-separated fields, "
                                f"got {len(parts)}")
        shape_id, relpath, label_s, split = [p.strip() for p in parts]
        if shape_id in seen:
            raise ManifestError(f"{path}:{lineno}: duplicate shape_id {shape_id!r}")
        seen.add(shape_id)
        if not relpath:
            raise ManifestError(f"{path}:{lineno}: missing file path")
        try:
            label = int(label_s)
        except ValueError:
            raise ManifestError(f"{path}:{lineno}: bad label {label_s!r}")
        if split not in SPLITS:
            raise ManifestError(f"{path}:{lineno}: bad split {split!r}")
        if label < 0:
            raise ManifestError(f"{path}:{lineno}: negative label {label}")
        entries.append(ManifestEntry(shape_id, relpath, label, split))
    if not entries:
        raise ManifestError(f"{path}: manifest is empty")
    inferred = max(e.label for e in entries) + 1
    if class_count is None:
        class_count = inferred
    elif inferred > class_count:
        bad = next(e for e in entries if e.label >= class_count)
        raise ManifestError(
            f"label {bad.label} of shape {bad.shape_id!r} out of range for "
            f"class_count {class_count}"
        )
    return DatasetManifest(entries, class_count, root=path.parent)


def save_manifest(path, manifest):
    path = Path(path)
    lines = ["# shape_id\tpath\tlabel\tsplit"]
    lines += [f"{e.shape_id}\t{e.relpath}\t{e.label}\t{e.split}"
              for e in manifest.entries]
    path.write_text("\n".join(lines) + "\n")
