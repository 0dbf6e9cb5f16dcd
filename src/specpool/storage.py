"""Deterministic array-bundle files and the per-shape computation cache.

Bundles are plain ``.npz`` archives written with a sorted key order so that
identical inputs produce byte-identical files. The cache stores one record
per shape, stage, digest of the shape's mesh file and parameter hash; a
corrupted record is treated as a miss and recomputed with a warning.
"""

import hashlib
import json
import logging
import os
import secrets
import zipfile
from pathlib import Path

import numpy as np

from .errors import CacheError

logger = logging.getLogger(__name__)

CACHE_ENV_VAR = "SPECPOOL_CACHE"

# instrumentation: how many records were served from disk vs recomputed,
# reset by the CLI's extract command and by tests
counters = {"hits": 0, "misses": 0}


def reset_counters():
    for k in counters:
        counters[k] = 0


def save_bundle(path, arrays):
    """Write a dict of arrays to ``path`` as an uncompressed .npz archive.

    Keys are written in sorted order and scalars are promoted to 0-d arrays,
    so equal inputs yield byte-identical files.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    ordered = {k: np.asarray(arrays[k]) for k in sorted(arrays)}
    # a temp name of its own per writer: concurrent writers of one record
    # never share a file, and whichever replaces last leaves a whole record
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            np.savez(fh, **ordered)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_bundle(path):
    """Read a bundle back as a plain dict of arrays."""
    with np.load(path) as data:
        return {k: data[k] for k in data.files}


def params_hash(params):
    """Stable short digest of a parameter mapping (JSON, sorted keys)."""
    blob = json.dumps(params, sort_keys=True, default=_jsonable).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot hash parameter of type {type(obj).__name__}")


class ShapeCache:
    """On-disk cache of per-shape intermediates (spectra, descriptors, ...).

    ``get_or_compute`` keys a record by shape id, stage name, a digest of
    the shape's mesh file (``shape_io.mesh_file_hash``: its extension and
    bytes) and a hash of the stage parameters, so stale records are never
    served after the file or the configuration changes. The pipeline puts
    its per-stage code versions, the parser's included, among the
    parameters, so records written by older code are not served either.
    """

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @classmethod
    def from_env(cls, override=None):
        """Cache at ``override``, else ``$SPECPOOL_CACHE``, else None."""
        root = override or os.environ.get(CACHE_ENV_VAR)
        return cls(root) if root else None

    def _record_path(self, shape_id, stage, content_hash, phash):
        name = f"{shape_id}.{stage}.{content_hash[:16]}.{phash}.npz"
        return self.root / name

    def get_or_compute(self, shape_id, stage, content_hash, params, compute):
        """Return cached arrays for this key, running ``compute`` on a miss."""
        phash = params_hash(params)
        path = self._record_path(shape_id, stage, content_hash, phash)
        if path.exists():
            try:
                arrays = load_bundle(path)
                counters["hits"] += 1
                return arrays
            except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
                logger.warning("cache record %s unreadable (%s), recomputing",
                               path.name, exc)
                try:
                    path.unlink()
                except OSError:
                    pass
        counters["misses"] += 1
        arrays = compute()
        if not isinstance(arrays, dict):
            raise CacheError(f"compute for stage {stage!r} must return a dict")
        save_bundle(path, arrays)
        return arrays
