"""End-to-end orchestration shared by the command line and the test suite.

Extraction runs the offline stages per shape (spectrum or sampled cloud,
raw descriptors, pooling, eigendecomposition of the pooled matrix) behind
the content-addressed cache. Feature assembly is the only code that knows
the feature modes: it turns cached records into the trainer's per-shape
features (a static row for the static modes, the eigenpairs U_r and the
power table P0 for ``stnet``), and the evaluation helpers produce
embeddings, ranked lists, and reports.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import descriptors, evaluation, lb_operator, metric, pooling, spdm, \
    trainer
from .config import SPECTRAL_DESCRIPTORS
from .errors import DataError, SpecpoolError
from .rng import substream
from .shape_io import (PointCloud, bounding_sphere_diameter, load_mesh,
                       mesh_file_hash, sample_points)

logger = logging.getLogger(__name__)

ABLATIONS = ("surf_o1", "surf_o2", "surf_o1_ml", "surf_o2_ml", "st_net")

TRAINED_ABLATIONS = ("surf_o1_ml", "surf_o2_ml", "st_net")

_HKS_DEFAULT_TIMES = 16

# Version of the code behind each cache stage. Bump a stage's number when a
# change alters what it stores: a record's key carries the versions of its
# stage and of every stage it is computed from, so older records miss.
# Records are keyed on the mesh file's bytes, not on its parse, so "mesh"
# heads every chain: bump it when parsing a file gives another mesh.
CODE_VERSIONS = {"mesh": 2, "spectrum": 3, "cloud": 1, "descriptor": 1,
                 "pooled": 1, "eig": 2}


@dataclass
class ShapeRecord:
    """Arrays the downstream stages need for one shape."""

    shape_id: str
    label: int
    o1: np.ndarray        # pooled first-order vector
    H: np.ndarray         # pooled second-order matrix
    # the r normalized eigenvalues of H above spdm.ZERO_EIGENVALUE_TOL and
    # their eigenvectors (d x r); the other d - r eigenvalues are exactly 0
    U: np.ndarray
    lam: np.ndarray


def _descriptor_params(run):
    # the seed only matters where randomness enters (sampling, LSF caps)
    params = {"descriptor": run.descriptor}
    if run.descriptor == "lsf":
        params.update(n_points=run.n_points, seed=run.seed,
                      lsf_radius_frac=run.lsf_radius_frac,
                      neighbor_cap=run.neighbor_cap)
    else:
        params.update(k_eig=run.k_eig)
    return params


def _spectral_field(spectrum, run):
    if run.descriptor == "sihks_wks":
        return descriptors.concat([descriptors.sihks(spectrum),
                                   descriptors.wks(spectrum)])
    if run.descriptor == "sihks":
        return descriptors.sihks(spectrum)
    if run.descriptor == "wks":
        return descriptors.wks(spectrum)
    lam_top = spectrum.eigenvalues[-1]
    lam_low = max(spectrum.eigenvalues[1], lam_top * 1e-6)
    times = np.geomspace(4.0 / lam_top, 4.0 / lam_low, _HKS_DEFAULT_TIMES)
    # lambda_1 and lambda_top equal to round-off collapse the grid
    if np.any(np.diff(times) <= 0.0):
        raise DataError("HKS needs two distinct positive eigenvalues among "
                        f"the k_eig = {run.k_eig} retained modes; they span "
                        f"only {lam_low:.6g} to {lam_top:.6g}")
    return descriptors.hks(spectrum, times)


def extract_shape(entry, manifest, run, cache):
    """Offline stages for one shape, each behind the cache.

    Every record is keyed on the digest of the mesh file's bytes
    (``mesh_file_hash``). A stage reads the record it is computed from only
    when its own record misses, and only the spectrum and cloud stages
    parse the mesh, so a warm read hashes the file, never parses it, and
    opens just the ``pooled`` and ``eig`` records. A file rewritten between
    the hash and the parse inside one call has its records stored under
    the old digest; no caller rewrites its inputs during a run.
    """
    path = manifest.full_path(entry)
    chash = mesh_file_hash(path) if cache is not None else None
    dparams = _descriptor_params(run)
    spectral = run.descriptor in SPECTRAL_DESCRIPTORS
    chain = ("mesh", "spectrum" if spectral else "cloud", "descriptor",
             "pooled", "eig")

    def cached(stage, params, compute):
        if cache is None:
            return compute()
        versions = [CODE_VERSIONS[s] for s in chain[:chain.index(stage) + 1]]
        return cache.get_or_compute(entry.shape_id, stage, chash,
                                    {**params, "code_versions": versions},
                                    compute)

    def compute_spectrum():
        spec = lb_operator.mesh_spectrum(load_mesh(path), run.k_eig)
        return {"eigenvalues": spec.eigenvalues,
                "eigenfunctions": spec.eigenfunctions,
                "mass": spec.mass}

    def compute_cloud():
        cloud = sample_points(load_mesh(path), run.n_points,
                              substream(run.seed, "sample", entry.shape_id))
        return {"points": cloud.points, "normals": cloud.normals}

    def compute_lsf():
        rec = cached("cloud", {"n_points": run.n_points, "seed": run.seed},
                     compute_cloud)
        cloud = PointCloud(rec["points"], rec["normals"])
        radius = run.lsf_radius_frac * bounding_sphere_diameter(cloud.points)
        params = descriptors.LSFParams(radius=radius,
                                       neighbor_cap=run.neighbor_cap)
        return {"values": descriptors.lsf(cloud, params,
                                          seed=run.seed).values}

    def compute_pooled():
        if spectral:
            rec = cached("spectrum", {"k_eig": run.k_eig}, compute_spectrum)
            spectrum = lb_operator.LBSpectrum(rec["eigenvalues"],
                                              rec["eigenfunctions"],
                                              rec["mass"])
            rec = cached("descriptor", dparams, lambda: {
                "values": _spectral_field(spectrum, run).values})
            weights = pooling.mesh_weights(spectrum.mass)
        else:
            rec = cached("descriptor", dparams, compute_lsf)
            weights = pooling.cloud_weights(run.n_points)
        field = descriptors.DescriptorField(rec["values"])
        pooled = pooling.pool_second_order(field, weights)
        return {"H": pooled.H,
                "o1": pooling.pool_first_order(field, weights)}

    pool_rec = cached("pooled", dparams, compute_pooled)

    def compute_eig():
        u, lam = spdm.nonzero_spectrum(pool_rec["H"])
        return {"U": u, "lam": lam}

    eig_rec = cached("eig", dparams, compute_eig)
    return ShapeRecord(entry.shape_id, entry.label, pool_rec["o1"],
                       pool_rec["H"], eig_rec["U"], eig_rec["lam"])


def extract_manifest(manifest, run, cache, entries=None):
    """Records for every shape; per-shape failures are collected.

    Returns (records dict by shape_id, failures list of (shape_id, error)).
    """
    records = {}
    failures = []
    for entry in entries if entries is not None else manifest.entries:
        try:
            records[entry.shape_id] = extract_shape(entry, manifest, run,
                                                    cache)
        except SpecpoolError as exc:
            logger.error("extraction failed for %s: %s", entry.shape_id, exc)
            failures.append((entry.shape_id, str(exc)))
    return records, failures


# ---------------------------------------------------------------------------
# feature assembly

def feature_mode(ablation=None, transform=None):
    """Map CLI-level switches to a trainer feature mode string."""
    if transform:
        if ablation not in (None, "", "st_net"):
            raise DataError("choose either a fixed transform or an "
                            "ablation, not both")
        return f"fixed:{transform}"
    mapping = {None: "stnet", "": "stnet", "st_net": "stnet",
               "surf_o1": "o1", "surf_o1_ml": "o1",
               "surf_o2": "o2", "surf_o2_ml": "o2"}
    if ablation not in mapping:
        raise DataError(f"unknown ablation {ablation!r}; choose from "
                        f"{ABLATIONS}")
    return mapping[ablation]


def build_features(records, entries, mode, run):
    """A trainer FeatureSet for the given shapes in manifest order.

    ``o1``, ``o2`` and ``fixed:<kind>`` give each shape its static row;
    ``stnet`` gives each shape its eigenvectors U_r and its power table
    ``spdm.shifted_powers``, from which the trainer builds rows for any
    mixture.
    """
    missing = [e.shape_id for e in entries if e.shape_id not in records]
    if missing:
        raise DataError(f"missing extracted records for shapes: {missing}")
    ids = [e.shape_id for e in entries]
    labels = np.array([e.label for e in entries], dtype=np.int64)
    recs = [records[i] for i in ids]

    if mode == "stnet":
        return trainer.FeatureSet(ids, labels, spectra=[
            (r.U, spdm.shifted_powers(r.lam, run.n_mix)) for r in recs])
    if mode == "o1":
        static = [r.o1 for r in recs]
    elif mode == "o2":
        static = [spdm.g_vec(r.H) for r in recs]
    elif mode.startswith("fixed:"):
        kind = mode.split(":", 1)[1]
        static = [spdm.fixed_transform(r.H, kind, eps=run.log_eps)
                  for r in recs]
    else:
        raise DataError(f"unknown feature mode {mode!r}")
    return trainer.FeatureSet(ids, labels, static=static)


def embeddings(features, blocks=None):
    """Evaluation vectors for every shape in a feature set.

    Without parameter blocks the normalized feature rows themselves are
    the embedding (the no-learning baselines); the mixture is then
    softmax(0), the uniform mixture for stnet features.
    """
    idx = np.arange(features.n_shapes)
    rows = features.rows(idx, features.gamma(blocks))
    if blocks is None:
        return metric.normalize_rows(rows)[0]
    f, _ = metric.embed_rows(rows, metric.EmbeddingParams.from_blocks(blocks))
    return f


def retrieval_eval(features, blocks=None):
    """Leave-one-out ranked lists and the metric report."""
    vecs = embeddings(features, blocks)
    lists = evaluation.rank(vecs, features.ids, features.labels)
    return evaluation.retrieval_metrics(lists), lists


def classification_eval(features, blocks):
    """Predicted labels and accuracy on a feature set."""
    vecs = embeddings(features, blocks)
    head = metric.EmbeddingParams.from_blocks(blocks)
    probs = metric.softmax_rows(vecs @ head.C.T + head.bias)
    preds = np.argmax(probs, axis=1)
    return preds, evaluation.accuracy(preds, features.labels), probs
