"""Correctness checks computed apart from the program.

Every check reads the files the CLI wrote (reports, ranked lists,
predictions, model files, cache records) and recomputes the quantity with
textbook formulas in plain NumPy. A check returns a list of problem
strings; an empty list means the output is correct.
"""

import math
import re
from pathlib import Path

import numpy as np

# quality floors of the acceptance gates A5 (retrieval) and A7 (classification)
A5_MIN_NN = 0.95
A7_MIN_ACCURACY = 0.90

# report.tsv prints percentages with two decimals, accuracy with six
REPORT_PERCENT_TOL = 0.005 + 1e-9
ACCURACY_TOL = 5e-7 + 1e-12

ORTHONORMAL_TOL = 1e-8
POOL_RTOL = 1e-10
FEATURE_RTOL = 1e-8
# scaled eigenvalues of H at or below this are round-off (about d * eps)
ROUNDOFF_EIG = 1e-12
SCALE_FREE_RTOL = 1e-6
SPHERE_RTOL = 0.01
# the only extraction failure the workloads expect: lb_operator.lb_spectrum's
# absolute residual bound on meshes of a tiny unit
RESIDUAL_FAULT = re.compile(r"eigensolver residual \S+ exceeds 1e-6")


# ---------------------------------------------------------------------------
# reading the CLI's files

def read_labels(manifest_path):
    """shape_id -> label from a manifest file."""
    labels = {}
    for line in Path(manifest_path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        shape_id, _, label, _ = line.split("\t")
        labels[shape_id.strip()] = int(label)
    return labels


def read_ranked_lists(path):
    """[(query_id, [gallery ids in rank order])] from ranked_lists.tsv."""
    lists = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            query, gallery = line.split("\t")
            lists.append((query, gallery.split(",")))
    return lists


def read_report(path):
    """{column: value} of the first method row of report.tsv."""
    header, row = Path(path).read_text().splitlines()[:2]
    return dict(zip(header.split("\t")[1:],
                    (float(v) for v in row.split("\t")[1:])))


def read_cache_record(cache_dir, shape_id, stage):
    """Arrays of the single cache record of one shape and stage."""
    paths = sorted(Path(cache_dir).glob(f"{shape_id}.{stage}.*.npz"))
    if len(paths) != 1:
        raise FileNotFoundError(f"{len(paths)} {stage} records for "
                                f"{shape_id} in {cache_dir}")
    with np.load(paths[0]) as data:
        return {k: data[k] for k in data.files}


def read_model_omega(model_path):
    with np.load(model_path) as data:
        return np.array(data["param_omega"], dtype=np.float64)


# ---------------------------------------------------------------------------
# extraction failures

def check_failures(name, failed, expected):
    """Exactly the ``expected`` shapes failed, each with the residual fault.

    ``failed`` maps shape id to the message ``extract`` printed for it.
    """
    problems = []
    if set(failed) != set(expected):
        problems.append(f"extract {name}: failed {sorted(failed)}, expected "
                        f"{sorted(expected)}")
    problems += [f"extract {name}: {sid} failed with {msg!r}, not the "
                 f"residual fault" for sid, msg in sorted(failed.items())
                 if sid in expected and not RESIDUAL_FAULT.search(msg)]
    return problems


# ---------------------------------------------------------------------------
# retrieval and classification reports

def textbook_retrieval(lists, labels):
    """(NN, mAP) of leave-one-out ranked lists.

    NN is the share of queries whose first result has the query's label.
    AP of a query is the mean, over the relevant results, of the precision
    at that result's rank; mAP averages AP over queries that have at least
    one relevant result.
    """
    nn_sum, ap_sum, scored = 0.0, 0.0, 0
    for query, gallery in lists:
        rel = [labels[g] == labels[query] for g in gallery]
        n_rel = sum(rel)
        if n_rel == 0:
            continue
        scored += 1
        nn_sum += 1.0 if rel[0] else 0.0
        hits, precision_sum = 0, 0.0
        for rank, is_rel in enumerate(rel, start=1):
            if is_rel:
                hits += 1
                precision_sum += hits / rank
        ap_sum += precision_sum / n_rel
    if scored == 0:
        raise ValueError("no query has a relevant result")
    return nn_sum / scored, ap_sum / scored


def check_ranked_lists(lists, labels, test_ids):
    """Each query ranks every other test shape exactly once."""
    problems = []
    expected = set(test_ids)
    if sorted(q for q, _ in lists) != sorted(expected):
        problems.append("ranked lists do not cover the test shapes once")
    for query, gallery in lists:
        if sorted(gallery) != sorted(expected - {query}):
            problems.append(f"ranked list of {query} is not the other test "
                            f"shapes")
    return problems


def check_retrieval_report(lists, labels, report):
    """NN and mAP recomputed from the ranked lists match report.tsv."""
    nn, mean_ap = textbook_retrieval(lists, labels)
    problems = []
    for column, value in (("NN", nn), ("mAP", mean_ap)):
        if abs(100.0 * value - report[column]) > REPORT_PERCENT_TOL:
            problems.append(f"{column} recomputed {100.0 * value:.4f} != "
                            f"reported {report[column]:.2f}")
    return problems


def read_predictions(path):
    rows = [line.split("\t")
            for line in Path(path).read_text().splitlines()[1:]
            if line.strip()]
    return [(sid, int(label), int(pred)) for sid, label, pred in rows]


def check_accuracy_report(predictions, labels, reported):
    """Accuracy recomputed from predictions.tsv matches report.tsv."""
    problems = [f"prediction row of {sid} carries label {lab}, manifest "
                f"says {labels[sid]}"
                for sid, lab, _ in predictions if labels[sid] != lab]
    acc = sum(pred == labels[sid] for sid, _, pred in predictions) \
        / len(predictions)
    if abs(acc - reported) > ACCURACY_TOL:
        problems.append(f"accuracy recomputed {acc:.6f} != reported "
                        f"{reported:.6f}")
    return problems, acc


# ---------------------------------------------------------------------------
# spectral transform

def softmax(omega):
    e = np.exp(omega - omega.max())
    return e / e.sum()


def check_simplex(gamma):
    problems = []
    if np.any(gamma < 0.0):
        problems.append("gamma has negative entries")
    if abs(gamma.sum() - 1.0) > 1e-12:
        problems.append(f"gamma sums to {gamma.sum()!r}")
    return problems


def check_mpf_curve(path, gamma):
    """The exported f is non-decreasing, f(0) = gamma_0 and f(1) = 1."""
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()
            if line and not line.startswith(("#", "x"))]
    x = np.array([float(r[0]) for r in rows])
    f = np.array([float(r[1]) for r in rows])
    problems = []
    if np.any(np.diff(f) < 0.0):
        problems.append("exported transform curve decreases")
    if x[0] != 0.0 or abs(f[0] - gamma[0]) > 1e-12:
        problems.append(f"f(0) = {f[0]!r}, gamma_0 = {gamma[0]!r}")
    if x[-1] != 1.0 or abs(f[-1] - 1.0) > 1e-12:
        problems.append(f"f(1) = {f[-1]!r}")
    return problems


def transformed_row(H, gamma):
    """g(U f(Lambda) U^T) for f(x) = sum_i gamma_i x^(i/N), via numpy eigh.

    Eigenvalues are clamped at 0 and scaled to unit Euclidean norm before
    f is applied; g takes the upper triangle row by row. Returns the row
    and the scaled eigenvalues.
    """
    lam, U = np.linalg.eigh(0.5 * (H + H.T))
    lam = np.maximum(lam, 0.0)
    lam = lam / np.linalg.norm(lam)
    alphas = np.arange(len(gamma)) / (len(gamma) - 1)
    f = (lam[:, None] ** alphas[None, :]) @ gamma
    return ((U * f) @ U.T)[np.triu_indices(len(H))], lam


def check_feature_row(shape_id, H, gamma, q):
    """The program's row Q @ gamma equals the rebuilt transform of H.

    Eigenvalues at round-off level (scaled value <= ROUNDOFF_EIG) are not
    determined by H: two eigensolvers may return anything in [0,
    ROUNDOFF_EIG] for them, and f(x) - f(0) = sum_{i>=1} gamma_i x^(i/N)
    turns that into a difference of up to f(ROUNDOFF_EIG) - f(0) per such
    direction. The allowance is that bound over the m round-off directions
    (Frobenius norm, sqrt(m) times it) on top of a relative FEATURE_RTOL.
    """
    ref, lam = transformed_row(H, gamma)
    alphas = np.arange(len(gamma)) / (len(gamma) - 1)
    m = int(np.sum(lam <= ROUNDOFF_EIG))
    allowance = np.sqrt(m) * float(gamma[1:] @ ROUNDOFF_EIG ** alphas[1:]) \
        + FEATURE_RTOL * np.linalg.norm(ref)
    err = np.linalg.norm(q @ gamma - ref)
    if err > allowance:
        return [f"{shape_id}: feature row differs from g(U f(L) U^T) by "
                f"{err:.3e}, allowance {allowance:.3e} ({m} round-off "
                f"eigenvalues)"]
    return []


def check_pooled(shape_id, values, pi, H):
    """H equals sum_s pi(s) h(s) h(s)^T of the cached descriptor."""
    ref = np.zeros((values.shape[1], values.shape[1]))
    for start in range(0, len(values), 512):
        h = values[start:start + 512]
        ref += (h * pi[start:start + 512, None]).T @ h
    err = np.abs(ref - H).max() / max(np.abs(ref).max(), 1e-300)
    if err > POOL_RTOL:
        return [f"{shape_id}: pooled H differs from sum pi h h^T by "
                f"{err:.3e} (relative)"]
    return []


# ---------------------------------------------------------------------------
# Laplace-Beltrami spectra

def check_mass_orthonormal(shape_id, phi, mass):
    gram = phi.T @ (mass[:, None] * phi)
    err = np.abs(gram - np.eye(phi.shape[1])).max()
    if err > ORTHONORMAL_TOL:
        return [f"{shape_id}: Phi^T M Phi deviates from I by {err:.3e}"]
    return []


def check_scale_free(shape_id, lam, area, ref_lam, ref_area):
    """lambda_k * area agrees between a rescaled copy and its original."""
    a = lam[1:] * area
    b = ref_lam[1:] * ref_area
    err = np.abs(a - b).max() / np.abs(b).max()
    problems = []
    if err > SCALE_FREE_RTOL:
        problems.append(f"{shape_id}: lambda_k * area differs from the "
                        f"original by {err:.3e} (relative)")
    if abs(lam[0] * area) > SCALE_FREE_RTOL * abs(b).max():
        problems.append(f"{shape_id}: constant mode lambda_0 * area = "
                        f"{lam[0] * area:.3e}")
    return problems


def check_unit_sphere_modes(shape_id, lam, area):
    """lambda_1..3 * area / (4 pi) of a round sphere is 2 (within 1%)."""
    ratio = lam[1:4] * area / (4.0 * math.pi)
    if np.any(np.abs(ratio - 2.0) > SPHERE_RTOL * 2.0):
        return [f"{shape_id}: lambda_1..3 * area / 4pi = "
                f"{np.array2string(ratio, precision=5)}, expected 2"]
    return []


# ---------------------------------------------------------------------------
# local statistical feature histograms

def bounding_diameter(points):
    center = 0.5 * (points.min(axis=0) + points.max(axis=0))
    return 2.0 * float(np.linalg.norm(points - center, axis=1).max())


def check_lsf_totals(shape_id, points, normals, values, radius_frac,
                     neighbor_cap, sample):
    """Row totals of the LSF histogram count the framed neighbours.

    A neighbour of p lies within the radius, is not p itself, and has a
    frame: it does not coincide with p and p->q is not parallel to p's
    normal. Uncapped rows must count exactly these; a capped row counts
    ``neighbor_cap`` sampled neighbours minus any unframed among them.
    Distances within round-off of the radius may fall either way.
    """
    radius = radius_frac * bounding_diameter(points)
    problems = []
    for i in sample:
        d = points - points[i]
        dist = np.linalg.norm(d, axis=1)
        other = np.arange(len(points)) != i
        framed = (dist > 0.0) & (np.linalg.norm(np.cross(d, normals[i]),
                                                axis=1) > 0.0)
        inside = other & (dist < radius * (1.0 - 1e-12))
        edge = other & (np.abs(dist - radius) <= radius * 1e-12)
        total = values[i].sum()
        lo = int(np.sum(inside & framed))
        hi = lo + int(np.sum(edge & framed))
        n_nb = int(np.sum(inside)) + int(np.sum(edge))
        if n_nb > neighbor_cap:
            unframed = n_nb - int(np.sum((inside | edge) & framed))
            lo, hi = neighbor_cap - unframed, neighbor_cap
        if not lo <= total <= hi:
            problems.append(f"{shape_id}: LSF row {i} counts {total:g} "
                            f"neighbours, brute force gives {lo}..{hi}")
    return problems
