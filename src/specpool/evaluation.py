"""Retrieval metrics, classification accuracy, and split generation.

The retrieval protocol is leave-one-out over a shape set: every shape
queries all the others, ranked by ascending Euclidean distance with ties
broken by gallery order. Per-query metric kernels are deliberately written
as straight-line loops so their arithmetic order is fixed.
"""

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .rng import substream
from .shape_io import DatasetManifest

logger = logging.getLogger(__name__)

E_MEASURE_CUTOFF = 32

REPORT_COLUMNS = ("NN", "1-T", "2-T", "EM", "DCG", "mAP")


@dataclass
class RankedList:
    """One query's gallery ordering and per-position relevance flags."""

    query_id: str
    ordered_ids: list
    relevant: np.ndarray


@dataclass
class RetrievalReport:
    nn: float
    tier1: float
    tier2: float
    e_measure: float
    dcg: float
    mean_ap: float
    n_queries: int = 0
    n_skipped: int = 0

    def as_row(self):
        return (self.nn, self.tier1, self.tier2, self.e_measure, self.dcg,
                self.mean_ap)


def rank_one(query_vec, gallery_vecs):
    """Stable ascending-distance ordering of gallery indices."""
    dists = np.linalg.norm(gallery_vecs - query_vec, axis=1)
    return np.argsort(dists, kind="stable")


def rank(embeddings, ids, labels):
    """Leave-one-out ranked lists: each shape queries all the others."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(embeddings)
    if n < 2:
        raise DataError("ranking needs at least two shapes")
    out = []
    for i in range(n):
        keep = np.arange(n) != i
        gallery = np.flatnonzero(keep)
        order = gallery[rank_one(embeddings[i], embeddings[gallery])]
        out.append(RankedList(ids[i], [ids[j] for j in order],
                              labels[order] == labels[i]))
    return out


def query_metrics(relevant):
    """Six metrics for one ranked list (straight-line kernels).

    ``relevant`` is the boolean relevance flag per rank position; the
    query's class size is the relevant count plus one.
    """
    rel = [bool(r) for r in relevant]
    n_rel = 0
    for r in rel:
        if r:
            n_rel += 1
    if n_rel == 0:
        raise DataError("query with no relevant gallery items")

    nn = 1.0 if rel[0] else 0.0

    hits = 0
    for r in rel[:n_rel]:
        if r:
            hits += 1
    tier1 = hits / n_rel

    hits = 0
    for r in rel[:2 * n_rel]:
        if r:
            hits += 1
    tier2 = hits / n_rel

    hits = 0
    for r in rel[:E_MEASURE_CUTOFF]:
        if r:
            hits += 1
    if hits == 0:
        e_measure = 0.0
    else:
        precision = hits / E_MEASURE_CUTOFF
        recall = hits / n_rel
        e_measure = 2.0 / (1.0 / precision + 1.0 / recall)

    dcg = 1.0 if rel[0] else 0.0
    for k in range(2, len(rel) + 1):
        if rel[k - 1]:
            dcg += 1.0 / math.log2(k)
    ideal = 1.0
    for k in range(2, n_rel + 1):
        ideal += 1.0 / math.log2(k)
    dcg /= ideal

    hits = 0
    ap = 0.0
    for k in range(1, len(rel) + 1):
        if rel[k - 1]:
            hits += 1
            ap += hits / k
    ap /= n_rel

    return nn, tier1, tier2, e_measure, dcg, ap


def retrieval_metrics(ranked_lists):
    """Average the per-query metrics; size-1 classes are skipped."""
    sums = [0.0] * 6
    used = 0
    skipped = 0
    for rl in ranked_lists:
        if not rl.relevant.any():
            logger.warning("query %s has no relevant items (class of "
                           "size 1); skipped", rl.query_id)
            skipped += 1
            continue
        vals = query_metrics(rl.relevant)
        for i in range(6):
            sums[i] += vals[i]
        used += 1
    if used == 0:
        raise DataError("no scorable queries")
    means = [s / used for s in sums]
    return RetrievalReport(*means, n_queries=used, n_skipped=skipped)


def accuracy(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) == 0:
        raise DataError("empty prediction list")
    if len(predictions) != len(labels):
        raise DataError("predictions and labels differ in length")
    return float(np.mean(predictions == labels))


# ---------------------------------------------------------------------------
# split generation

def _entries_by_class(manifest):
    byc = {}
    for e in manifest.entries:
        byc.setdefault(e.label, []).append(e)
    return byc


def split_fraction(manifest, p, seed):
    """Stratified fraction split: about p of each class goes to train."""
    if not 0.0 < p < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {p}")
    assigned = {}
    for label, members in sorted(_entries_by_class(manifest).items()):
        if len(members) < 2:
            raise DataError(f"class {label} has fewer than 2 shapes")
        rng = substream(seed, "split", label)
        perm = rng.permutation(len(members))
        n_train = min(max(int(round(p * len(members))), 1), len(members) - 1)
        for pos, j in enumerate(perm):
            assigned[members[j].shape_id] = "train" if pos < n_train \
                else "test"
    entries = [replace(e, split=assigned[e.shape_id])
               for e in manifest.entries]
    return DatasetManifest(entries, manifest.class_count, manifest.root)


def split_kfold(manifest, k, seed):
    """Stratified k-fold: returns k manifests, fold f testing on fold f.

    Within each class the shuffled members are dealt round-robin with the
    starting fold rotated by the class index, which balances fold sizes
    when class sizes are not multiples of k.
    """
    if k < 2:
        raise DataError(f"need k >= 2 folds, got {k}")
    byc = sorted(_entries_by_class(manifest).items())
    smallest = min(len(m) for _, m in byc)
    if k > smallest:
        raise DataError(f"k = {k} exceeds the smallest class size "
                        f"{smallest}")
    fold_of = {}
    for class_pos, (label, members) in enumerate(byc):
        rng = substream(seed, "split", label)
        perm = rng.permutation(len(members))
        for pos, j in enumerate(perm):
            fold_of[members[j].shape_id] = (pos + class_pos) % k
    manifests = []
    for f in range(k):
        entries = [replace(e, split="test" if fold_of[e.shape_id] == f
                           else "train") for e in manifest.entries]
        manifests.append(DatasetManifest(entries, manifest.class_count,
                                         manifest.root))
    return manifests


def split_disjoint_classes(manifest, p, seed):
    """Whole classes go to train (fraction p) or test, no overlap."""
    if not 0.0 < p < 1.0:
        raise DataError(f"fraction must be in (0, 1), got {p}")
    labels = sorted(_entries_by_class(manifest))
    if len(labels) < 2:
        raise DataError("need at least two classes to split by class")
    rng = substream(seed, "split_classes")
    perm = rng.permutation(len(labels))
    n_train = min(max(int(round(p * len(labels))), 1), len(labels) - 1)
    train_labels = {labels[j] for j in perm[:n_train]}
    entries = [replace(e, split="train" if e.label in train_labels
                       else "test") for e in manifest.entries]
    return DatasetManifest(entries, manifest.class_count, manifest.root)


# ---------------------------------------------------------------------------
# reporting

def format_report(rows, names):
    """Tab-separated metric table, percentages with two decimals."""
    lines = ["method\t" + "\t".join(REPORT_COLUMNS)]
    for name, report in zip(names, rows):
        cells = "\t".join(f"{100.0 * v:.2f}" for v in report.as_row())
        lines.append(f"{name}\t{cells}")
    return "\n".join(lines) + "\n"


def export_ranked_lists(ranked_lists, path):
    """One line per query: query_id TAB comma-joined gallery ids."""
    lines = [f"{rl.query_id}\t{','.join(rl.ordered_ids)}"
             for rl in ranked_lists]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
