"""Mini-batch SGD over the spectral transform and embedding parameters.

Supports the retrieval objective (triplet loss over sampled triplets) and
the classification objective (cross-entropy over shape batches), plus a
finite-difference gradient checker that exercises the exact production
forward/backward paths on a bundled toy problem. Settings come from
``config.RunConfig``.

Features: each shape has a (dim, m) factor and its row is factor @ gamma.
The learned transform has m = n_mix + 1 and learns gamma = softmax(omega);
the static features (first/second order, fixed transforms) are single
columns with gamma = [1], the same network with the transform held fixed.
"""

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import metric, spdm
from .config import RunConfig
from .errors import DataError
from .rng import substream

logger = logging.getLogger(__name__)

# columns of W per block of the factored SGD update: the d_m x 4096 block
# product (1 MB at d_m = 32) stays in cache. SciPy's BLAS dgemm could add
# into W directly, but it loads a second OpenBLAS whose threads compete
# with NumPy's: with two threads each, a loop of a training step's
# products ran 8x slower through it than through NumPy alone.
UPDATE_COLUMNS = 4096


@dataclass
class FeatureSet:
    """Trainable per-shape feature source for one split.

    ``q`` holds one (dim, m) factor per shape; a shape's feature row is
    ``q[i] @ gamma``. The factors stay a list: stacking would copy them,
    and one list can be shared by several feature sets.
    """

    ids: list
    labels: np.ndarray
    q: list = field(repr=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.q) != len(self.ids) or not self.q:
            raise DataError("features need one factor per shape")

    @property
    def n_shapes(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.q[0].shape[0]

    @property
    def n_weights(self):
        """Columns m of each factor: the length of gamma."""
        return self.q[0].shape[1]

    def gamma(self, blocks=None):
        """Mixture weights: softmax of the learned logits, or of zeros
        without them ([1] for a single column, else the uniform mixture)."""
        if blocks is not None and "omega" in blocks:
            return spdm.softmax(blocks["omega"])
        return spdm.softmax(np.zeros(self.n_weights))

    def rows(self, indices, gamma):
        """Feature rows ``q[i] @ gamma`` for ``indices``."""
        if len(gamma) == 1:
            # the same product: numpy's matmul runs a scalar loop over a
            # single column, an order of magnitude slower at d = 11,325
            return np.stack([self.q[i][:, 0] for i in indices]) * gamma[0]
        return np.stack([self.q[i] @ gamma for i in indices])

    def pull_gamma_grad(self, indices, dx):
        """Accumulate d(loss)/d(gamma) from per-row feature gradients."""
        dgamma = np.zeros(self.n_weights)
        for row, i in enumerate(indices):
            dgamma += self.q[i].T @ dx[row]
        return dgamma


# ---------------------------------------------------------------------------
# triplet construction

def triplet_count(labels):
    """Total number of valid (anchor, positive, negative) triples."""
    labels = np.asarray(labels)
    n = len(labels)
    total = 0
    for lab, count in zip(*np.unique(labels, return_counts=True)):
        total += count * (count - 1) * (n - count)
    return int(total)


def build_triplets(labels, batch_size, seed, epoch, t_max=None):
    """Seeded triplet batches for one epoch, as index-array triples.

    When the number of valid triplets is at most ``t_max`` they are all
    enumerated and shuffled; otherwise ``t_max`` triplets are drawn
    uniformly (anchors weighted by their valid pair counts). Classes with
    a single member cannot anchor; ``train`` logs them once per run.
    """
    labels = np.asarray(labels)
    uniq, counts = np.unique(labels, return_counts=True)
    if len(uniq) < 2:
        raise DataError("triplets need at least two classes")
    class_count = dict(zip(uniq.tolist(), counts.tolist()))
    anchor_ok = np.array([class_count[l] >= 2 for l in labels.tolist()])
    if not anchor_ok.any():
        raise DataError("no class has two members; cannot form triplets")

    total = triplet_count(labels)
    rng = substream(seed, "triplets", epoch)
    if t_max is None or total <= t_max:
        trips = _all_triplets(labels, anchor_ok)
        trips = trips[rng.permutation(len(trips))]
    else:
        trips = _sample_triplets(labels, anchor_ok, class_count, t_max, rng)
    return [trips[i:i + batch_size] for i in range(0, len(trips), batch_size)]


def _all_triplets(labels, anchor_ok):
    rows = []
    for a in range(len(labels)):
        if not anchor_ok[a]:
            continue
        same = np.flatnonzero(labels == labels[a])
        diff = np.flatnonzero(labels != labels[a])
        for p in same:
            if p == a:
                continue
            for g in diff:
                rows.append((a, p, g))
    return np.array(rows, dtype=np.int64)


def _sample_triplets(labels, anchor_ok, class_count, t_max, rng):
    """Draw t_max triplets uniformly over all valid triples.

    Anchors are weighted by their valid (positive, negative) pair counts,
    then a positive and a negative are drawn uniformly, which is uniform
    over the full triplet set.
    """
    n = len(labels)
    weights = np.array([(class_count[int(l)] - 1) * (n - class_count[int(l)])
                        if ok else 0.0
                        for l, ok in zip(labels, anchor_ok)])
    anchors = rng.choice(n, size=t_max, p=weights / weights.sum())
    same = {int(l): np.flatnonzero(labels == l) for l in set(labels.tolist())}
    diff = {int(l): np.flatnonzero(labels != l) for l in set(labels.tolist())}
    trips = np.empty((t_max, 3), dtype=np.int64)
    for row, a in enumerate(anchors):
        lab = int(labels[a])
        pos_pool = same[lab]
        # uniform over the pool minus the anchor: draw over len-1 slots and
        # remap a hit on the anchor to the last slot
        k = int(rng.integers(len(pos_pool) - 1))
        pos = pos_pool[k]
        if pos == a:
            pos = pos_pool[-1]
        neg_pool = diff[lab]
        trips[row] = (a, pos, neg_pool[int(rng.integers(len(neg_pool)))])
    return trips


# ---------------------------------------------------------------------------
# optimization

def sgd_step(params, grads, learning_rate):
    """Plain SGD update, in place: theta <- theta - lr * grad.

    A ``metric.FactoredGrad`` (dF, x) is applied as a rank-B update
    W <- W - lr * dF^T x, added into W's own buffer ``UPDATE_COLUMNS``
    columns at a time, so no d_m x D gradient or temporary is formed. The
    finiteness check reads the factors: the rows of x are unit vectors, so
    the product of finite factors overflows only if |lr * dF| nears
    1e308 / B.
    """
    for name, grad in grads.items():
        factored = isinstance(grad, metric.FactoredGrad)
        if not all(np.all(np.isfinite(g))
                   for g in (grad if factored else (grad,))):
            raise DataError(f"non-finite gradient in parameter block "
                            f"{name!r}")
        if factored:
            step = (-learning_rate * grad.left).T
            w = params[name]
            for j in range(0, w.shape[1], UPDATE_COLUMNS):
                w[:, j:j + UPDATE_COLUMNS] += \
                    step @ grad.right[:, j:j + UPDATE_COLUMNS]
        else:
            params[name] -= learning_rate * grad
    return params


def init_params(config, features, n_classes=None):
    """Fresh parameter blocks; omega (zero logits, the uniform mixture)
    only for multi-column factors."""
    blocks = {}
    if features.n_weights > 1:
        blocks["omega"] = np.zeros(features.n_weights)
    head = metric.init_embedding(features.dim, config.d_m, config.seed,
                                 n_classes=n_classes)
    blocks["W"] = head.W
    if n_classes is not None:
        blocks["C"] = head.C
        blocks["bias"] = head.bias
    return blocks


def _batch_forward_backward(features, blocks, batch, config):
    """Loss and parameter gradients for one batch; grads are summed, the
    caller divides by the batch size. The W gradient is a
    ``metric.FactoredGrad``; the other blocks' gradients are arrays."""
    gamma = features.gamma(blocks)
    head = metric.EmbeddingParams.from_blocks(blocks)
    grads = {}

    if config.task == "retrieval":
        uniq, inv = np.unique(batch.ravel(), return_inverse=True)
        inv = inv.reshape(batch.shape)
        x = features.rows(uniq, gamma)
        f, cache = metric.embed_rows(x, head)
        loss, dfa, dfp, dfn = metric.triplet_loss_rows(
            f[inv[:, 0]], f[inv[:, 1]], f[inv[:, 2]],
            config.margin, config.eta)
        df = np.zeros_like(f)
        np.add.at(df, inv[:, 0], dfa)
        np.add.at(df, inv[:, 1], dfp)
        np.add.at(df, inv[:, 2], dfn)
        indices = uniq
    else:
        indices = batch
        x = features.rows(indices, gamma)
        f, cache = metric.embed_rows(x, head)
        loss, df, dc, dbias, _ = metric.classify_loss(
            f, features.labels[indices], head, config.loss_variant)
        grads["C"] = dc
        grads["bias"] = dbias

    dw, dx = metric.embed_rows_backward(df, head, cache)
    grads["W"] = dw
    if "omega" in blocks:
        dgamma = features.pull_gamma_grad(indices, dx)
        grads["omega"] = spdm.softmax_backward(gamma, dgamma)
    return loss, grads


def _epoch_batches(features, config, epoch):
    if config.task == "retrieval":
        t_max = config.t_max_factor * features.n_shapes
        return build_triplets(features.labels, config.batch_size,
                              config.seed, epoch, t_max=t_max)
    rng = substream(config.seed, "batches", epoch)
    perm = rng.permutation(features.n_shapes)
    return [perm[i:i + config.batch_size]
            for i in range(0, len(perm), config.batch_size)]


def train(config, features, n_classes=None):
    """Run SGD and return (blocks, log rows, info).

    The log has one (epoch, mean_loss, wall_ms) row per epoch. Training
    stops early after ``early_stop_patience`` epochs without a relative
    loss improvement of ``early_stop_tol``. All epoch randomness is derived
    from (seed, epoch).
    """
    if config.task == "classification" and n_classes is None:
        n_classes = int(features.labels.max()) + 1
    if config.task == "retrieval":
        n_classes = None
        uniq, counts = np.unique(features.labels, return_counts=True)
        if np.any(counts < 2):
            logger.warning("classes %s have a single member and only serve "
                           "as negatives", uniq[counts < 2].tolist())

    blocks = init_params(config, features, n_classes)
    best, stale = np.inf, 0
    log = []
    stopped_early = False
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        batches = _epoch_batches(features, config, epoch)
        total, units = 0.0, 0
        for batch in batches:
            loss, grads = _batch_forward_backward(features, blocks, batch,
                                                  config)
            for grad in grads.values():
                if isinstance(grad, metric.FactoredGrad):
                    grad.left[...] *= 1.0 / len(batch)
                else:
                    grad *= 1.0 / len(batch)
            sgd_step(blocks, grads, config.learning_rate)
            total += loss
            units += len(batch)
        mean_loss = total / units
        log.append((epoch, mean_loss, (time.perf_counter() - t0) * 1e3))

        if mean_loss < best * (1.0 - config.early_stop_tol):
            best, stale = mean_loss, 0
        else:
            stale += 1
        if stale >= config.early_stop_patience:
            stopped_early = True
            break

    info = {"epochs_run": len(log), "final_loss": log[-1][1],
            "stopped_early": stopped_early}
    return blocks, log, info


# ---------------------------------------------------------------------------
# gradient checking

# central-difference step and the largest relative error a block may show
GRADCHECK_STEP = 1e-5
GRADCHECK_THRESHOLD = 1e-5


@dataclass
class GradcheckReport:
    block_errors: dict
    wall_s: float

    @property
    def passed(self):
        return all(e < GRADCHECK_THRESHOLD
                   for e in self.block_errors.values())

    @property
    def max_error(self):
        return max(self.block_errors.values())

    def format(self):
        lines = [f"gradient check vs central differences "
                 f"(threshold {GRADCHECK_THRESHOLD:g})"]
        for name in sorted(self.block_errors):
            err = self.block_errors[name]
            verdict = "ok" if err < GRADCHECK_THRESHOLD else "FAIL"
            lines.append(f"  {name:<6} max rel err {err:.3e}  {verdict}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} "
                     f"({self.wall_s:.2f} s)")
        return "\n".join(lines)


def toy_problem(n_shapes=8, dim=12, n_mix=10, n_classes=4, seed=11):
    """Small deterministic dataset driving the gradient checker.

    Shapes get random PSD matrices (two of them rank-deficient so the
    zero-eigenvalue branch of the power table is exercised) and cyclic
    labels.
    """
    rng = substream(seed, "gradcheck")
    q, labels, ids = [], [], []
    for i in range(n_shapes):
        cols = dim - 3 if i < 2 else dim
        a = rng.normal(size=(dim, cols))
        h = (a @ a.T) / dim
        u, lam = spdm.nonzero_spectrum(h)
        powers = lam[:, None] ** spdm.power_grid(n_mix)[None, :]
        q.append(spdm.mpf_q_matrix(u, powers))
        labels.append(i % n_classes)
        ids.append(f"toy_{i:02d}")
    return FeatureSet(ids, np.array(labels), q)


def _loss_only(features, blocks, batch, config):
    loss, _ = _batch_forward_backward(features, blocks, batch, config)
    return loss


def gradcheck(seed=11):
    """Compare analytic gradients with central finite differences.

    Runs the retrieval objective (omega and W blocks) and the
    classification objective (omega, W, C, bias) on the toy problem and
    reports the worst relative error per block.
    """
    t0 = time.perf_counter()
    features = toy_problem(seed=seed)
    errors = {}

    # margin large enough that every hinge is active and far from its kink
    retrieval_cfg = RunConfig(task="retrieval", batch_size=64,
                              learning_rate=1.0, margin=5.0, eta=1.0,
                              epochs=1, seed=seed, d_m=6, loss_variant="bce")
    all_trips = _all_triplets(
        features.labels,
        np.ones(features.n_shapes, dtype=bool))
    blocks = init_params(retrieval_cfg, features)
    _accumulate_block_errors(errors, features, blocks, all_trips,
                             retrieval_cfg, "retr")

    classify_cfg = RunConfig(task="classification", batch_size=8,
                             learning_rate=1.0, epochs=1, seed=seed, d_m=6,
                             loss_variant="bce")
    blocks = init_params(classify_cfg, features,
                         n_classes=int(features.labels.max()) + 1)
    batch = np.arange(features.n_shapes)
    _accumulate_block_errors(errors, features, blocks, batch,
                             classify_cfg, "clf")
    return GradcheckReport(errors, time.perf_counter() - t0)


def _accumulate_block_errors(errors, features, blocks, batch, config, tag):
    _, grads = _batch_forward_backward(features, blocks, batch, config)
    for name, grad in grads.items():
        if isinstance(grad, metric.FactoredGrad):
            grad = grad.dense()
        theta = blocks[name]
        worst = 0.0
        it = np.nditer(theta, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = theta[idx]
            theta[idx] = keep + GRADCHECK_STEP
            up = _loss_only(features, blocks, batch, config)
            theta[idx] = keep - GRADCHECK_STEP
            down = _loss_only(features, blocks, batch, config)
            theta[idx] = keep
            fd = (up - down) / (2.0 * GRADCHECK_STEP)
            a = grad[idx]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-10))
        key = f"{name}[{tag}]"
        errors[key] = worst
