"""Mini-batch SGD over the spectral transform and embedding parameters.

Supports the retrieval objective (triplet loss over sampled triplets) and
the classification objective (cross-entropy over shape batches), plus a
finite-difference gradient checker that exercises the exact production
forward/backward paths on a bundled toy problem. Settings come from
``config.RunConfig``.

Features: the learned transform keeps each shape's eigenpairs (U_r and
the power table P0) and learns the n_mix + 1 weights gamma =
softmax(omega); its rows and their gamma-gradient are computed from those
factors for each batch. The static features (first/second order, fixed
transforms) are one row per shape with gamma = [1], the same network with
the transform held fixed.
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

    Exactly one of two sources is given, one entry per shape:

    * ``static``: the shape's feature row (first/second order, fixed
      transforms); gamma = [1] and a row is ``static[i] * gamma[0]``.
    * ``spectra``: the learned transform's (U_r, P0) pair, U_r the d x r
      eigenvectors of H above ``spdm.ZERO_EIGENVALUE_TOL`` and P0 the
      r x (n_mix + 1) table ``spdm.shifted_powers``. The row is
      g(U_r diag(P0 @ gamma) U_r^T) with gamma_0 added at the d diagonal
      slots of g, the upper triangle of f(H) = gamma_0 I + U_r diag(P0
      gamma) U_r^T (see ``spdm``).

    The entries stay a list: one list can be shared by several feature
    sets without a copy.
    """

    ids: list
    labels: np.ndarray
    static: list = field(default=None, repr=False)
    spectra: list = field(default=None, repr=False)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if (self.static is None) == (self.spectra is None):
            raise DataError("features need either static rows or spectra")
        source = self.static if self.spectra is None else self.spectra
        if len(source) != len(self.ids) or not source:
            raise DataError("features need one factor per shape")
        if self.spectra is not None:
            d = self.spectra[0][0].shape[0]
            # row-major flat positions of the upper triangle (g's order) in
            # a d x d matrix, and the positions of the diagonal within g
            self._upper = np.flatnonzero(np.triu(np.ones((d, d), bool)))
            self._diag = np.concatenate(
                ([0], np.cumsum(np.arange(d, 1, -1))))

    @property
    def n_shapes(self):
        return len(self.ids)

    @property
    def dim(self):
        if self.spectra is None:
            return len(self.static[0])
        return len(self._upper)

    @property
    def n_weights(self):
        """The length of gamma: n_mix + 1 for spectra, 1 for static rows."""
        if self.spectra is None:
            return 1
        return self.spectra[0][1].shape[1]

    def gamma(self, blocks=None):
        """Mixture weights: softmax of the learned logits, or of zeros
        without them ([1] for static rows, else the uniform mixture)."""
        if blocks is not None and "omega" in blocks:
            return spdm.softmax(blocks["omega"])
        return spdm.softmax(np.zeros(self.n_weights))

    def rows(self, indices, gamma):
        """Feature rows for ``indices`` under the mixture ``gamma``."""
        if self.spectra is None:
            return np.stack([self.static[i] for i in indices]) * gamma[0]
        out = np.empty((len(indices), self.dim))
        for row, i in enumerate(indices):
            u, p0 = self.spectra[i]
            out[row] = ((u * (p0 @ gamma)) @ u.T).ravel()[self._upper]
        out[:, self._diag] += gamma[0]
        return out

    def pull_gamma_grad(self, indices, dx):
        """d(loss)/d(gamma) from the rows' gradients ``dx``, summed.

        With dx scattered into the upper triangle of S (lower triangle
        0), a shape adds P0^T diag(U_r^T S U_r) + e0 tr S:
        u_k^T S u_k = sum_{j <= l} dx_jl U_jk U_lk is the derivative of
        the row with respect to (P0 gamma)_k, each entry read once.
        Static rows have no mixture, so only spectra have this gradient.
        """
        d = len(self._diag)
        s = np.zeros(d * d)
        dgamma = np.zeros(self.n_weights)
        for row, i in enumerate(indices):
            u, p0 = self.spectra[i]
            s[self._upper] = dx[row]
            dgamma += p0.T @ np.einsum("jk,jk->k", u, s.reshape(d, d) @ u)
        dgamma[0] += dx[:, self._diag].sum()
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
    """Seeded triplet batches for one epoch, as index-array triples cut
    by ``split_batches``.

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
    return split_batches(trips, batch_size)


def split_batches(items, batch_size):
    """Consecutive batches of ``batch_size`` items. A shorter remainder
    joins the last full batch, so no batch is shorter than
    ``batch_size``; fewer items than that make one batch."""
    ends = list(range(batch_size, len(items) - batch_size + 1, batch_size))
    return [items[a:b] for a, b in zip([0] + ends, ends + [len(items)])]


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
            f, features.labels[indices], head)
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
    return split_batches(rng.permutation(features.n_shapes),
                         config.batch_size)


def train(config, features, n_classes=None):
    """Run SGD and return (blocks, log rows, info).

    The log has one (epoch, mean_loss, wall_ms) row per epoch. Training
    stops early after ``early_stop_patience`` epochs without a relative
    loss improvement of ``early_stop_tol``. All epoch randomness is derived
    from (seed, epoch). An epoch whose gradients are all exactly 0 while
    its loss is above 0 (every embedding at one point, say) is logged as
    a warning: the parameters cannot move.
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
        dead = True
        for batch in batches:
            loss, grads = _batch_forward_backward(features, blocks, batch,
                                                  config)
            # W's gradient dF^T x is 0 when dF is; the rows of x are unit
            # vectors, so otherwise only by cancellation
            dead = dead and not any(
                np.any(g.left if isinstance(g, metric.FactoredGrad) else g)
                for g in grads.values())
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
        if dead and mean_loss > 0.0:
            logger.warning("epoch %d: every gradient is exactly 0 at mean "
                           "loss %.6g; the parameters cannot move", epoch,
                           mean_loss)

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
# largest relative gap between the factored rows and gamma-gradients and
# the reference factor Q; the two differ only in summation order
# (measured up to 1.8e-14, a rank-1 LSF gradient)
REFERENCE_THRESHOLD = 1e-12


@dataclass
class GradcheckReport:
    block_errors: dict
    reference_error: float
    wall_s: float

    @property
    def passed(self):
        return self.reference_error <= REFERENCE_THRESHOLD and all(
            e < GRADCHECK_THRESHOLD for e in self.block_errors.values())

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
        ok = self.reference_error <= REFERENCE_THRESHOLD
        lines.append(f"rows and gamma-gradient vs the Q factor "
                     f"(threshold {REFERENCE_THRESHOLD:g})")
        lines.append(f"  max rel err {self.reference_error:.3e}  "
                     f"{'ok' if ok else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} "
                     f"({self.wall_s:.2f} s)")
        return "\n".join(lines)


def toy_problem(n_shapes=8, dim=12, n_mix=10, n_classes=4, seed=11):
    """Small deterministic dataset driving the gradient checker.

    Shapes get random PSD matrices (two of them rank-deficient so the
    null space's share of the alpha = 0 power is exercised) and cyclic
    labels.
    """
    rng = substream(seed, "gradcheck")
    spectra, labels, ids = [], [], []
    for i in range(n_shapes):
        cols = dim - 3 if i < 2 else dim
        a = rng.normal(size=(dim, cols))
        h = (a @ a.T) / dim
        u, lam = spdm.nonzero_spectrum(h)
        spectra.append((u, spdm.shifted_powers(lam, n_mix)))
        labels.append(i % n_classes)
        ids.append(f"toy_{i:02d}")
    return FeatureSet(ids, np.array(labels), spectra=spectra)


def _loss_only(features, blocks, batch, config):
    loss, _ = _batch_forward_backward(features, blocks, batch, config)
    return loss


def gradcheck(seed=11):
    """Compare analytic gradients with central finite differences.

    Runs the retrieval objective (omega and W blocks) and the
    classification objective (omega, W, C, bias) on the toy problem and
    reports the worst relative error per block. It also holds the toy
    problem's rows and gamma-gradients to the reference factor Q.
    """
    t0 = time.perf_counter()
    features = toy_problem(seed=seed)
    reference_error = _reference_error(features, seed)
    errors = {}

    # margin large enough that every hinge is active and far from its kink
    retrieval_cfg = RunConfig(task="retrieval", batch_size=64,
                              learning_rate=1.0, margin=5.0, eta=1.0,
                              epochs=1, seed=seed, d_m=6)
    all_trips = _all_triplets(
        features.labels,
        np.ones(features.n_shapes, dtype=bool))
    blocks = init_params(retrieval_cfg, features)
    _accumulate_block_errors(errors, features, blocks, all_trips,
                             retrieval_cfg, "retr")

    classify_cfg = RunConfig(task="classification", batch_size=8,
                             learning_rate=1.0, epochs=1, seed=seed, d_m=6)
    blocks = init_params(classify_cfg, features,
                         n_classes=int(features.labels.max()) + 1)
    batch = np.arange(features.n_shapes)
    _accumulate_block_errors(errors, features, blocks, batch,
                             classify_cfg, "clf")
    return GradcheckReport(errors, reference_error,
                           time.perf_counter() - t0)


def _relative_gap(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _reference_error(features, seed):
    """Worst relative gap, over the shapes, between the production row
    and gamma-gradient and ``spdm.mpf_q_matrix``'s Q @ gamma and Q^T dx,
    at a random mixture and row gradient."""
    rng = substream(seed, "gradcheck", "reference")
    gamma = spdm.softmax(rng.normal(size=features.n_weights))
    dx = rng.normal(size=(features.n_shapes, features.dim))
    rows = features.rows(np.arange(features.n_shapes), gamma)
    e0 = np.eye(1, features.n_weights)[0]
    worst = 0.0
    for i, (u, p0) in enumerate(features.spectra):
        q = spdm.mpf_q_matrix(u, p0 + e0)
        dgamma = features.pull_gamma_grad([i], dx[i:i + 1])
        worst = max(worst, _relative_gap(rows[i], q @ gamma),
                    _relative_gap(dgamma, q.T @ dx[i]))
    return worst


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
