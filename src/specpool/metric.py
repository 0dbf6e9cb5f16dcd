"""Linear embedding head and the retrieval / classification losses.

The embedding is F = W (x / ||x||) over the transformed descriptor
vector. The retrieval loss is a squared hinge over triplets plus an
attraction term; the classification loss applies the binary cross-entropy
form to softmax outputs (a plain categorical variant is available).
All gradients are exact and feed the spectral-transform backward. The
gradient of W stays as its two thin factors (``FactoredGrad``), so a
training step builds no d_m x D array: W has d(d+1)/2 columns, 195,625
at d = 625.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .rng import substream
from . import storage

MODEL_FORMAT_VERSION = 1
PROB_CLAMP = 1e-12
LOSS_VARIANTS = ("bce", "categorical")


@dataclass
class EmbeddingParams:
    """Embedding matrix W (D_m x D_p) and optional classifier (C, bias)."""

    W: np.ndarray
    C: np.ndarray = None
    bias: np.ndarray = None

    def __post_init__(self):
        self.W = np.ascontiguousarray(self.W, dtype=np.float64)
        if self.W.ndim != 2:
            raise DataError(f"W must be 2-d, got shape {self.W.shape}")
        if self.W.shape[0] > self.W.shape[1]:
            raise DataError(f"embedding cannot expand: W is {self.W.shape}")
        if (self.C is None) != (self.bias is None):
            raise DataError("classifier needs both C and bias")
        if self.C is not None:
            self.C = np.ascontiguousarray(self.C, dtype=np.float64)
            self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
            if self.C.ndim != 2 or self.C.shape[1] != self.W.shape[0]:
                raise DataError(f"C shape {self.C.shape} does not match "
                                f"D_m = {self.W.shape[0]}")
            if self.bias.shape != (self.C.shape[0],):
                raise DataError("bias length must match class count")

    @classmethod
    def from_blocks(cls, blocks):
        """The head in a model's parameter blocks: W, optional C and bias."""
        return cls(blocks["W"], blocks.get("C"), blocks.get("bias"))

    @property
    def d_in(self):
        return self.W.shape[1]

    @property
    def n_classes(self):
        return None if self.C is None else self.C.shape[0]


def init_embedding(d_in, d_embed, seed, n_classes=None):
    """Fan-based symmetric uniform init; zero classifier bias."""
    rng = substream(seed, "init", "embed")
    bound = np.sqrt(6.0 / (d_embed + d_in))
    w = rng.uniform(-bound, bound, size=(d_embed, d_in))
    c = bias = None
    if n_classes is not None:
        if n_classes < 2:
            raise DataError(f"need >= 2 classes, got {n_classes}")
        cb = np.sqrt(6.0 / (n_classes + d_embed))
        c = rng.uniform(-cb, cb, size=(n_classes, d_embed))
        bias = np.zeros(n_classes)
    return EmbeddingParams(w, c, bias)


# ---------------------------------------------------------------------------
# embedding forward/backward (row-stacked kernels)

def normalize_rows(x):
    """Row L2 normalization; any zero row is an error."""
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms == 0.0):
        raise DataError(f"zero descriptor vector at row "
                        f"{int(np.argmin(norms))}")
    return x / norms[:, None], norms


def embed_rows(x, params):
    """F = W (x / ||x||) per row; returns (F, cache for backward)."""
    if x.shape[1] != params.d_in:
        raise DataError(f"descriptor dim {x.shape[1]} != W input "
                        f"{params.d_in}")
    xt, norms = normalize_rows(x)
    return xt @ params.W.T, (xt, norms)


class FactoredGrad(NamedTuple):
    """The weight gradient ``left.T @ right``, kept as its two factors.

    ``left`` is B x d_m and ``right`` is B x D for a batch of B rows.
    """

    left: np.ndarray
    right: np.ndarray

    def dense(self):
        """The d_m x D gradient as one array."""
        return self.left.T @ self.right


def embed_rows_backward(dF, params, cache):
    """Gradients (dW, dx) through the embedding and the normalization.

    dW = dF^T (x / ||x||) is returned as ``FactoredGrad(dF, x / ||x||)``;
    it holds ``dF`` itself, not a copy. The normalization Jacobian is
    (I - u u^T) / ||x|| at u = x/||x||.
    """
    xt, norms = cache
    y = dF @ params.W
    dx = (y - np.sum(y * xt, axis=1)[:, None] * xt) / norms[:, None]
    return FactoredGrad(dF, xt), dx


# ---------------------------------------------------------------------------
# triplet loss

def triplet_loss_rows(fa, fp, fn, margin, eta):
    """Loss and gradients for stacked triplet embeddings.

    L = sum_i (margin + d_pos_i - d_neg_i)_+^2 + eta * d_pos_i with
    Euclidean distances. At coincident points the distance subgradient
    is taken as 0; the squared hinge is differentiable at its kink.
    """
    if margin < 0 or eta < 0:
        raise DataError("margin and eta must be non-negative")
    if len(fa) == 0:
        raise DataError("empty triplet batch")
    diff_p = fa - fp
    diff_n = fa - fn
    d_pos = np.linalg.norm(diff_p, axis=1)
    d_neg = np.linalg.norm(diff_n, axis=1)
    hinge = margin + d_pos - d_neg
    active = hinge > 0.0
    loss = float(np.sum(np.where(active, hinge, 0.0) ** 2)
                 + eta * np.sum(d_pos))

    with np.errstate(invalid="ignore", divide="ignore"):
        unit_p = np.where(d_pos[:, None] > 0, diff_p / d_pos[:, None], 0.0)
        unit_n = np.where(d_neg[:, None] > 0, diff_n / d_neg[:, None], 0.0)
    g_pos = (2.0 * hinge * active + eta)[:, None]
    g_neg = (-2.0 * hinge * active)[:, None]
    dfa = g_pos * unit_p + g_neg * unit_n
    dfp = -g_pos * unit_p
    dfn = -g_neg * unit_n
    return loss, dfa, dfp, dfn


# ---------------------------------------------------------------------------
# classification loss

def softmax_rows(z):
    e = np.exp(z - np.max(z, axis=1)[:, None])
    return e / np.sum(e, axis=1)[:, None]


def classify_loss(f, labels, params, variant="bce"):
    """Cross-entropy over softmax of C F + bias.

    The default form charges every class slot: -[y log p + (1-y) log(1-p)]
    summed over classes; ``categorical`` charges only the true class.
    Probabilities are clamped to [1e-12, 1 - 1e-12] before the logs.
    Returns (loss, dF, dC, dbias, probs); loss is summed over shapes.
    """
    if variant not in LOSS_VARIANTS:
        raise DataError(f"unknown loss variant {variant!r}")
    if params.C is None:
        raise DataError("classification requires classifier parameters")
    labels = np.asarray(labels)
    m = params.n_classes
    if labels.min() < 0 or labels.max() >= m:
        raise DataError(f"label outside 0..{m - 1}")
    z = f @ params.C.T + params.bias
    probs = softmax_rows(z)
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    inside = (probs > PROB_CLAMP) & (probs < 1.0 - PROB_CLAMP)
    y = np.zeros_like(p)
    y[np.arange(len(labels)), labels] = 1.0

    if variant == "bce":
        loss = float(-np.sum(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
        dp = (-y / p + (1.0 - y) / (1.0 - p)) * inside
    else:
        loss = float(-np.sum(y * np.log(p)))
        dp = (-y / p) * inside

    dz = probs * (dp - np.sum(dp * probs, axis=1)[:, None])
    dC = dz.T @ f
    dbias = dz.sum(axis=0)
    dF = dz @ params.C
    return loss, dF, dC, dbias, probs


# ---------------------------------------------------------------------------
# model files

def save_model(path, blocks, meta):
    """Write a versioned model container.

    ``blocks`` maps parameter names (omega, W, C, bias) to arrays; ``meta``
    holds scalar metadata (feature mode, dims, config hash).
    """
    arrays = {f"param_{k}": v for k, v in blocks.items() if v is not None}
    arrays["format_version"] = np.int64(MODEL_FORMAT_VERSION)
    for k, v in meta.items():
        arrays[f"meta_{k}"] = np.asarray(v)
    storage.save_bundle(path, arrays)


def load_model(path):
    """Read a model container back as (blocks, meta)."""
    try:
        arrays = storage.load_bundle(path)
    except Exception as exc:
        raise DataError(f"corrupt or unreadable model file {path}: {exc}")
    if "format_version" not in arrays:
        raise DataError(f"corrupt model file {path}: missing version")
    version = int(arrays["format_version"])
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version}")
    blocks = {k[len("param_"):]: arrays[k] for k in arrays
              if k.startswith("param_")}
    meta = {}
    for k in arrays:
        if k.startswith("meta_"):
            v = arrays[k]
            meta[k[len("meta_"):]] = v.item() if v.ndim == 0 else v
    return blocks, meta
