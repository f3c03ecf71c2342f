"""Pairwise trust predictor head, cross-entropy loss, and metrics.

The head concatenates the trustor's and trustee's fused embeddings in
that order (so swapping the pair generally changes the output) and
applies one affine layer followed by a softmax over {no-trust, trust}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError

TRUST_CLASS = 1


@dataclass
class PredictorParams:
    weight: Tensor  # (2 * zdim, 2)
    bias: Tensor  # (2,)

    @property
    def input_dim(self) -> int:
        return self.weight.value.shape[0]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shift = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - shift)
    return ex / ex.sum(axis=-1, keepdims=True)


def predict_pair(z_i, z_j, params: PredictorParams) -> np.ndarray:
    """Probability pair (no-trust, trust) for the ordered pair (i, j)."""
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    if z_i.shape != z_j.shape:
        raise DataError("pair embeddings must share a shape")
    cat = np.concatenate([z_i, z_j], axis=-1)
    if cat.shape[-1] != params.input_dim:
        raise DataError(
            f"predictor expects input dim {params.input_dim}, got {cat.shape[-1]}"
        )
    logits = cat @ params.weight.value + params.bias.value
    return _softmax_rows(logits)


def predict_scores(z: np.ndarray, trustors, trustees, params: PredictorParams) -> np.ndarray:
    """Trust-class probability for many ordered pairs at once."""
    probs = predict_pair(z[np.asarray(trustors)], z[np.asarray(trustees)], params)
    return probs[:, TRUST_CLASS]


def pair_loss(z: Tensor, trustors, trustees, labels, params: PredictorParams) -> Tensor:
    """Tape-aware mean cross-entropy from fused user embeddings.

    Numerically stable: computed as mean(logsumexp(logits) - logit_true)
    with a detached per-row shift.
    """
    m = len(labels)
    if m == 0:
        raise DataError("cannot compute a loss over zero samples")
    zi = ad.gather(z, np.asarray(trustors))
    zj = ad.gather(z, np.asarray(trustees))
    logits = ad.matmul(ad.concat_cols(zi, zj), params.weight) + params.bias
    shift = logits.value.max(axis=1)
    ex = ad.exp(logits - shift[:, None])
    lse = ad.log(ad.reduce_sum(ex, axis=1))  # = logsumexp(logits) - shift
    picked = ad.gather_pairs(logits, np.arange(m), np.asarray(labels))
    return ad.mean(lse - (picked - shift))


def metrics(predictions, labels) -> tuple[float, float]:
    """Accuracy and positive-class F1 at the 0.5 threshold.

    ``predictions`` holds trust-class probabilities (or an (m, 2)
    distribution per pair, of which the trust column is used).
    """
    preds = np.asarray(predictions, dtype=np.float64)
    if preds.ndim == 2:
        preds = preds[:, TRUST_CLASS]
    y = np.asarray(labels, dtype=np.int64)
    if preds.shape[0] != y.shape[0]:
        raise DataError("predictions and labels must have equal length")
    if preds.shape[0] == 0:
        raise DataError("metrics need at least one sample")
    hard = (preds >= 0.5).astype(np.int64)
    accuracy = float((hard == y).mean())
    tp = int(np.sum((hard == 1) & (y == 1)))
    fp = int(np.sum((hard == 1) & (y == 0)))
    fn = int(np.sum((hard == 0) & (y == 1)))
    if tp == 0:
        f1 = 0.0
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2.0 * precision * recall / (precision + recall)
    return accuracy, f1
