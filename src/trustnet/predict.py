"""Pairwise trust predictor head, cross-entropy loss, and metrics.

The head concatenates the trustor's and trustee's fused embeddings in
that order (so swapping the pair generally changes the output) and
applies one affine layer followed by a softmax over {no-trust, trust}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

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


def _pair_arrays(n_users: int, trustors, trustees, labels):
    """The pair columns as integer arrays, rejecting what would be misread.

    Fancy indexing would wrap a negative id to the last rows, and the loss
    would score a label of -1 as class 1.
    """
    i, j, y = (np.asarray(a) for a in (trustors, trustees, labels))
    if not i.shape == j.shape == y.shape == (y.size,):
        raise DataError(
            f"trustors, trustees and labels must be 1-D of one length, got shapes "
            f"{i.shape}, {j.shape} and {y.shape}"
        )
    if len(y) == 0:
        raise DataError("cannot compute a loss over zero samples")
    for name, a in (("trustor ids", i), ("trustee ids", j), ("labels", y)):
        if a.dtype.kind not in "iu":
            raise DataError(f"{name} must be integers, got dtype {a.dtype}")
    if y.min() < 0 or y.max() > 1:
        raise DataError("labels must be 0 (no trust) or 1 (trust)")
    for name, ids in (("trustor", i), ("trustee", j)):
        if ids.min() < 0 or ids.max() >= n_users:
            raise DataError(f"{name} ids must lie in [0, {n_users})")
    return i, j, y


@dataclass(frozen=True)
class PairScatter:
    """A fixed pair set, checked once, and the two matrices its loss gradient scatters through.

    ``by_trustor`` and ``by_trustee`` are ``ad.scatter_matrices`` of the
    checked trustor and trustee ids over ``n_users`` rows, which share
    their data and column-pointer arrays. A run builds
    one for its train pairs (``pair_scatter``) and hands it to
    ``pair_loss`` at every step, which then neither checks the pairs again
    nor builds a matrix.
    """

    n_users: int
    trustors: np.ndarray
    trustees: np.ndarray
    labels: np.ndarray
    by_trustor: sp.csc_array
    by_trustee: sp.csc_array


def pair_scatter(n_users: int, trustors, trustees, labels) -> PairScatter:
    """The pairs' ``PairScatter``; raises ``DataError`` where ``pair_loss`` would."""
    i, j, y = _pair_arrays(n_users, trustors, trustees, labels)
    return PairScatter(n_users, i, j, y, *ad.scatter_matrices(n_users, i, j))


def pair_loss(
    z: Tensor, trustors, trustees, labels, params: PredictorParams, scatter: PairScatter | None = None
) -> Tensor:
    """Tape-aware mean cross-entropy from fused user embeddings, as one record.

    Numerically stable: computed as mean(logsumexp(logits) - logit_true)
    with a detached per-row shift, where the logits are
    ``concat([z[i], z[j]]) @ W + b``. The forward and the backward replay
    the arithmetic of the op chain this record replaces (gather,
    concat_cols, matmul, add, exp, reduce_sum, log, gather_pairs, sub,
    mean), so the loss and its gradients are bitwise the chain's when ``z``
    has two or more columns. With one, numpy multiplies each one-row half
    of ``W`` as a matrix-vector product, which may round otherwise.

    The record keeps the softmax numerators ``ex``, their row sums, the
    scatter (the pair arrays and their two matrices) and references to
    ``z``, ``W`` and ``b``. Its backward never forms the m x 2d pair
    features or their gradient: each half of ``W`` meets its own half of
    the features, and ``z`` gets the trustee rows' scatter plus the
    trustor rows', in the chain's order. Every input gets its gradient,
    and the tape drops a frozen one's.

    The backward scatters through ``scatter``'s two matrices. A caller
    whose pairs never change passes ``pair_scatter`` of these very pair
    arrays (the same objects) over ``z``'s rows, built once; without it
    each call checks the pairs and builds the matrices itself, with the
    same bits. A ``scatter`` of other pairs is a ``ValueError``.

    Raises ``DataError`` for an empty batch, pair columns of different
    lengths or of a non-integer dtype, labels other than 0 and 1, and user
    ids outside [0, n_users).
    """
    zv, w, b = z.value, params.weight, params.bias
    n, d = zv.shape
    if scatter is None:
        scatter = pair_scatter(n, trustors, trustees, labels)
    elif scatter.n_users != n or any(
        given is not kept
        for given, kept in zip((trustors, trustees, labels), (scatter.trustors, scatter.trustees, scatter.labels))
    ):
        raise ValueError("the scatter was built for other pairs")
    i, j, y = scatter.trustors, scatter.trustees, scatter.labels
    m = y.shape[0]
    # row k of the (m, 2, d) gather is [z[i[k]], z[j[k]]]: the concatenated
    # pair features, with no separate copy of either half
    cat = zv[np.stack((i, j), axis=1)].reshape(m, 2 * d)
    logits = cat @ w.value + b.value
    del cat
    shift = logits.max(axis=1)
    ex = np.exp(logits - shift[:, None])
    sums = ex.sum(axis=1)
    loss = (np.log(sums) - (logits[np.arange(m), y] - shift)).mean()
    out = Tensor(loss, requires_grad=z.requires_grad or w.requires_grad or b.requires_grad)
    del logits, shift

    def backward(g):
        # mean, then the two subs: each pair's log-sum-exp gets d_pair and its
        # picked logit -d_pair
        d_pair = float(g) / m
        # gather_pairs' zero-padded share, then log, reduce_sum and exp's added on
        d_logits = np.zeros_like(ex)
        d_logits[np.arange(m), y] = -d_pair
        d_logits += (d_pair / sums)[:, None] * ex
        wv = w.value
        d_w = np.empty_like(wv)
        np.matmul(zv[i].T, d_logits, out=d_w[:d])
        np.matmul(zv[j].T, d_logits, out=d_w[d:])
        d_z = scatter.by_trustee @ (d_logits @ wv[d:].T)
        d_z += scatter.by_trustor @ (d_logits @ wv[:d].T)
        return [(b, d_logits.sum(axis=0)), (w, d_w), (z, d_z)]

    ad.record("loss", out, backward)
    return out


def metrics(predictions, labels) -> tuple[float, float]:
    """Accuracy and positive-class F1 at the 0.5 threshold.

    ``predictions`` holds one trust-class probability per pair.
    """
    preds = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if not preds.shape == y.shape == (y.size,):
        raise DataError(
            f"predictions and labels must be 1-D of one length, got shapes {preds.shape} and {y.shape}"
        )
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
