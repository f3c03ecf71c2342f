"""Dual-role heterogeneous attention convolution.

One layer does, per node i: (1) type embeddings h_t = sum_j a_ij h_j over
the normalized-adjacency neighbors j of type t, (2) type-level attention
from the logit eta_t . [h_i || h_t] of each present type, (3) node-level
attention over individual neighbors scaled by their type's weight, (4)
attention-weighted aggregation of type-projected neighbor embeddings
through an ELU. The self-loop counts as a neighbor of the node's own type.

Steps (1)-(2) never form h_t. Splitting eta_t into halves (eta_t1, eta_t2),
the logit is eta_t1 . h_i + sum_j a_ij (eta_t2 . h_j): the neighbor sum runs
over per-node scalar scores, one sparse product over the edges, instead of
over d-vectors, which would cost d times that and an n x d result per type.

A whole layer is one tape record. Its forward calls ``autodiff`` kernels
on plain arrays: ``row_block_product``, ``stack_halves``, ``type_softmax``,
``segment_softmax`` and the five ``bench/child.py`` times by name
(``matmul``, ``sparse_matmul``, ``gather``, ``edge_matmul``, ``elu``). The
one taped op it calls is ``ad.leaky_relu``, which ``bench/checks.HeldKinks``
patches to hold each kink on one side; called on plain arrays, it records
nothing, and the layer reads its values. Its backward composes the gradient
kernels in the chain's reverse order, so no gradient is written here a
second time. It keeps what those kernels read, the ELU's slope in place of
its input among them, and recomputes the cheap intermediates, ``projected``
among them (see ``layer_forward``). Its gradients are arrays it allocates
itself, so the record declares them fresh and the tape sums ``h``'s two
contributions in place.

Two stacked layers per role; the trustor view propagates along outgoing
trust, the trustee view along incoming trust. The last layer computes only
the user rows, which ``train.gate_fusion``'s learned sigmoid gate fuses
elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import GraphView

LEAKY_SLOPE = 0.2


@dataclass
class LayerParams:
    """Per-layer trainables: type projections and attention vectors."""

    w_user: Tensor  # (d, d), applied to user-typed neighbors
    w_obj: Tensor  # (d, d), applied to object-typed neighbors
    eta_user: Tensor  # (2d,), type-attention vector for the user type
    eta_obj: Tensor  # (2d,)
    gamma: Tensor  # (2d,), node-attention vector


# ---------------------------------------------------------------------------
# vectorized layer


def layer_forward(h: Tensor, view: GraphView, params: LayerParams, users_only: bool = False) -> Tensor:
    """One convolution layer over a view, recorded as one tape op.

    Computes steps (1)-(4) at every node, or at the user rows alone with
    ``users_only``, with the self-loop treated as a neighbor of the node's
    own type.
    One product of ``h`` with the six attention half-vectors gives every
    per-node score; the type logits then aggregate the neighbor scores
    through ``view.s_user``/``view.s_obj`` rather than aggregating ``h`` and
    dotting the n x d sums. Each edge reads its neighbor type's weight from
    ``type_softmax``'s [alpha_u; alpha_o] at ``view.typed_rows``.

    Rows are sorted, users first, so the m user rows' edges are a prefix of
    the edge list: with ``users_only`` the node attention, the aggregation
    and their gradients run over that prefix, the view's (m, n)
    ``user_emap``, built with the view, while ``projected``, the scores and
    the type softmax stay over all n nodes, since the prefix's neighbors
    include objects. The output is bitwise the full layer's first m rows
    and each gradient the full layer's under a zero-padded output gradient:
    rows and edges are computed independently, and every term the full
    layer adds beyond the prefix is a +-0 landing in a sum that starts at
    +0.0 (``bincount``, the sparse products), which changes no bit.

    The forward reads the values ``ad.leaky_relu`` returns, so a caller
    that patches it (as the gradient check does) changes the layer's output
    exactly as it would change the taped chain's.
    The backward calls the gradient kernels in reverse chain order, except
    that the projection's runs before the score product's, which does not
    read it, so the projection's gradient is freed before ``h``'s attention
    gradient is formed. Its gradients are bitwise the chain's; ``h`` takes
    the attention's contribution, then the projection's, as the returned
    pairs list them. It gives every input a gradient; the tape drops those
    of frozen inputs.

    It keeps the ELU's slope exp(min(pre, 0)), which the forward computes
    once, hands to ``ad.elu`` and keeps in place of the pre-ELU product
    (the same memory); the edge and type weights, the two pair-score
    columns, the stacked attention vectors, ``>= 0`` masks of the three
    leaky-ReLU inputs and a reference to ``h``. It recomputes the E-sized
    gathers and ``projected``, whose rebuild by ``ad.row_block_product``
    goes straight into ``ad.edge_dots`` and is freed before
    ``edge_matmul``'s input gradient is formed. Every gradient it returns
    is an array of its own, so the record is ``fresh``: the tape keeps
    ``d_h`` as ``h``'s gradient and adds ``d_x`` into it in place.
    """
    n, nu = view.num_nodes, view.num_users
    emap, m = (view.user_emap, nu) if users_only else (view.emap, n)
    rows, cols = emap.rows, emap.cols
    typed_rows = view.typed_rows[: rows.shape[0]]
    x = h.value
    w_user, w_obj = params.w_user.value, params.w_obj.value
    attn = (params.eta_user, params.eta_obj, params.gamma)

    # type-projected neighbor embeddings (users and objects use their own map)
    projected = ad.row_block_product(x, nu, w_user, w_obj)

    # per-node scores against each attention half-vector, one product for all six
    stacked = ad.stack_halves(*(p.value for p in attn))
    scores = ad.matmul(x, stacked)
    su_own, su_nbr, so_own, so_nbr, _, _ = scores.T
    # the backward reads only the pair-score columns: copies let the rest go
    s_own, s_nbr = scores[:, 4].copy(), scores[:, 5].copy()

    # type logits eta_t . [h_i || h_t], the neighbor sum taken over scores
    pre_u = su_own + ad.sparse_matmul(view.s_user, su_nbr)
    logit_u = ad.leaky_relu(pre_u, LEAKY_SLOPE).value
    pre_o = so_own + ad.sparse_matmul(view.s_obj, so_nbr)
    logit_o = ad.leaky_relu(pre_o, LEAKY_SLOPE).value
    nonneg_u, nonneg_o = pre_u >= 0, pre_o >= 0
    del pre_u, pre_o

    # softmax over the types present at each node
    alpha = ad.type_softmax(logit_u, logit_o, view.has_user_neighbor, view.has_obj_neighbor)
    del logit_u, logit_o

    # node-level attention: the neighbor's type weight scales the pair logit
    alpha_edge = ad.gather(alpha, typed_rows)
    pre_pair = alpha_edge * (ad.gather(s_own, rows) + ad.gather(s_nbr, cols))
    del alpha_edge
    pair_logit = ad.leaky_relu(pre_pair, LEAKY_SLOPE).value
    nonneg_pair = pre_pair >= 0
    del pre_pair
    beta = ad.segment_softmax(pair_logit, rows, emap.indptr)
    del pair_logit

    pre = ad.edge_matmul(beta, projected, emap)
    del projected
    slope = ad.elu_slopes(pre)
    trainable = any(t.requires_grad for t in (h, params.w_user, params.w_obj, *attn))
    out = Tensor(ad.elu(pre, slope), requires_grad=trainable)
    del pre

    def backward(g):
        # elu, then edge_matmul's value gradient (against ``projected``,
        # rebuilt) and its input gradient, a product with beta's transpose
        # through the map's CSC container
        d_pre = g * slope
        d_beta = ad.edge_dots(d_pre, ad.row_block_product(x, nu, w_user, w_obj), emap)
        d_proj = emap.product_t(beta, d_pre)
        del d_pre
        # segment_softmax, the pair leaky ReLU, and the product with alpha_edge
        d_pair = ad.segment_softmax_grad(beta, d_beta, rows, m)
        del d_beta
        d_pair *= ad.leaky_slopes(nonneg_pair, LEAKY_SLOPE)
        d_alpha_edge = d_pair * (s_own[rows] + s_nbr[cols])
        d_sum = d_pair * alpha[typed_rows]
        del d_pair
        # each column gradient is added onto zeros, as the chain summed its
        # zero-padded one-column gradients (this also turns -0.0 into +0.0)
        d_scores = np.zeros((n, 6))
        d_scores[:, 5] += ad.scatter_values(d_sum, cols, n)
        d_scores[:, 4] += ad.scatter_values(d_sum, rows, n)
        del d_sum
        d_alpha = ad.scatter_values(d_alpha_edge, typed_rows, 2 * n)
        del d_alpha_edge
        # type_softmax, then each type's leaky ReLU, sum and sparse product;
        # the products' transposes are the view's CSC matrices, built once
        d_logit_u, d_logit_o = ad.type_softmax_grads(alpha, d_alpha)
        del d_alpha
        d_logit_o *= ad.leaky_slopes(nonneg_o, LEAKY_SLOPE)
        d_scores[:, 2] += d_logit_o
        d_scores[:, 3] += view.s_obj_t @ d_logit_o
        d_logit_u *= ad.leaky_slopes(nonneg_u, LEAKY_SLOPE)
        d_scores[:, 0] += d_logit_u
        d_scores[:, 1] += view.s_user_t @ d_logit_u
        del d_logit_u, d_logit_o
        # row_block_product, then the score product and stack_halves: d_proj
        # goes before d_h is formed, so two n x d gradients are held, not three
        d_x, *d_w = ad.row_block_grads(x, nu, w_user, w_obj, d_proj)
        del d_proj
        d_h = d_scores @ stacked.T
        d_attn = ad.stack_halves_grads(x.T @ d_scores)
        del d_scores
        return [(h, d_h), *zip(attn, d_attn), (h, d_x), *zip((params.w_user, params.w_obj), d_w)]

    ad.record("layer", out, backward, fresh=True)
    return out
