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

A whole layer is one tape record. Its forward runs a chain of autodiff ops
(the two softmaxes in (2) and (3) and the type projection in (4) are the
fused ``ad.type_softmax``, ``ad.segment_softmax`` and ``ad.row_block_matmul``)
on plain arrays, so none of them records anything; a hand-written backward
replays the chain's gradient arithmetic from the few arrays it reads. The
forward still calls each op through the ``autodiff`` module, because the
benchmark wraps those names to time them and its gradient check replaces
``ad.leaky_relu`` to hold each kink on one side (``bench/checks.HeldKinks``).

Two stacked layers per role; the trustor view propagates along outgoing
trust, the trustee view along incoming trust. A learned sigmoid gate
fuses the two user embeddings elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import GraphView, Role

LEAKY_SLOPE = 0.2


@dataclass
class LayerParams:
    """Per-layer trainables: type projections and attention vectors."""

    w_user: Tensor  # (d, d), applied to user-typed neighbors
    w_obj: Tensor  # (d, d), applied to object-typed neighbors
    eta_user: Tensor  # (2d,), type-attention vector for the user type
    eta_obj: Tensor  # (2d,)
    gamma: Tensor  # (2d,), node-attention vector


@dataclass
class RoleEncoder:
    """Stack of convolution layers bound to one role's view."""

    role: Role
    layers: list[LayerParams]


@dataclass
class GateParams:
    """Raw (pre-sigmoid) fusion gate over the latent dimension."""

    raw_gate: Tensor


# ---------------------------------------------------------------------------
# vectorized layer


def _slopes(nonneg: np.ndarray) -> np.ndarray:
    """The leaky ReLU's derivative at each input, from the input's ``>= 0`` mask."""
    return np.array([LEAKY_SLOPE, 1.0]).take(nonneg.view(np.uint8))


def layer_forward(h: Tensor, view: GraphView, params: LayerParams) -> Tensor:
    """One convolution layer over a whole view, recorded as one tape op.

    Computes steps (1)-(4) at every node, with the self-loop treated as a
    neighbor of the node's own type. One product of ``h`` with the six
    attention half-vectors gives every per-node score; the type logits then
    aggregate the neighbor scores through ``view.s_user``/``view.s_obj``
    rather than aggregating ``h`` and dotting the n x d sums.

    ``type_softmax`` returns both type weights as one 2n vector
    [alpha_u; alpha_o], from which every edge reads its neighbor type's
    weight at ``view.typed_rows``; ``segment_softmax`` normalises the pair
    logits within each node's edges, and ``row_block_matmul`` applies the
    per-type projection.

    The forward calls each op of the chain, ``ad.row_block_matmul``
    through ``ad.elu``, on plain arrays, so none of them records, and reads
    the values they return: a caller that patches one of them (as the
    benchmark's gradient check patches ``leaky_relu``) changes the layer's
    output exactly as it would change the taped chain's. The one record's
    backward replays the chain's gradient arithmetic in the chain's order,
    so its gradients are bit-identical to the chain's.
    It keeps the arrays that arithmetic reads -- the pre-ELU product, the
    edge weights, the type weights, the two pair-score columns and the
    stacked attention vectors -- plus ``>= 0`` masks of the three
    leaky-ReLU inputs and a reference to the input ``h``. It recomputes the
    E-sized gathers, the ELU derivative and ``projected``: the two
    products that rebuild ``projected`` from the input are cheaper than
    holding an n x d array per layer until the backward reaches it, and
    they are the same ``np.matmul`` calls ``ad.row_block_matmul`` makes, so
    the rebuilt array is bitwise the forward's.
    """
    emap = view.emap
    rows, cols, n, nu = emap.rows, emap.cols, view.num_nodes, view.num_users
    x = h.value
    w_user, w_obj = params.w_user.value, params.w_obj.value
    attn = (params.eta_user, params.eta_obj, params.gamma)

    # type-projected neighbor embeddings (users and objects use their own map)
    projected = ad.row_block_matmul(x, nu, w_user, w_obj).value

    # per-node scores against each attention half-vector, one product for all six
    stacked = ad.stack_halves(*(p.value for p in attn)).value
    scores = ad.matmul(x, stacked).value
    su_own, su_nbr, so_own, so_nbr, _, _ = scores.T
    # the backward reads only the pair-score columns: copies let the rest go
    s_own, s_nbr = scores[:, 4].copy(), scores[:, 5].copy()

    # type logits eta_t . [h_i || h_t], the neighbor sum taken over scores
    pre_u = su_own + ad.sparse_matmul(view.s_user, su_nbr).value
    logit_u = ad.leaky_relu(pre_u, LEAKY_SLOPE).value
    pre_o = so_own + ad.sparse_matmul(view.s_obj, so_nbr).value
    logit_o = ad.leaky_relu(pre_o, LEAKY_SLOPE).value
    nonneg_u, nonneg_o = pre_u >= 0, pre_o >= 0
    del pre_u, pre_o

    # softmax over the types present at each node
    alpha = ad.type_softmax(logit_u, logit_o, view.has_user_neighbor, view.has_obj_neighbor).value
    del logit_u, logit_o

    # node-level attention: the neighbor's type weight scales the pair logit
    alpha_edge = ad.gather(alpha, view.typed_rows).value
    pre_pair = alpha_edge * (ad.gather(s_own, rows).value + ad.gather(s_nbr, cols).value)
    del alpha_edge
    pair_logit = ad.leaky_relu(pre_pair, LEAKY_SLOPE).value
    nonneg_pair = pre_pair >= 0
    del pre_pair
    beta = ad.segment_softmax(pair_logit, rows, emap.indptr).value
    del pair_logit

    pre = ad.edge_matmul(beta, projected, emap).value
    del projected
    # whether gradients flow through the attention weights and through ``projected``
    attend = h.requires_grad or any(p.requires_grad for p in attn)
    project = h.requires_grad or params.w_user.requires_grad or params.w_obj.requires_grad
    out = Tensor(ad.elu(pre).value, requires_grad=attend or project)

    def backward(g):
        # elu, then edge_matmul's value and input gradients
        d_pre = g * np.exp(np.minimum(pre, 0.0))
        d_beta = None
        if attend:
            # ``projected`` again, by row_block_matmul's two products
            projected = np.empty((n, w_user.shape[1]))
            np.matmul(x[:nu], w_user, out=projected[:nu])
            np.matmul(x[nu:], w_obj, out=projected[nu:])
            d_beta = ad.edge_dots(d_pre, projected, emap)
            del projected
        d_proj = emap.matrix(beta).T @ d_pre if project else None
        del d_pre
        pairs = []
        if attend:
            # segment_softmax, the pair leaky ReLU, and the product with alpha_edge
            dot = np.bincount(rows, weights=beta * d_beta, minlength=n)
            d_pair = beta * (d_beta - dot[rows])
            del d_beta, dot
            d_pair *= _slopes(nonneg_pair)
            d_alpha_edge = d_pair * (s_own[rows] + s_nbr[cols])
            d_sum = d_pair * alpha[view.typed_rows]
            del d_pair
            # each column gradient is added onto zeros, as the chain summed its
            # zero-padded one-column gradients (this also turns -0.0 into +0.0)
            d_scores = np.zeros((n, 6))
            d_scores[:, 5] += np.bincount(cols, weights=d_sum, minlength=n)
            d_scores[:, 4] += np.bincount(rows, weights=d_sum, minlength=n)
            del d_sum
            d_alpha = np.bincount(view.typed_rows, weights=d_alpha_edge, minlength=2 * n)
            del d_alpha_edge
            # type_softmax, then each type's leaky ReLU, sum and sparse product
            a_u, a_o = alpha[:n], alpha[n:]
            g_u, g_o = d_alpha[:n], d_alpha[n:]
            dot = a_u * g_u + a_o * g_o
            d_logit_u = a_u * (g_u - dot)
            d_logit_o = a_o * (g_o - dot)
            del d_alpha, dot
            d_logit_o *= _slopes(nonneg_o)
            d_scores[:, 2] += d_logit_o
            d_scores[:, 3] += view.s_obj.T @ d_logit_o
            d_logit_u *= _slopes(nonneg_u)
            d_scores[:, 0] += d_logit_u
            d_scores[:, 1] += view.s_user.T @ d_logit_u
            del d_logit_u, d_logit_o
            # the score product and stack_halves
            if h.requires_grad:
                pairs.append((h, d_scores @ stacked.T))
            d_stacked = x.T @ d_scores
            del d_scores
            for i, p in enumerate(attn):
                pairs.append((p, d_stacked[:, 2 * i : 2 * i + 2].T.reshape(-1)))
        if project:
            # row_block_matmul
            g_top, g_bottom = d_proj[:nu], d_proj[nu:]
            if h.requires_grad:
                dx = np.empty_like(x)
                np.matmul(g_top, w_user.T, out=dx[:nu])
                np.matmul(g_bottom, w_obj.T, out=dx[nu:])
                pairs.append((h, dx))
            pairs += [(params.w_user, x[:nu].T @ g_top), (params.w_obj, x[nu:].T @ g_bottom)]
        return pairs

    ad.record(out, backward)
    return out
