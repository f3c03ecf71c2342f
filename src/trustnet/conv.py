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

    def effective(self) -> np.ndarray:
        x = self.raw_gate.value
        return 1.0 / (1.0 + np.exp(-x))


# ---------------------------------------------------------------------------
# vectorized layer


def layer_forward(h: Tensor, view: GraphView, params: LayerParams) -> Tensor:
    """One convolution layer over a whole view (tape-aware).

    Computes steps (1)-(4) at every node, with the self-loop treated as a
    neighbor of the node's own type. One product of ``h`` with the six
    attention half-vectors gives every per-node score; the type logits then
    aggregate the neighbor scores through ``view.s_user``/``view.s_obj``
    rather than aggregating ``h`` and dotting the n x d sums.
    """
    n, nu = view.num_nodes, view.num_users
    rows, cols = view.edge_rows, view.edge_cols

    # type-projected neighbor embeddings (users and objects use their own map)
    hu = ad.slice_rows(h, 0, nu)
    ho = ad.slice_rows(h, nu, n)
    projected = ad.concat_rows(ad.matmul(hu, params.w_user), ad.matmul(ho, params.w_obj))

    # per-node scores against each attention half-vector, one product for all six
    scores = ad.matmul(h, ad.stack_halves(params.eta_user, params.eta_obj, params.gamma))
    su_own, su_nbr, so_own, so_nbr, s_own, s_nbr = (ad.column(scores, k) for k in range(6))

    # type logits eta_t . [h_i || h_t], the neighbor sum taken over scores
    logit_u = ad.leaky_relu(su_own + ad.sparse_matmul(view.s_user, su_nbr), LEAKY_SLOPE)
    logit_o = ad.leaky_relu(so_own + ad.sparse_matmul(view.s_obj, so_nbr), LEAKY_SLOPE)

    # softmax over the types present at each node
    mask_u, mask_o = view.has_user_neighbor, view.has_obj_neighbor
    shift = np.maximum(
        np.where(mask_u > 0, logit_u.value, -np.inf),
        np.where(mask_o > 0, logit_o.value, -np.inf),
    )
    exp_u = ad.exp((logit_u - shift) * mask_u) * mask_u
    exp_o = ad.exp((logit_o - shift) * mask_o) * mask_o
    denom = exp_u + exp_o
    alpha_u = exp_u / denom
    alpha_o = exp_o / denom

    # node-level attention: the neighbor's type weight scales the pair logit
    is_user_col = view.edge_col_is_user
    alpha_edge = ad.gather(alpha_u, rows) * is_user_col + ad.gather(alpha_o, rows) * (
        1.0 - is_user_col
    )
    pair_logit = ad.leaky_relu(
        alpha_edge * (ad.gather(s_own, rows) + ad.gather(s_nbr, cols)), LEAKY_SLOPE
    )

    seg_shift = ad.segment_max_values(pair_logit.value, view.indptr)
    ex = ad.exp(pair_logit - seg_shift[rows])
    denom_e = ad.segment_sum(ex, rows, n)
    beta = ex / ad.gather(denom_e, rows)

    return ad.elu(ad.edge_matmul(beta, projected, view.emap))
