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

The two softmaxes in (2) and (3) and the type projection in (4) are each
one autodiff op with its own backward (``ad.type_softmax``,
``ad.segment_softmax``, ``ad.row_block_matmul``), so the tape keeps one
output per step instead of every intermediate of a generic op chain.

Two stacked layers per role; the trustor view propagates along outgoing
trust, the trustee view along incoming trust. A learned sigmoid gate
fuses the two user embeddings elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def layer_forward(h: Tensor, view: GraphView, params: LayerParams) -> Tensor:
    """One convolution layer over a whole view (tape-aware).

    Computes steps (1)-(4) at every node, with the self-loop treated as a
    neighbor of the node's own type. One product of ``h`` with the six
    attention half-vectors gives every per-node score; the type logits then
    aggregate the neighbor scores through ``view.s_user``/``view.s_obj``
    rather than aggregating ``h`` and dotting the n x d sums.

    Each softmax is one tape op: ``type_softmax`` returns both type weights
    as one 2n vector [alpha_u; alpha_o], from which every edge reads its
    neighbor type's weight at ``view.typed_rows``, and ``segment_softmax``
    normalises the pair logits within each node's edges. The per-type
    projection is one ``row_block_matmul`` over the user and object rows.
    """
    emap = view.emap

    # type-projected neighbor embeddings (users and objects use their own map)
    projected = ad.row_block_matmul(h, view.num_users, params.w_user, params.w_obj)

    # per-node scores against each attention half-vector, one product for all six
    scores = ad.matmul(h, ad.stack_halves(params.eta_user, params.eta_obj, params.gamma))
    su_own, su_nbr, so_own, so_nbr, s_own, s_nbr = (ad.column(scores, k) for k in range(6))

    # type logits eta_t . [h_i || h_t], the neighbor sum taken over scores
    logit_u = ad.leaky_relu(su_own + ad.sparse_matmul(view.s_user, su_nbr), LEAKY_SLOPE)
    logit_o = ad.leaky_relu(so_own + ad.sparse_matmul(view.s_obj, so_nbr), LEAKY_SLOPE)

    # softmax over the types present at each node
    alpha = ad.type_softmax(logit_u, logit_o, view.has_user_neighbor, view.has_obj_neighbor)

    # node-level attention: the neighbor's type weight scales the pair logit
    alpha_edge = ad.gather(alpha, view.typed_rows)
    pair_logit = ad.leaky_relu(
        alpha_edge * (ad.gather(s_own, emap.rows) + ad.gather(s_nbr, emap.cols)), LEAKY_SLOPE
    )
    beta = ad.segment_softmax(pair_logit, emap.rows, emap.indptr)

    return ad.elu(ad.edge_matmul(beta, projected, emap))
