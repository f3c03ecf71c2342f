"""Dual-role heterogeneous attention convolution.

One layer does, per node: (1) type embeddings as normalized-adjacency
sums over same-type neighbors, (2) type-level attention from the node's
own embedding against each type embedding, (3) node-level attention over
individual neighbors scaled by their type's weight, (4) attention-weighted
aggregation of type-projected neighbor embeddings through an ELU. The
self-loop counts as a neighbor of the node's own type.

Two stacked layers per role; the trustor view propagates along outgoing
trust, the trustee view along incoming trust. A learned sigmoid gate
fuses the two user embeddings elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .embed import EmbeddingTable
from .errors import DataError
from .graph import OBJECT, USER, GraphView, HeteroGraph, Role

LEAKY_SLOPE = 0.2


@dataclass
class LayerParams:
    """Per-layer trainables: type projections and attention vectors."""

    w_user: Tensor  # (d, d), applied to user-typed neighbors
    w_obj: Tensor  # (d, d), applied to object-typed neighbors
    eta_user: Tensor  # (2d,), type-attention vector for the user type
    eta_obj: Tensor  # (2d,)
    gamma: Tensor  # (2d,), node-attention vector

    @property
    def dim(self) -> int:
        return self.w_user.value.shape[0]


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


def _vectors(table) -> np.ndarray:
    if isinstance(table, EmbeddingTable):
        return table.vectors
    if isinstance(table, Tensor):
        return table.value
    return np.asarray(table, dtype=np.float64)


# ---------------------------------------------------------------------------
# per-node operations (contract surface; the training path is vectorized)


def type_embedding(target: int, node_type: int, view: GraphView, table) -> np.ndarray:
    """Sum of normalized-adjacency-weighted neighbors of one type.

    Includes the self-loop when the target's own type matches; returns a
    zero vector when the target has no neighbors of that type.
    """
    h = _vectors(table)
    row = view.matrix.getrow(target)
    out = np.zeros(h.shape[1])
    for j, a in zip(row.indices, row.data):
        j_type = USER if j < view.num_users else OBJECT
        if j_type == node_type:
            out += a * h[j]
    return out


def type_attention(h_target: np.ndarray, type_embeddings: dict, params: LayerParams) -> dict:
    """Softmax over present types of LeakyReLU(eta_t . [h_i || h_t])."""
    if not type_embeddings:
        raise DataError("at least one type must be present")
    etas = {USER: params.eta_user.value, OBJECT: params.eta_obj.value}
    logits = {}
    for t, h_t in type_embeddings.items():
        cat = np.concatenate([h_target, h_t])
        x = float(etas[t] @ cat)
        logits[t] = x if x >= 0 else LEAKY_SLOPE * x
    shift = max(logits.values())
    exps = {t: np.exp(v - shift) for t, v in logits.items()}
    total = sum(exps.values())
    return {t: e / total for t, e in exps.items()}


def node_attention(
    target: int,
    neighbors,
    table,
    type_weights: dict,
    params: LayerParams,
    num_users: int | None = None,
) -> np.ndarray:
    """Per-neighbor softmax weights scaled by each neighbor's type weight.

    ``neighbors`` lists node ids (include ``target`` itself for the
    self-loop term); an empty list degenerates to the self contribution
    and returns the single weight 1.
    """
    h = _vectors(table)
    if num_users is None:
        num_users = h.shape[0]
    neighbors = list(neighbors)
    if not neighbors:
        return np.array([1.0])
    gamma = params.gamma.value
    d = h.shape[1]
    g1, g2 = gamma[:d], gamma[d:]
    logits = np.empty(len(neighbors))
    for idx, j in enumerate(neighbors):
        t = USER if j < num_users else OBJECT
        x = type_weights[t] * (g1 @ h[target] + g2 @ h[j])
        logits[idx] = x if x >= 0 else LEAKY_SLOPE * x
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


# ---------------------------------------------------------------------------
# vectorized layer


def layer_forward(h: Tensor, view: GraphView, params: LayerParams) -> Tensor:
    """One convolution layer over a whole view (tape-aware).

    Equivalent to running the per-node operations at every node, with the
    self-loop treated as a neighbor of the node's own type.
    """
    n, nu = view.num_nodes, view.num_users
    d = params.dim
    rows, cols = view.edge_rows, view.edge_cols

    # type-projected neighbor embeddings (users and objects use their own map)
    hu = ad.slice_rows(h, 0, nu)
    ho = ad.slice_rows(h, nu, n)
    projected = ad.concat_rows(ad.matmul(hu, params.w_user), ad.matmul(ho, params.w_obj))

    # per-type aggregated neighborhoods (normalized adjacency, split by column type)
    t_user = ad.sparse_matmul(view.s_user, h)
    t_obj = ad.sparse_matmul(view.s_obj, h)

    eu1 = ad.slice_rows(params.eta_user, 0, d)
    eu2 = ad.slice_rows(params.eta_user, d, 2 * d)
    eo1 = ad.slice_rows(params.eta_obj, 0, d)
    eo2 = ad.slice_rows(params.eta_obj, d, 2 * d)
    logit_u = ad.leaky_relu(ad.matmul(h, eu1) + ad.matmul(t_user, eu2), LEAKY_SLOPE)
    logit_o = ad.leaky_relu(ad.matmul(h, eo1) + ad.matmul(t_obj, eo2), LEAKY_SLOPE)

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
    g1 = ad.slice_rows(params.gamma, 0, d)
    g2 = ad.slice_rows(params.gamma, d, 2 * d)
    s_own = ad.gather(ad.matmul(h, g1), rows)
    s_nbr = ad.gather(ad.matmul(h, g2), cols)
    pair_logit = ad.leaky_relu(alpha_edge * (s_own + s_nbr), LEAKY_SLOPE)

    seg_shift = ad.segment_max_values(pair_logit.value, view.indptr)
    ex = ad.exp(pair_logit - seg_shift[rows])
    denom_e = ad.segment_sum(ex, rows, n)
    beta = ex / ad.gather(denom_e, rows)

    return ad.elu(ad.edge_matmul(beta, projected, view.emap))


def propagate_layer(table, view: GraphView, params: LayerParams) -> EmbeddingTable:
    """Inference-time single layer: plain arrays in, plain arrays out."""
    h = Tensor(_vectors(table), requires_grad=False)
    return EmbeddingTable(layer_forward(h, view, params).value)


def encode_role(
    graph: HeteroGraph, view: GraphView, table, encoder: RoleEncoder
) -> EmbeddingTable:
    """Stacked layers over one role's view (all nodes, users and objects)."""
    if view.role is not encoder.role:
        raise DataError(f"view role {view.role} does not match encoder role {encoder.role}")
    h = Tensor(_vectors(table), requires_grad=False)
    for layer in encoder.layers:
        h = layer_forward(h, view, layer)
    return EmbeddingTable(h.value)


def fuse(h_trustor, h_trustee, gate: GateParams) -> np.ndarray:
    """Elementwise convex combination g*h + (1-g)*h_bar with g = sigmoid(gate)."""
    a = np.asarray(h_trustor, dtype=np.float64)
    b = np.asarray(h_trustee, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"fuse expects matching shapes, got {a.shape} and {b.shape}")
    g = gate.effective()
    if g.shape[0] != a.shape[-1]:
        raise DataError(f"gate dim {g.shape[0]} does not match embedding dim {a.shape[-1]}")
    return g * a + (1.0 - g) * b
