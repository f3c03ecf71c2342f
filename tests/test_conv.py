import ast
import gc
import inspect
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from trustnet import autodiff as ad
from trustnet import conv, experiment, train
from trustnet.autodiff import Tape, Tensor
from trustnet.conv import LEAKY_SLOPE, LayerParams, layer_forward
from trustnet.errors import DataError
from trustnet.experiment import ExperimentConfig, PprConfig
from trustnet.fixtures import make_filmtrust_files, make_pipeline_fixture
from trustnet.graph import OBJECT, USER, GraphView, HeteroGraph, Role, build_view
from trustnet.ppr import topk_augment
from trustnet.predict import PredictorParams, pair_loss
from trustnet.train import backward, forward, init_params

from test_autodiff import (
    REPO, add, assert_close_grads, column, concat_rows, div, edge_matmul, elu, exp, gather, matmul, mul,
    row_block_matmul, segment_softmax, sigmoid, slice_rows, sparse_matmul, stack_halves, sub, type_softmax,
)
from test_graph import adjacency, type_blocks
from test_predict import chain_pair_loss, frozen


# ---------------------------------------------------------------------------
# per-node oracles and inference wrappers around the production layer


def type_embedding(target: int, node_type: int, view: GraphView, h: np.ndarray) -> np.ndarray:
    """Sum of normalized-adjacency-weighted neighbors of one type.

    Includes the self-loop when the target's own type matches; returns a
    zero vector when the target has no neighbors of that type.
    """
    row = adjacency(view).getrow(target)
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
    h: np.ndarray,
    type_weights: dict,
    params: LayerParams,
    num_users: int | None = None,
) -> np.ndarray:
    """Per-neighbor softmax weights scaled by each neighbor's type weight.

    ``neighbors`` lists node ids (include ``target`` itself for the
    self-loop term); an empty list degenerates to the self contribution
    and returns the single weight 1.
    """
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


def propagate_layer(h: np.ndarray, view: GraphView, params: LayerParams) -> np.ndarray:
    """Inference-time single production layer: plain arrays in, plain arrays out."""
    return layer_forward(Tensor(h, requires_grad=False), view, params).value


def encode_role(view: GraphView, h: np.ndarray, layers: list[LayerParams]) -> np.ndarray:
    """Stacked production layers over one role's view (all nodes, users and objects)."""
    x = Tensor(h, requires_grad=False)
    for layer in layers:
        x = layer_forward(x, view, layer)
    return x.value


def gate_effective(raw_gate: Tensor) -> np.ndarray:
    """The fusion gate after its sigmoid, g = 1 / (1 + exp(-raw))."""
    return 1.0 / (1.0 + np.exp(-raw_gate.value))


def fuse(h_trustor, h_trustee, raw_gate: Tensor) -> np.ndarray:
    """Elementwise convex combination g*h + (1-g)*h_bar with g = sigmoid(gate)."""
    a = np.asarray(h_trustor, dtype=np.float64)
    b = np.asarray(h_trustee, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"fuse expects matching shapes, got {a.shape} and {b.shape}")
    g = gate_effective(raw_gate)
    if g.shape[0] != a.shape[-1]:
        raise DataError(f"gate dim {g.shape[0]} does not match embedding dim {a.shape[-1]}")
    return g * a + (1.0 - g) * b


def chain_gate_fusion(z_tor: Tensor, z_tee: Tensor, raw_gate: Tensor) -> Tensor:
    """``train.gate_fusion`` as a chain of five tape ops, each with its own record."""
    g = sigmoid(raw_gate)
    return add(mul(g, z_tor), mul(sub(1.0, g), z_tee))


def chain_layer_forward(h: Tensor, view: GraphView, params: LayerParams, users_only: bool = False) -> Tensor:
    """``layer_forward`` as a chain of 25 tape ops, each with its own record.

    The production layer runs this same chain's kernels untaped and replays
    its gradient arithmetic in one record, so its output and gradients must
    be bitwise equal to this chain's. With ``users_only`` the chain
    computes every row and slices off the user rows, which the production
    layer computes alone.
    """
    emap = view.emap

    projected = row_block_matmul(h, view.num_users, params.w_user, params.w_obj)

    scores = matmul(h, stack_halves(params.eta_user, params.eta_obj, params.gamma))
    su_own, su_nbr, so_own, so_nbr, s_own, s_nbr = (column(scores, k) for k in range(6))

    # each type's own block of the view's typed adjacency; one leaky ReLU over
    # both types' logits, as the layer calls it
    s_user, s_obj = type_blocks(view)
    pre_u = add(su_own, sparse_matmul(s_user, su_nbr))
    pre_o = add(so_own, sparse_matmul(s_obj, so_nbr))
    logit = ad.leaky_relu(concat_rows(pre_u, pre_o), LEAKY_SLOPE)

    alpha = type_softmax(logit, view.has_type)

    alpha_edge = gather(alpha, view.typed_rows)
    pair_logit = ad.leaky_relu(
        mul(alpha_edge, add(gather(s_own, emap.rows), gather(s_nbr, emap.cols))), LEAKY_SLOPE
    )
    beta = segment_softmax(pair_logit, emap.rows, emap.indptr)

    out = elu(edge_matmul(beta, projected, emap))
    return slice_rows(out, 0, view.num_users) if users_only else out


def oracle_layer_forward(h: Tensor, view: GraphView, params: LayerParams) -> Tensor:
    """``layer_forward`` op by op: aggregates h per type, then dots the n x d sums.

    Each attention half-vector is its own slice and product, so the type
    logits come from the definition eta_t . [h_i || h_t] directly.
    """
    n, nu = view.num_nodes, view.num_users
    d = params.w_user.value.shape[0]
    rows, cols, indptr = view.emap.rows, view.emap.cols, view.emap.indptr

    hu = slice_rows(h, 0, nu)
    ho = slice_rows(h, nu, n)
    projected = concat_rows(matmul(hu, params.w_user), matmul(ho, params.w_obj))

    s_user, s_obj = type_blocks(view)
    t_user = sparse_matmul(s_user, h)
    t_obj = sparse_matmul(s_obj, h)

    eu1 = slice_rows(params.eta_user, 0, d)
    eu2 = slice_rows(params.eta_user, d, 2 * d)
    eo1 = slice_rows(params.eta_obj, 0, d)
    eo2 = slice_rows(params.eta_obj, d, 2 * d)
    logit_u = ad.leaky_relu(add(matmul(h, eu1), matmul(t_user, eu2)), LEAKY_SLOPE)
    logit_o = ad.leaky_relu(add(matmul(h, eo1), matmul(t_obj, eo2)), LEAKY_SLOPE)

    # a type is present at the nodes whose row of its block holds an edge
    mask_u, mask_o = ((np.diff(s.indptr) > 0).astype(np.float64) for s in (s_user, s_obj))
    shift = np.maximum(
        np.where(mask_u > 0, logit_u.value, -np.inf),
        np.where(mask_o > 0, logit_o.value, -np.inf),
    )
    exp_u = mul(exp(mul(sub(logit_u, shift), mask_u)), mask_u)
    exp_o = mul(exp(mul(sub(logit_o, shift), mask_o)), mask_o)
    denom = add(exp_u, exp_o)
    alpha_u = div(exp_u, denom)
    alpha_o = div(exp_o, denom)

    is_user_col = (cols < nu).astype(np.float64)
    alpha_edge = add(
        mul(gather(alpha_u, rows), is_user_col), mul(gather(alpha_o, rows), 1.0 - is_user_col)
    )
    g1 = slice_rows(params.gamma, 0, d)
    g2 = slice_rows(params.gamma, d, 2 * d)
    s_own = gather(matmul(h, g1), rows)
    s_nbr = gather(matmul(h, g2), cols)
    pair_logit = ad.leaky_relu(mul(alpha_edge, add(s_own, s_nbr)), LEAKY_SLOPE)

    seg_shift = np.maximum.reduceat(pair_logit.value, indptr[:-1])
    ex = exp(sub(pair_logit, seg_shift[rows]))
    # each row's edge weights summed in ascending edge order, through a 0/1 matrix
    members = sp.csr_matrix((np.ones(rows.size), np.arange(rows.size), indptr), (n, rows.size))
    denom_e = sparse_matmul(members, ex)
    beta = div(ex, gather(denom_e, rows))

    return elu(edge_matmul(beta, projected, view.emap))


def make_layer(rng, dim):
    return LayerParams(
        w_user=Tensor(rng.normal(size=(dim, dim))),
        w_obj=Tensor(rng.normal(size=(dim, dim))),
        eta_user=Tensor(rng.normal(size=2 * dim)),
        eta_obj=Tensor(rng.normal(size=2 * dim)),
        gamma=Tensor(rng.normal(size=2 * dim)),
    )


def leaky(x, slope=0.2):
    return x if x >= 0 else slope * x


def reference_layer(h, view, lp):
    """Straight-line per-node recomputation of one convolution layer."""
    n, nu = view.num_nodes, view.num_users
    d = h.shape[1]
    dense = adjacency(view).toarray()
    out = np.zeros_like(h)
    w = {USER: lp.w_user.value, OBJECT: lp.w_obj.value}
    eta = {USER: lp.eta_user.value, OBJECT: lp.eta_obj.value}
    gamma = lp.gamma.value
    for i in range(n):
        nbrs = [j for j in range(n) if dense[i, j] != 0]
        # type embeddings (self-loop included through the dense row)
        tvecs = {}
        for t in (USER, OBJECT):
            members = [j for j in nbrs if (USER if j < nu else OBJECT) == t]
            if members:
                tvecs[t] = sum(dense[i, j] * h[j] for j in members)
        # type attention over present types
        logits = {
            t: leaky(float(eta[t] @ np.concatenate([h[i], v]))) for t, v in tvecs.items()
        }
        mx = max(logits.values())
        ex = {t: np.exp(v - mx) for t, v in logits.items()}
        alpha = {t: e / sum(ex.values()) for t, e in ex.items()}
        # node attention over all neighbors
        scores = []
        for j in nbrs:
            t = USER if j < nu else OBJECT
            scores.append(
                leaky(alpha[t] * float(gamma[:d] @ h[i] + gamma[d:] @ h[j]))
            )
        scores = np.array(scores)
        beta = np.exp(scores - scores.max())
        beta /= beta.sum()
        acc = np.zeros(d)
        for b, j in zip(beta, nbrs):
            t = USER if j < nu else OBJECT
            acc += b * (h[j] @ w[t])
        out[i] = np.where(acc >= 0, acc, np.exp(np.minimum(acc, 0)) - 1.0)
    return out


@pytest.fixture
def fixture_graph():
    return HeteroGraph(
        num_users=4,
        num_objects=2,
        trust_edges=[(0, 1), (1, 2), (3, 0)],
        interaction_edges=[(0, 4), (1, 4), (2, 5), (3, 5)],
        object_edges=[(4, 5)],
    )


class TestTypeEmbedding:
    def test_no_neighbors_of_type_is_zero(self, fixture_graph):
        view = build_view(fixture_graph, [], Role.TRUSTOR)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(6, 3))
        # user 2 has no outgoing trust: only object + self neighbors
        g2 = HeteroGraph(num_users=2, num_objects=1, interaction_edges=[(0, 2)])
        v2 = build_view(g2, [], Role.TRUSTOR)
        h2 = rng.normal(size=(3, 3))
        assert np.allclose(type_embedding(1, OBJECT, v2, h2), 0.0)

    def test_single_neighbor_arithmetic(self):
        g = HeteroGraph(num_users=1, num_objects=1, interaction_edges=[(0, 1)])
        view = build_view(g, [], Role.TRUSTOR)
        h = np.array([[0.0, 0.0], [2.0, 0.0]])
        a = adjacency(view)[0, 1]
        got = type_embedding(0, OBJECT, view, h)
        assert np.allclose(got, [2.0 * a, 0.0])

    def test_matches_masked_product_oracle(self, fixture_graph):
        view = build_view(fixture_graph, [(2, 3)], Role.TRUSTOR)
        rng = np.random.default_rng(1)
        h = rng.normal(size=(6, 5))
        dense = adjacency(view).toarray()
        for target in range(6):
            for t in (USER, OBJECT):
                mask = np.array(
                    [1.0 if (USER if j < 4 else OBJECT) == t else 0.0 for j in range(6)]
                )
                expected = (dense[target] * mask) @ h
                assert np.allclose(type_embedding(target, t, view, h), expected)


class TestTypeAttention:
    def test_single_type_gets_full_weight(self):
        rng = np.random.default_rng(2)
        lp = make_layer(rng, 3)
        weights = type_attention(rng.normal(size=3), {USER: rng.normal(size=3)}, lp)
        assert weights == {USER: pytest.approx(1.0)}

    def test_equal_logits_split_evenly(self):
        rng = np.random.default_rng(3)
        lp = make_layer(rng, 3)
        lp.eta_obj = Tensor(lp.eta_user.value.copy())
        h = rng.normal(size=3)
        same = rng.normal(size=3)
        weights = type_attention(h, {USER: same, OBJECT: same.copy()}, lp)
        assert weights[USER] == pytest.approx(0.5)
        assert weights[OBJECT] == pytest.approx(0.5)

    def test_matches_exp_normalize_oracle(self):
        rng = np.random.default_rng(4)
        lp = make_layer(rng, 4)
        h = rng.normal(size=4)
        emb = {USER: rng.normal(size=4), OBJECT: rng.normal(size=4)}
        weights = type_attention(h, emb, lp)
        logits = {}
        for t, eta in ((USER, lp.eta_user.value), (OBJECT, lp.eta_obj.value)):
            raw = float(eta @ np.concatenate([h, emb[t]]))
            logits[t] = raw if raw >= 0 else 0.2 * raw
        ex = {t: np.exp(v) for t, v in logits.items()}
        for t in (USER, OBJECT):
            assert weights[t] == pytest.approx(ex[t] / sum(ex.values()), abs=1e-9)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)


class TestNodeAttention:
    def test_single_neighbor_weight_one(self):
        rng = np.random.default_rng(5)
        lp = make_layer(rng, 3)
        h = rng.normal(size=(4, 3))
        w = node_attention(0, [2], h, {USER: 1.0}, lp, num_users=4)
        assert w == pytest.approx([1.0])

    def test_empty_neighbors_degenerates_to_self(self):
        rng = np.random.default_rng(5)
        lp = make_layer(rng, 3)
        h = rng.normal(size=(2, 3))
        assert node_attention(0, [], h, {USER: 1.0}, lp) == pytest.approx([1.0])

    def test_identical_neighbors_share_weight(self):
        rng = np.random.default_rng(6)
        lp = make_layer(rng, 3)
        h = rng.normal(size=(4, 3))
        h[2] = h[1]
        w = node_attention(0, [1, 2], h, {USER: 0.7}, lp, num_users=4)
        assert np.allclose(w, [0.5, 0.5])

    def test_mixed_type_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        d = 4
        lp = make_layer(rng, d)
        h = rng.normal(size=(8, d))
        num_users = 5
        neighbors = [1, 2, 6, 7, 0]
        tw = {USER: 0.3, OBJECT: 0.7}
        got = node_attention(0, neighbors, h, tw, lp, num_users=num_users)
        logits = []
        for j in neighbors:
            t = USER if j < num_users else OBJECT
            raw = tw[t] * (
                float(lp.gamma.value[:d] @ h[0]) + float(lp.gamma.value[d:] @ h[j])
            )
            logits.append(raw if raw >= 0 else 0.2 * raw)
        ex = np.exp(np.array(logits))
        assert np.allclose(got, ex / ex.sum(), atol=1e-9)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)


class TestLayerForward:
    def test_single_node_identity_setup(self):
        g = HeteroGraph(num_users=1, num_objects=0)
        view = build_view(g, [], Role.TRUSTOR)
        lp = LayerParams(
            w_user=Tensor(np.eye(2)),
            w_obj=Tensor(np.eye(2)),
            eta_user=Tensor(np.zeros(4)),
            eta_obj=Tensor(np.zeros(4)),
            gamma=Tensor(np.zeros(4)),
        )
        h = np.array([[0.5, -0.5]])
        out = propagate_layer(h, view, lp)
        # beta_ii = 1, W = I: output is ELU(h)
        expected = np.where(h >= 0, h, np.exp(h) - 1)
        assert np.allclose(out, expected)

    def test_zero_input_gives_zero_output(self, fixture_graph):
        rng = np.random.default_rng(8)
        lp = make_layer(rng, 3)
        view = build_view(fixture_graph, [], Role.TRUSTOR)
        out = propagate_layer(np.zeros((6, 3)), view, lp)
        assert np.allclose(out, 0.0)

    def test_matches_per_node_reference(self, fixture_graph):
        rng = np.random.default_rng(9)
        lp = make_layer(rng, 3)
        for role in (Role.TRUSTOR, Role.TRUSTEE):
            view = build_view(fixture_graph, [(2, 0)], role)
            h = rng.normal(size=(6, 3))
            fast = propagate_layer(h, view, lp)
            slow = reference_layer(h, view, lp)
            assert np.allclose(fast, slow, atol=1e-7)

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            nu = int(rng.integers(2, 7))
            no = int(rng.integers(1, 4))
            trust = set()
            for _ in range(int(rng.integers(1, 3 * nu))):
                i, j = rng.integers(nu, size=2)
                if i != j:
                    trust.add((int(i), int(j)))
            inter = {(int(rng.integers(nu)), int(nu + rng.integers(no))) for _ in range(nu)}
            g = HeteroGraph(nu, no, sorted(trust), sorted(inter))
            view = build_view(g, [], Role.TRUSTOR)
            d = int(rng.integers(2, 5))
            lp = make_layer(rng, d)
            h = rng.normal(size=(nu + no, d))
            assert np.allclose(
                propagate_layer(h, view, lp),
                reference_layer(h, view, lp),
                atol=1e-7,
            )


class TestEncodeRole:
    def _setup(self, trust_edges, seed=11):
        rng = np.random.default_rng(seed)
        g = HeteroGraph(
            num_users=5,
            num_objects=2,
            trust_edges=trust_edges,
            interaction_edges=[(0, 5), (1, 5), (2, 6), (3, 6), (4, 5)],
        )
        layers = [make_layer(rng, 3), make_layer(rng, 3)]
        h0 = rng.normal(size=(7, 3))
        return g, layers, h0

    def test_symmetric_trust_makes_roles_identical(self):
        sym = [(0, 1), (1, 0), (2, 3), (3, 2)]
        g, layers, h0 = self._setup(sym)
        tor = encode_role(build_view(g, [], Role.TRUSTOR), h0, layers)
        tee = encode_role(build_view(g, [], Role.TRUSTEE), h0, layers)
        assert np.array_equal(tor, tee)

    def test_no_trust_edges_identical_roles(self):
        g, layers, h0 = self._setup([])
        tor = encode_role(build_view(g, [], Role.TRUSTOR), h0, layers)
        tee = encode_role(build_view(g, [], Role.TRUSTEE), h0, layers)
        assert np.array_equal(tor, tee)

    def test_directed_trust_separates_roles(self):
        g, layers, h0 = self._setup([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        tor = encode_role(build_view(g, [], Role.TRUSTOR), h0, layers)
        tee = encode_role(build_view(g, [], Role.TRUSTEE), h0, layers)
        assert np.abs(tor - tee).max() > 1e-6


class TestFuse:
    def test_saturated_gate_selects_trustor(self):
        gate = Tensor(np.full(3, 40.0))
        a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, -3.0])
        assert np.allclose(fuse(a, b, gate), a)

    def test_zero_gate_averages(self):
        gate = Tensor(np.zeros(3))
        a, b = np.array([2.0, 0.0, 4.0]), np.array([0.0, 2.0, 0.0])
        assert np.allclose(fuse(a, b, gate), (a + b) / 2)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(12)
        raw = np.array([1.0, -1.0, 0.3, -0.7])
        gate = Tensor(raw)
        a, b = rng.normal(size=4), rng.normal(size=4)
        g = 1 / (1 + np.exp(-raw))
        assert np.allclose(fuse(a, b, gate), g * a + (1 - g) * b)

    def test_betweenness(self):
        rng = np.random.default_rng(13)
        gate = Tensor(rng.normal(size=6))
        a, b = rng.normal(size=(10, 6)), rng.normal(size=(10, 6))
        z = fuse(a, b, gate)
        assert np.all(z >= np.minimum(a, b) - 1e-12)
        assert np.all(z <= np.maximum(a, b) + 1e-12)

    def test_gate_strictly_inside_unit_interval(self):
        # +-30 is far into the tails but still resolvable in float64
        gate = Tensor(np.array([-30.0, 0.0, 30.0]))
        g = gate_effective(gate)
        assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_dim_mismatch(self):
        gate = Tensor(np.zeros(3))
        with pytest.raises(DataError):
            fuse(np.zeros(3), np.zeros(4), gate)


def random_graph(rng) -> tuple[HeteroGraph, list]:
    """A random graph and augmented pairs, with users without interactions and
    objects without users."""
    nu = int(rng.integers(4, 9))
    no = int(rng.integers(3, 6))
    trust = {(int(i), int(j)) for i, j in rng.integers(nu, size=(2 * nu, 2)) if i != j}
    # the last user has no object neighbor; the last object has no user neighbor
    inter = {(int(rng.integers(nu - 1)), nu + int(rng.integers(no - 1))) for _ in range(2 * nu)}
    objs = [(nu + i, nu + j) for i, j in rng.integers(no, size=(no, 2)) if i < j]
    g = HeteroGraph(nu, no, sorted(trust), sorted(inter), sorted(set(objs)))
    return g, sorted({(int(i), int(j)) for i, j in rng.integers(nu, size=(nu, 2)) if i != j})


def random_oracle_case(rng, d, role):
    """A random graph's view, plus random input rows and parameters."""
    g, aug = random_graph(rng)
    view = build_view(g, aug, role)
    # some node lacks user neighbors, and some node lacks object neighbors
    assert (view.has_type.reshape(2, -1) == 0).any(axis=1).all()
    h = Tensor(rng.normal(size=(g.num_nodes, d)))
    return view, h, make_layer(rng, d)


def layer_grads(layer, view, h, lp, weights):
    with Tape() as tape:
        out = layer(h, view, lp)
        tape.mark_output(ad.reduce_sum(mul(out, Tensor(weights, requires_grad=False))))
    grads = tape.gradients()
    leaves = [h, lp.w_user, lp.w_obj, lp.eta_user, lp.eta_obj, lp.gamma]
    return out.value, [grads.get(t) for t in leaves]


class TestLayerMatchesOpByOpOracle:
    @pytest.mark.parametrize("role", [Role.TRUSTOR, Role.TRUSTEE], ids=["trustor", "trustee"])
    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_output_and_gradients_agree(self, d, role):
        rng = np.random.default_rng([d, role is Role.TRUSTEE])
        for _ in range(4):
            view, h, lp = random_oracle_case(rng, d, role)
            weights = rng.normal(size=h.shape)
            got = layer_grads(layer_forward, view, h, lp, weights)
            want = layer_grads(oracle_layer_forward, view, h, lp, weights)
            for a, b in zip([got[0], *got[1]], [want[0], *want[1]]):
                assert a.shape == b.shape
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_records_fewer_ops_than_oracle(self):
        view, h, lp = random_oracle_case(np.random.default_rng(0), 4, Role.TRUSTOR)
        counts = []
        for layer in (layer_forward, oracle_layer_forward):
            with Tape() as tape:
                layer(h, view, lp)
            counts.append(tape.num_records)
        assert counts[0] < counts[1]

    @staticmethod
    def default_forward_tape() -> Tape:
        fx = make_pipeline_fixture(seed=1)
        params = init_params(
            seed=0, user_dim=fx.h0_users.shape[1], object_dim=fx.h0_objects.shape[1], latent_dim=3
        )
        assert params.trustor is not None and params.trustee is not None
        assert len(params.trustor) == len(params.trustee) == 2
        return forward(fx.graph, fx.views, fx.h0_users, fx.h0_objects, params, fx.samples)[1]

    def default_forward_records(self) -> int:
        return self.default_forward_tape().num_records

    def test_default_forward_records_fewer_than_227(self):
        assert self.default_forward_records() < 227

    def test_default_forward_records_fewer_than_130(self):
        assert self.default_forward_records() < 130

    def test_default_forward_records_at_most_30(self):
        # one record per convolution layer; the rest is the input projection,
        # the role slices, the gate and the loss head
        assert self.default_forward_records() <= 30

    def test_default_forward_records_at_most_11(self):
        assert self.default_forward_records() <= 11

    def test_default_forward_records_7(self):
        # the input projection, 4 layers, the gate and the loss head: each
        # role's last layer computes the user rows, so no role slice
        assert self.default_forward_records() == 7

    def test_default_forward_records_per_name(self):
        tape = self.default_forward_tape()
        want = {"input_projection": 1, "layer": 4, "gate": 1, "loss": 1}
        assert tape.record_counts == want
        tape.gradients()
        assert tape.record_counts == want and tape.num_records == 7


# which of h and the layer parameters take gradients
TRAINABLE = {
    "all": lambda h, lp: (h, lp),
    "frozen_h": lambda h, lp: (frozen(h), lp),
    "only_h": lambda h, lp: (h, LayerParams(**{k: frozen(t) for k, t in vars(lp).items()})),
    "only_projections": lambda h, lp: (
        frozen(h),
        replace(lp, eta_user=frozen(lp.eta_user), eta_obj=frozen(lp.eta_obj), gamma=frozen(lp.gamma)),
    ),
}


class TestLayerMatchesChainBitwise:
    @pytest.mark.parametrize("trainable", sorted(TRAINABLE))
    @pytest.mark.parametrize("role", [Role.TRUSTOR, Role.TRUSTEE], ids=["trustor", "trustee"])
    @pytest.mark.parametrize("d", [1, 4, 16])
    def test_output_and_gradients_equal(self, d, role, trainable):
        rng = np.random.default_rng([d, role is Role.TRUSTEE, 7])
        for _ in range(4):
            view, h, lp = random_oracle_case(rng, d, role)
            h, lp = TRAINABLE[trainable](h, lp)
            weights = rng.normal(size=h.shape)
            out, grads = layer_grads(layer_forward, view, h, lp, weights)
            want_out, want_grads = layer_grads(chain_layer_forward, view, h, lp, weights)
            assert np.array_equal(out, want_out)
            for got, want in zip(grads, want_grads):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("trainable_tables", [False, True], ids=["frozen", "trainable"])
    def test_pipeline_gradients_equal(self, monkeypatch, trainable_tables):
        # h0 feeds both roles' first layers, so its gradient sums four
        # contributions in the tape's order
        fx = make_pipeline_fixture(seed=2)
        params = init_params(
            seed=3, user_dim=fx.h0_users.shape[1], object_dim=fx.h0_objects.shape[1], latent_dim=4
        )
        tables = (fx.h0_users, fx.h0_objects)
        if trainable_tables:
            params.set_initial_tables(*tables, trainable=True)
            tables = (None, None)

        def run():
            loss, tape = forward(fx.graph, fx.views, *tables, params, fx.samples)
            grads = backward(tape)
            return loss, [grads.get(t) for _, t, _ in params.named()]

        loss, grads = run()
        monkeypatch.setattr(train, "layer_forward", chain_layer_forward)
        want_loss, want_grads = run()
        assert loss == want_loss
        assert len(grads) == len(want_grads) == len(params.named())
        for got, want in zip(grads, want_grads):
            assert want is not None and np.array_equal(got, want)

    def test_patched_leaky_relu_changes_layer_as_it_changes_chain(self, monkeypatch):
        # the benchmark's gradient check replaces ad.leaky_relu and edits the
        # values it returns; the layer must carry those values on
        rng = np.random.default_rng(5)
        view, h, lp = random_oracle_case(rng, 4, Role.TRUSTOR)
        weights = rng.normal(size=h.shape)
        layers = (layer_forward, chain_layer_forward)
        plain = [layer_grads(layer, view, h, lp, weights) for layer in layers]
        original = ad.leaky_relu

        def shifted(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            out.value[0] += 0.5
            return out

        monkeypatch.setattr(ad, "leaky_relu", shifted)
        patched = [layer_grads(layer, view, h, lp, weights) for layer in layers]
        (out, grads), (want_out, want_grads) = patched
        assert not np.array_equal(out, plain[0][0])
        assert np.array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            assert np.array_equal(got, want)


def lonely_user_case(rng, d, role):
    """``random_oracle_case`` with one more user, the last, whose only edge is its self-loop."""
    g, aug = random_graph(rng)
    nu = g.num_users

    def shifted(edges):
        return np.where(edges >= nu, edges + 1, edges)

    g = HeteroGraph(
        nu + 1, g.num_objects, g.trust_edges, shifted(g.interaction_edges), shifted(g.object_edges)
    )
    view = build_view(g, aug, role)
    indptr = view.emap.indptr
    assert indptr[nu + 1] - indptr[nu] == 1 and view.emap.cols[indptr[nu]] == nu
    # random_graph's last old user has no object neighbor
    assert view.has_type[view.num_nodes + nu - 1] == 0
    return view, Tensor(rng.normal(size=(g.num_nodes, d))), make_layer(rng, d)


class TestUsersOnlyLayer:
    # the user rows alone are the chain's first rows at every node, and every
    # gradient is the chain's under an output gradient that is zero past them
    @pytest.mark.parametrize("trainable", ["all", "frozen_h"])
    @pytest.mark.parametrize("rows", ["users", "nodes"])
    @pytest.mark.parametrize("role", [Role.TRUSTOR, Role.TRUSTEE], ids=["trustor", "trustee"])
    @pytest.mark.parametrize("d", [1, 4])
    def test_rows_and_gradients_are_the_full_layers(self, d, role, rows, trainable):
        rng = np.random.default_rng([d, role is Role.TRUSTEE, len(rows), 19])
        users_only = rows == "users"
        for _ in range(4):
            view, h, lp = lonely_user_case(rng, d, role)
            h, lp = TRAINABLE[trainable](h, lp)
            m = view.num_users if users_only else view.num_nodes
            weights = rng.normal(size=h.shape)
            weights[m:] = 0.0
            want_out, want_grads = layer_grads(chain_layer_forward, view, h, lp, weights)

            def leading_rows(h, view, lp):
                return layer_forward(h, view, lp, users_only=users_only)

            out, grads = layer_grads(leading_rows, view, h, lp, weights[:m])
            assert out.shape == (m, d) and np.array_equal(out, want_out[:m])
            for got, want in zip(grads, want_grads):
                assert (got is None) == (want is None)
                if want is not None:
                    assert got.shape == want.shape and np.array_equal(got, want)


def doubled(kernel):
    """``kernel`` with every array it returns doubled."""

    def double(*args):
        out = kernel(*args)
        return 2.0 * out if isinstance(out, np.ndarray) else type(out)(2.0 * a for a in out)

    return double


# every kernel the layer shares with the ops of its chain
LAYER_KERNELS = [
    "row_block_product",
    "row_block_grads",
    "leaky_slopes",
    "elu_slopes",
    "scatter_values",
    "stack_halves_grads",
    "type_softmax_grads",
    "segment_softmax_grad",
]
# the forward kernels the layer calls in place of the chain's ops. Not the
# ELU, whose doubled value moves no gradient, nor the gather, whose values the
# chain's products differentiate through and the layer's backward re-gathers
FORWARD_KERNELS = [
    "row_block_product", "stack_halves", "type_softmax", "segment_softmax",
    "matmul", "sparse_matmul", "edge_matmul",
]


@pytest.mark.parametrize("kernel", LAYER_KERNELS + FORWARD_KERNELS[1:])
def test_layer_and_chain_share_each_kernel(monkeypatch, kernel):
    # a doubled kernel moves the layer's gradients, and a forward kernel its
    # output, exactly as it moves the chain's: the layer calls the kernel
    # instead of a copy of it
    rng = np.random.default_rng(13)
    view, h, lp = random_oracle_case(rng, 4, Role.TRUSTEE)
    weights = rng.normal(size=h.shape)
    plain = layer_grads(layer_forward, view, h, lp, weights)
    monkeypatch.setattr(ad, kernel, doubled(getattr(ad, kernel)))
    out, grads = layer_grads(layer_forward, view, h, lp, weights)
    want_out, want_grads = layer_grads(chain_layer_forward, view, h, lp, weights)
    assert any(not np.array_equal(got, was) for got, was in zip(grads, plain[1]))
    assert kernel not in FORWARD_KERNELS or not np.array_equal(out, plain[0])
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


def gate_grads(fusion, z_tor, z_tee, raw):
    with Tape() as tape:
        out = fusion(z_tor, z_tee, raw)
        tape.mark_output(ad.reduce_sum(mul(out, out)))
    grads = tape.gradients()
    return out.value, [grads[t] for t in (raw, z_tor, z_tee)]


def test_gate_and_sigmoid_share_the_logistic(monkeypatch):
    # the sigmoid's value and its gradient kernel, each doubled in turn
    rng = np.random.default_rng(14)
    raw = Tensor(rng.normal(size=5))
    z_tor, z_tee = Tensor(rng.normal(size=(7, 5))), Tensor(rng.normal(size=(7, 5)))
    plain = gate_grads(train.gate_fusion, z_tor, z_tee, raw)
    monkeypatch.setattr(ad, "logistic", doubled(ad.logistic))
    out = train.gate_fusion(z_tor, z_tee, raw).value
    assert not np.array_equal(out, plain[0])
    assert np.array_equal(out, chain_gate_fusion(z_tor, z_tee, raw).value)
    monkeypatch.undo()
    monkeypatch.setattr(ad, "sigmoid_grad", doubled(ad.sigmoid_grad))
    out, grads = gate_grads(train.gate_fusion, z_tor, z_tee, raw)
    want_out, want_grads = gate_grads(chain_gate_fusion, z_tor, z_tee, raw)
    assert np.array_equal(out, plain[0]) and not np.array_equal(grads[0], plain[1][0])
    assert np.array_equal(out, want_out)
    for got, want in zip(grads, want_grads):
        assert np.array_equal(got, want)


class TestGateMatchesChainBitwise:
    @pytest.mark.parametrize("trainable", ["all", "frozen_roles", "frozen_gate"])
    def test_output_and_gradients_equal(self, trainable):
        rng = np.random.default_rng(11)
        # gate values from saturated to balanced, on both tails of the sigmoid
        raw = Tensor(np.array([-30.0, -2.0, -0.0, 0.5, 3.0, 30.0]))
        z_tor, z_tee = Tensor(rng.normal(size=(9, 6))), Tensor(rng.normal(size=(9, 6)))
        if trainable == "frozen_roles":
            z_tor, z_tee = frozen(z_tor), frozen(z_tee)
        elif trainable == "frozen_gate":
            raw = frozen(raw)
        weights = Tensor(rng.normal(size=(9, 6)), requires_grad=False)
        results = []
        for fusion in (train.gate_fusion, chain_gate_fusion):
            with Tape() as tape:
                out = fusion(z_tor, z_tee, raw)
                tape.mark_output(ad.reduce_sum(mul(out, weights)))
            grads = tape.gradients()
            results.append((out.value, [grads.get(t) for t in (raw, z_tor, z_tee)]))
        (out, grads), (want_out, want_grads) = results
        assert np.array_equal(out, want_out)
        for got, want in zip(grads, want_grads):
            assert (got is None) == (want is None)
            if want is not None:
                assert got.shape == want.shape and np.array_equal(got, want)


# model shapes the pipeline runs: fusion mode and enabled roles
PIPELINES = {
    "gate": dict(fusion="gate"),
    "concat": dict(fusion="concat"),
    "trustor_only": dict(trustee_enabled=False),
    "trustee_only": dict(trustor_enabled=False),
}


def chain_input_projection(hu: Tensor, ho: Tensor, proj_user: Tensor, proj_obj: Tensor) -> Tensor:
    """``train.input_projection`` as two ``matmul`` records and their concatenation."""
    return concat_rows(matmul(hu, proj_user), matmul(ho, proj_obj))


def chains(monkeypatch) -> None:
    """Replace the input projection, the layer, the gate and the loss head by their op chains."""
    monkeypatch.setattr(train, "input_projection", chain_input_projection)
    monkeypatch.setattr(train, "layer_forward", chain_layer_forward)
    monkeypatch.setattr(train, "gate_fusion", chain_gate_fusion)
    monkeypatch.setattr(train, "pair_loss", chain_pair_loss)


class TestPipelineMatchesChainsBitwise:
    @pytest.mark.parametrize("trainable_tables", [False, True], ids=["frozen", "trainable"])
    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    def test_loss_and_gradients_equal(self, monkeypatch, pipeline, trainable_tables):
        fx = make_pipeline_fixture(seed=4)
        params = init_params(
            seed=5, user_dim=fx.h0_users.shape[1], object_dim=fx.h0_objects.shape[1],
            latent_dim=4, **PIPELINES[pipeline],
        )
        tables = (fx.h0_users, fx.h0_objects)
        if trainable_tables:
            params.set_initial_tables(*tables, trainable=True)
            tables = (None, None)

        def run():
            loss, tape = forward(fx.graph, fx.views, *tables, params, fx.samples)
            grads = backward(tape)
            return loss, tape.num_records, [grads.get(t) for _, t, _ in params.named()]

        loss, records, grads = run()
        chains(monkeypatch)
        want_loss, want_records, want_grads = run()
        assert loss == want_loss and records < want_records
        assert len(grads) == len(want_grads) == len(params.named())
        ungated = [name for (name, _, _), g in zip(params.named(), want_grads) if g is None]
        assert ungated == ([] if pipeline == "gate" else ["gate/raw"])
        for got, want in zip(grads, want_grads):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("pipeline", sorted(PIPELINES))
    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_other_depths_equal(self, monkeypatch, num_layers, pipeline):
        fx = make_pipeline_fixture(seed=6)
        params = init_params(
            seed=7, user_dim=fx.h0_users.shape[1], object_dim=fx.h0_objects.shape[1],
            latent_dim=4, num_layers=num_layers, **PIPELINES[pipeline],
        )
        params.set_initial_tables(fx.h0_users, fx.h0_objects, trainable=True)

        def run():
            loss, tape = forward(fx.graph, fx.views, None, None, params, fx.samples)
            grads = backward(tape)
            return loss, [grads.get(t) for _, t, _ in params.named()]

        loss, grads = run()
        chains(monkeypatch)
        want_loss, want_grads = run()
        assert loss == want_loss
        for got, want in zip(grads, want_grads):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)


def traced_step(run, params) -> tuple[int, int]:
    """Bytes the tape of one training forward holds, and the traced peak over
    that forward and its backward, both above what was held before, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _, tape = forward(None, run.views, None, None, params, run.train)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        backward(tape)
        return held, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def small_filmtrust_run(tmp_path, num_users=300, num_objects=410, num_trust=370):
    """A FilmTrust run (300 users by default) at the default widths, with PPR and trainable tables."""
    make_filmtrust_files(tmp_path, seed=0, num_users=num_users, num_objects=num_objects, num_trust=num_trust)
    config = ExperimentConfig(dataset=str(tmp_path), kind="filmtrust")
    run = experiment.prepare_run(experiment.load_dataset(config), config, run_seed=1)
    params = init_params(seed=0, user_dim=32, object_dim=32, latent_dim=32)
    rng = np.random.default_rng(0)
    num_users = run.views[Role.TRUSTOR].num_users
    num_objects = run.views[Role.TRUSTOR].num_nodes - num_users
    params.set_initial_tables(
        rng.normal(size=(num_users, 32)), rng.normal(size=(num_objects, 32)), trainable=True
    )
    return run, params


def test_layer_tape_holds_less_than_the_chain(tmp_path, monkeypatch):
    # the chain's 25 records per layer keep every E-sized intermediate
    run, params = small_filmtrust_run(tmp_path)
    fused, _ = traced_step(run, params)
    monkeypatch.setattr(train, "layer_forward", chain_layer_forward)
    chain, _ = traced_step(run, params)
    assert fused <= 0.7 * chain


def test_training_step_peaks_lower_than_the_chains(tmp_path, monkeypatch):
    # the peak, not what the tape holds after the forward, is what a run's
    # peak RSS sees; it falls in the backward while most of the tape is held
    run, params = small_filmtrust_run(tmp_path)
    _, fused = traced_step(run, params)
    chains(monkeypatch)
    _, chain = traced_step(run, params)
    # 0.54 with the one-record loss head and gate and the recomputed
    # ``projected``; 0.63 with only the one-record layer
    assert fused <= 0.6 * chain


def all_rows_then_sliced(h, view, params, users_only=False):
    """The production layer at every node, with the user rows sliced off after under ``users_only``."""
    out = layer_forward(h, view, params)
    return slice_rows(out, 0, view.num_users) if users_only else out


def test_users_only_last_layer_lowers_the_training_step_peak(tmp_path, monkeypatch):
    # the last layers' n x d object rows, their E-sized edge arrays and the
    # zero-padded slice gradients are never formed
    run, params = small_filmtrust_run(tmp_path)
    held, peak = traced_step(run, params)
    monkeypatch.setattr(train, "layer_forward", all_rows_then_sliced)
    all_held, all_peak = traced_step(run, params)
    # 0.79 and 0.81 of the all-rows step's held tape and peak
    assert held <= 0.9 * all_held and peak <= 0.9 * all_peak


def rewritten_layer_forward(*replacements):
    """The production layer with each (new, old) source snippet, found once, put back to old."""
    source = inspect.getsource(conv.layer_forward)
    for new, old in replacements:
        assert source.count(new) == 1
        source = source.replace(new, old)
    namespace = dict(vars(conv))
    exec(source, namespace)
    return namespace["layer_forward"]


# the layer backward's last steps as they are, and in the old order (score product first)
PROJECTION_FIRST = """\
        d_x, *d_w = ad.row_block_grads(top, bottom, w_user, w_obj, d_proj)
        del d_proj
        d_h = d_scores @ stacked.T
        d_attn = ad.stack_halves_grads(x.T @ d_scores)
        del d_scores
"""
SCORES_FIRST = """\
        d_h = d_scores @ stacked.T
        d_attn = ad.stack_halves_grads(x.T @ d_scores)
        del d_scores
        d_x, *d_w = ad.row_block_grads(top, bottom, w_user, w_obj, d_proj)
        del d_proj
"""


def scores_first_layer_forward():
    """The production layer with its backward in the old order: ``d_h`` is
    formed while ``d_proj`` is held, and ``d_x`` next to both."""
    return rewritten_layer_forward((PROJECTION_FIRST, SCORES_FIRST))


def test_projection_gradient_first_lowers_the_training_step_peak(tmp_path, monkeypatch):
    # the same gradients, bit for bit, with one n x d array fewer at the end
    # of the layer backward, which at the 1x FilmTrust size (3579 nodes) is
    # the step's peak. The tape adds d_x into d_h in place, after it drops
    # the record's own arrays and gradient.
    run, params = small_filmtrust_run(tmp_path, num_users=1508, num_objects=2071, num_trust=1853)
    _, peak = traced_step(run, params)
    grads = backward(forward(None, run.views, None, None, params, run.train)[1])
    monkeypatch.setattr(train, "layer_forward", scores_first_layer_forward())
    _, old_peak = traced_step(run, params)
    old_grads = backward(forward(None, run.views, None, None, params, run.train)[1])
    assert grads.keys() == old_grads.keys()
    assert all(np.array_equal(grads[t], old_grads[t]) for t in grads)
    # 0.94 of the old order's peak
    assert peak <= 0.97 * old_peak


# the layer's ELU and record as they are, and as they were: the record kept
# ``pre``, the ELU and the backward each computed the slope and the
# gradients were not fresh
SLOPE_KEPT = [
    (
        """\
    slope = ad.elu_slopes(pre)
    trainable = any(t.requires_grad for t in (h, params.w_user, params.w_obj, *attn))
    out = Tensor(ad.elu(pre, slope), requires_grad=trainable)
    del pre
""",
        """\
    trainable = any(t.requires_grad for t in (h, params.w_user, params.w_obj, *attn))
    out = Tensor(ad.elu(pre, ad.elu_slopes(pre)), requires_grad=trainable)
""",
    ),
    ("        d_pre = g * slope\n", "        d_pre = g * ad.elu_slopes(pre)\n"),
    ('    ad.record("layer", out, backward, fresh=True)\n', '    ad.record("layer", out, backward)\n'),
]


def test_layer_computes_the_elu_slope_once_and_hands_it_to_elu(monkeypatch):
    slopes, handed = [], []
    elu_slopes, elu_kernel = ad.elu_slopes, ad.elu

    def counted_slopes(x):
        slopes.append(elu_slopes(x))
        return slopes[-1]

    def counted_elu(x, slope):
        handed.append(slope)
        return elu_kernel(x, slope)

    monkeypatch.setattr(ad, "elu_slopes", counted_slopes)
    monkeypatch.setattr(ad, "elu", counted_elu)
    view, h, lp = random_oracle_case(np.random.default_rng(2), 4, Role.TRUSTEE)
    with Tape() as tape:
        tape.mark_output(ad.reduce_sum(layer_forward(h, view, lp)))
    tape.gradients()
    assert len(slopes) == 1 and len(handed) == 1 and handed[0] is slopes[0]


def test_training_step_holds_and_peaks_below_the_previous_step(tmp_path, monkeypatch):
    # one input-projection record, the ELU slope kept in place of ``pre``
    # and h's two layer gradients summed in place: the same gradients, bit
    # for bit, as the two matmul records with their concatenation, the slope
    # recomputed and a third n x d array for h's sum, at the 1x FilmTrust size
    run, params = small_filmtrust_run(tmp_path, num_users=1508, num_objects=2071, num_trust=1853)
    held, peak = traced_step(run, params)
    grads = backward(forward(None, run.views, None, None, params, run.train)[1])
    monkeypatch.setattr(train, "input_projection", chain_input_projection)
    monkeypatch.setattr(train, "layer_forward", rewritten_layer_forward(*SLOPE_KEPT))
    old_held, old_peak = traced_step(run, params)
    old_grads = backward(forward(None, run.views, None, None, params, run.train)[1])
    assert grads.keys() == old_grads.keys()
    assert all(np.array_equal(grads[t], old_grads[t]) for t in grads)
    # 0.90 and 0.92 of the previous step's held tape and peak
    assert held <= 0.95 * old_held and peak <= 0.95 * old_peak


def test_relabelling_nodes_within_their_blocks_permutes_outputs_and_gradients():
    # results do not depend on node ids: users renamed among users and
    # objects among objects permute the rows of every output and gradient
    rng, d = np.random.default_rng(31), 4
    graph, _ = random_graph(rng)
    nu, n = graph.num_users, graph.num_nodes
    aug = topk_augment(graph, k=2, lam=PprConfig.lam, epsilon=PprConfig.epsilon)
    perm = np.concatenate([rng.permutation(nu), nu + rng.permutation(n - nu)])
    assert aug.size and not np.array_equal(perm, np.arange(n))
    moved = HeteroGraph(
        nu, n - nu, perm[graph.trust_edges], perm[graph.interaction_edges], perm[graph.object_edges]
    )
    h = rng.normal(size=(n, d))
    roles = {role: make_layer(rng, d) for role in (Role.TRUSTOR, Role.TRUSTEE)}
    raw_gate = Tensor(rng.normal(size=d))
    predictor = PredictorParams(Tensor(rng.normal(size=(2 * d, 2))), Tensor(rng.normal(size=2)))
    leaves = [*(t for lp in roles.values() for t in vars(lp).values()), raw_gate, *vars(predictor).values()]
    i, j, y = rng.integers(nu, size=40), rng.integers(nu, size=40), rng.integers(2, size=40)

    def run(g, pairs, table, ids):
        h_t = Tensor(table)
        with Tape() as tape:
            outs = [layer_forward(h_t, build_view(g, pairs, role), lp) for role, lp in roles.items()]
            z = train.gate_fusion(*(slice_rows(o, 0, nu) for o in outs), raw_gate)
            loss = pair_loss(z, ids[i], ids[j], y, predictor)
            tape.mark_output(loss)
        grads = tape.gradients()
        return [*(o.value[ids] for o in outs), loss.value, grads[h_t][ids], *(grads[t] for t in leaves)]

    # row perm[k] of the relabelled input is row k of the original
    assert_close_grads(run(moved, perm[aug], h[np.argsort(perm)], perm), run(graph, aug, h, np.arange(n)))


# the autodiff names the benchmark times (bench/child.py LAYERS), and all it
# holds, with the one it patches (checks.HeldKinks)
BENCH_TIMED = ("edge_matmul", "sparse_matmul", "elu", "gather", "matmul")
BENCH_WRAPPED = (*BENCH_TIMED, "leaky_relu")


def test_bench_wrapped_is_what_the_bench_holds():
    # the autodiff names in bench/child.py's LAYERS and those HeldKinks assigns
    # as self.module.<name>: the layer calls each by that name, and
    # leaky_relu stays taped, until the bench stops holding it
    child = ast.parse((REPO / "bench" / "child.py").read_text()).body
    layers = next(s.value for s in child if isinstance(s, ast.Assign) and s.targets[0].id == "LAYERS")
    held = {e.elts[1].value for e in layers.elts if e.elts[0].id == "autodiff"}
    checks = ast.parse((REPO / "bench" / "checks.py").read_text()).body
    kinks = next(c for c in checks if isinstance(c, ast.ClassDef) and c.name == "HeldKinks")
    for node in ast.walk(kinks):
        for t in node.targets if isinstance(node, ast.Assign) else []:
            if isinstance(t, ast.Attribute) and getattr(t.value, "attr", None) == "module":
                held.add(t.attr)
    assert sorted(BENCH_WRAPPED) == sorted(held)


def test_layer_calls_every_name_the_bench_wraps(monkeypatch):
    calls = dict.fromkeys(BENCH_WRAPPED, 0)
    for name in BENCH_WRAPPED:
        original = getattr(ad, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ad, name, counted)
    view, h, lp = random_oracle_case(np.random.default_rng(1), 3, Role.TRUSTOR)
    layer_forward(h, view, lp)
    assert calls == {
        "edge_matmul": 1, "sparse_matmul": 1, "elu": 1, "gather": 3, "matmul": 1, "leaky_relu": 2
    }


def test_layer_makes_one_record_and_the_bench_timed_names_return_arrays(monkeypatch):
    # the five names the bench times are kernels: whatever they return is a
    # plain array, and the layer's one record is all the tape holds
    returned = {}
    for name in BENCH_TIMED:
        original = getattr(ad, name)

        def kept(*args, _name=name, _original=original):
            out = _original(*args)
            returned.setdefault(_name, set()).add(type(out))
            return out

        monkeypatch.setattr(ad, name, kept)
    view, h, lp = random_oracle_case(np.random.default_rng(3), 3, Role.TRUSTEE)
    with Tape() as tape:
        layer_forward(h, view, lp)
    assert tape.record_counts == {"layer": 1}
    assert returned == {name: {np.ndarray} for name in BENCH_TIMED}
