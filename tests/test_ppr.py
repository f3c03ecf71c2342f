import numpy as np
import pytest

from trustnet.errors import DataError
from trustnet.graph import HeteroGraph
from trustnet.ppr import forward_push, topk_augment, walk_transition


def oracle_ppr(num_users, edges, source, lam):
    """Independent dense PPR: build the walk matrix from scratch and solve."""
    w = np.zeros((num_users, num_users))
    out = [[] for _ in range(num_users)]
    for i, j in edges:
        out[i].append(j)
    for u in range(num_users):
        if not out[u]:
            w[u, source] = 1.0  # dangling mass restarts at the source
        else:
            for v in out[u]:
                w[u, v] += 1.0 / len(out[u])
    mat = np.eye(num_users) - (1.0 - lam) * w.T
    rhs = np.zeros(num_users)
    rhs[source] = lam
    return np.linalg.solve(mat, rhs)


def push_rows(n, edges, sources, lam, eps) -> np.ndarray:
    """Dense (len(sources), n) scores from one push over all ``sources``."""
    return forward_push(walk_transition(n, edges), sources, lam, eps).toarray()


def random_digraph(rng, max_nodes=50):
    n = int(rng.integers(2, max_nodes + 1))
    edges = set()
    target_edges = int(rng.integers(1, 4 * n))
    for _ in range(target_edges):
        i, j = rng.integers(n, size=2)
        if i != j:
            edges.add((int(i), int(j)))
    return n, sorted(edges)


def pairs_by_source(pairs):
    got = {}
    for i, j in pairs:
        got.setdefault(int(i), set()).add(int(j))
    return got


def oracle_topk(n, edges, k, lam=0.15):
    """Exact top-k targets per source (ties to smaller id); sources that reach no one are omitted."""
    expected = {}
    for src in range(n):
        exact = oracle_ppr(n, edges, src, lam)
        ranked = sorted(
            (t for t in range(n) if t != src and exact[t] > 1e-12),
            key=lambda t: (-exact[t], t),
        )[:k]
        if ranked:
            expected[src] = set(ranked)
    return expected


class TestPush:
    def test_isolated_source_scores_one(self):
        scores = forward_push(walk_transition(3, [(1, 2)]), [0], 0.15, 1e-8)
        assert dict(zip(scores.indices.tolist(), scores.data.tolist())) == {0: 1.0}

    def test_two_node_cycle_matches_dense(self):
        n, edges = 2, [(0, 1), (1, 0)]
        got = push_rows(n, edges, [0], 0.15, 1e-7)[0]
        exact = oracle_ppr(n, edges, 0, 0.15)
        assert np.abs(got - exact).max() < 1e-5

    def test_three_node_path_matches_dense(self):
        n, edges = 3, [(0, 1), (1, 2)]
        got = push_rows(n, edges, [0], 0.15, 1e-9)[0]
        exact = oracle_ppr(n, edges, 0, 0.15)
        assert np.abs(got - exact).max() < 1e-6
        # end of the chain sits two decayed hops away
        assert got[2] == pytest.approx(exact[2], rel=1e-4)

    def test_random_graphs_small_l1_error(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            n, edges = random_digraph(rng)
            # every source in one push, as topk_augment runs it
            got = push_rows(n, edges, np.arange(n), 0.15, 1e-8)
            for src in range(n):
                exact = oracle_ppr(n, edges, src, 0.15)
                assert np.abs(got[src] - exact).sum() <= 1e-5

    def test_batched_rows_equal_single_source_rows(self):
        rng = np.random.default_rng(11)
        n, edges = random_digraph(rng, max_nodes=30)
        together = push_rows(n, edges, np.arange(n), 0.15, 1e-7)
        for src in range(n):
            assert np.array_equal(together[src], push_rows(n, edges, [src], 0.15, 1e-7)[0])

    def test_scores_nonnegative_and_mass_bounded(self):
        rng = np.random.default_rng(3)
        eps = 1e-6
        for _ in range(10):
            n, edges = random_digraph(rng, max_nodes=25)
            vals = forward_push(walk_transition(n, edges), [0], 0.2, eps).data
            assert np.all(vals >= 0)
            assert vals.sum() <= 1.0 + n * eps

    def test_decreasing_epsilon_never_hurts(self):
        rng = np.random.default_rng(8)
        n, edges = random_digraph(rng, max_nodes=30)
        exact = oracle_ppr(n, edges, 0, 0.15)
        errs = []
        for eps in (1e-3, 1e-5, 1e-7):
            got = push_rows(n, edges, [0], 0.15, eps)[0]
            errs.append(np.abs(got - exact).max())
        assert errs[0] >= errs[1] >= errs[2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        n, edges = random_digraph(rng, max_nodes=20)
        perm = rng.permutation(n)
        edges_p = [(int(perm[i]), int(perm[j])) for i, j in edges]
        row = push_rows(n, edges, [0], 0.15, 1e-9)[0]
        row_p = push_rows(n, edges_p, [int(perm[0])], 0.15, 1e-9)[0]
        np.testing.assert_allclose(row_p[perm], row, rtol=0, atol=1e-9)

    def test_invalid_parameters(self):
        tg = walk_transition(2, [(0, 1)])
        with pytest.raises(DataError):
            forward_push(tg, [0], 0.0, 1e-6)
        with pytest.raises(DataError):
            forward_push(tg, [0], 1.0, 1e-6)
        with pytest.raises(DataError):
            forward_push(tg, [0], 0.15, 0.0)
        with pytest.raises(DataError):
            forward_push(tg, [2], 0.15, 1e-6)


class TestTopkAugment:
    def test_star_ties_break_to_smaller_ids(self):
        g = HeteroGraph(num_users=6, num_objects=0, trust_edges=[(0, j) for j in range(1, 6)])
        pairs = topk_augment(g, k=3, epsilon=1e-9)
        from_center = sorted(tuple(p) for p in pairs if p[0] == 0)
        assert from_center == [(0, 1), (0, 2), (0, 3)]

    def test_k_larger_than_reachable(self):
        g = HeteroGraph(num_users=4, num_objects=0, trust_edges=[(0, 1)])
        pairs = topk_augment(g, k=10, epsilon=1e-9)
        from_zero = [tuple(p) for p in pairs if p[0] == 0]
        assert from_zero == [(0, 1)]

    def test_matches_bruteforce_dense_topk(self):
        rng = np.random.default_rng(21)
        n, edges = 10, []
        seen = set()
        while len(seen) < 25:
            i, j = rng.integers(n, size=2)
            if i != j:
                seen.add((int(i), int(j)))
        edges = sorted(seen)
        g = HeteroGraph(num_users=n, num_objects=0, trust_edges=edges)
        got = pairs_by_source(topk_augment(g, k=4, epsilon=1e-10))
        expected = oracle_topk(n, edges, 4)
        for src in range(n):
            has_out = any(i == src for i, _ in edges)
            want = expected.get(src, set()) if has_out else set()
            assert got.get(src, set()) == want, f"source {src}"

    def test_determinism(self):
        rng = np.random.default_rng(77)
        n, edges = random_digraph(rng, max_nodes=30)
        g = HeteroGraph(num_users=n, num_objects=0, trust_edges=edges)
        a = topk_augment(g, k=5)
        b = topk_augment(g, k=5)
        assert np.array_equal(a, b)

    def test_edge_order_invariance(self):
        rng = np.random.default_rng(13)
        n, edges = random_digraph(rng, max_nodes=40)
        shuffled = np.asarray(edges)[rng.permutation(len(edges))]
        a = topk_augment(HeteroGraph(num_users=n, num_objects=0, trust_edges=edges), k=5)
        b = topk_augment(HeteroGraph(num_users=n, num_objects=0, trust_edges=shuffled), k=5)
        assert np.array_equal(a, b)
        # the scores the pairs are ranked by, bitwise
        users = np.arange(n)
        sa = forward_push(walk_transition(n, edges), users, 0.15, 1e-6)
        sb = forward_push(walk_transition(n, shuffled), users, 0.15, 1e-6)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sa, attr), getattr(sb, attr))

    def test_relabelling_maps_pairs(self):
        rng = np.random.default_rng(0)
        n, edges = random_digraph(rng, max_nodes=30)
        k = 3
        # no tie at any top-k cutoff, so ids never decide which pairs are kept
        for src in range(n):
            exact = np.sort(np.delete(oracle_ppr(n, edges, src, 0.15), src))[::-1]
            assert exact[k - 1] - exact[k] > 1e-9 or exact[k - 1] < 1e-12
        perm = rng.permutation(n)
        edges_p = [(int(perm[i]), int(perm[j])) for i, j in edges]
        pairs = topk_augment(HeteroGraph(num_users=n, num_objects=0, trust_edges=edges), k=k)
        pairs_p = topk_augment(HeteroGraph(num_users=n, num_objects=0, trust_edges=edges_p), k=k)
        assert len(pairs) > 0
        assert {(int(perm[i]), int(perm[j])) for i, j in pairs} == {tuple(p) for p in pairs_p.tolist()}


def test_topk_excludes_source_and_breaks_ties_by_id():
    # source 1 keeps the highest score; targets 0 and 2 tie exactly
    edges = [(1, 0), (1, 2)]
    pairs = topk_augment(HeteroGraph(num_users=3, num_objects=0, trust_edges=edges), k=5, epsilon=1e-9)
    assert not np.any(pairs[:, 0] == pairs[:, 1])
    assert pairs[pairs[:, 0] == 1].tolist() == [[1, 0], [1, 2]]
    scores = forward_push(walk_transition(3, edges), [1], 0.15, 1e-9).toarray()[0]
    assert scores[0] == scores[2] > 0


@pytest.mark.parametrize("num_users,n_edges", [(1, 3), (4, 40), (60, 500), (5, 0)])
def test_trust_graphs_sort_edges_in_lexsort_order(num_users, n_edges):
    # repeated pairs included: each CSR row lists its targets as lexsort does
    edges = np.random.default_rng(n_edges).integers(num_users, size=(n_edges, 2))
    w = walk_transition(num_users, edges)
    want = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    assert np.array_equal(w.indices, want[:, 1])
    assert np.array_equal(np.repeat(np.arange(num_users), np.diff(w.indptr)), want[:, 0])
