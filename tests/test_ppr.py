import numpy as np
import pytest
import scipy.sparse as sp

from trustnet.errors import DataError
from trustnet.graph import HeteroGraph
from trustnet.ppr import forward_push, topk_augment, walk_transition


def oracle_forward_push(w, sources, lam, epsilon):
    """The push with one CSR addition per sweep into the estimate as well as the residual.

    Every score is the left fold, in sweep order, of the mass pushed to it;
    ``forward_push`` must match it bit for bit.
    """
    n = w.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    m = sources.size
    deg = np.diff(w.indptr)
    thresh = epsilon * np.maximum(deg, 1)
    dangling = deg == 0
    rows = np.arange(m)
    absorbed = dangling[sources]
    p = sp.csr_matrix((np.ones(absorbed.sum()), (rows[absorbed], sources[absorbed])), shape=(m, n))
    r = sp.csr_matrix((np.ones(m - absorbed.sum()), (rows[~absorbed], sources[~absorbed])), shape=(m, n))
    rho = np.zeros(m)
    while True:
        active = r.data >= thresh[r.indices]
        if not active.any():
            p.data /= np.repeat(1.0 - rho, np.diff(p.indptr))
            return p
        active_rows = np.repeat(rows, np.diff(r.indptr))[active]
        indptr = np.searchsorted(active_rows, np.arange(m + 1))
        ra = sp.csr_matrix((r.data[active], r.indices[active], indptr), shape=(m, n))
        p = p + lam * ra
        r.data[active] = 0.0
        spread = (1.0 - lam) * (ra @ w)
        spread.sort_indices()
        r = r + spread
        back = dangling[ra.indices]
        rho += (1.0 - lam) * np.bincount(active_rows[back], weights=ra.data[back], minlength=m)


def oracle_topk_pairs(p, k):
    """Top-k pairs of a score matrix by an explicit three-key sort: source, score down, target."""
    sources = np.repeat(np.arange(p.shape[0]), np.diff(p.indptr))
    other = p.indices != sources
    sources, targets, scores = sources[other], p.indices[other], p.data[other]
    order = np.lexsort((targets, -scores, sources))
    sources, targets = sources[order], targets[order]
    top = np.arange(sources.size) - np.searchsorted(sources, sources) < k
    return np.stack([sources[top], targets[top]], axis=1).astype(np.int64)


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


def dangling_digraph(rng, max_nodes=50):
    """Random digraph in which most users trust no one."""
    n = int(rng.integers(4, max_nodes + 1))
    trusters = rng.choice(n, size=max(1, n // 4), replace=False)
    edges = {(int(i), int(j)) for i in trusters for j in rng.choice(n, size=int(rng.integers(1, 5)))}
    return n, sorted((i, j) for i, j in edges if i != j)


def structured_graphs():
    """Tie-heavy graphs: stars, complete bipartite blocks and cycles, with many exactly equal scores."""
    cycle = [(i, (i + 1) % 9) for i in range(9)]
    block = [(i, j) for i in range(4) for j in range(4, 10)]
    return [
        (9, [(0, j) for j in range(1, 9)]),  # star out of 0; the leaves are dangling
        (9, [(j, 0) for j in range(1, 9)]),  # star into 0
        (10, block),  # complete bipartite block onto dangling users
        (10, block + [(j, i) for i, j in block]),
        (9, cycle),
        (18, cycle + [(i, 9 + i) for i in range(9)]),  # a dangling leaf off each cycle user
    ]


def reach_mass(n, edges, source, eps):
    """eps * sum of max(out_degree, 1) over the users ``source`` reaches: R_s's ceiling."""
    out = [[] for _ in range(n)]
    for i, j in edges:
        out[i].append(j)
    seen, stack = {source}, [source]
    while stack:
        for v in out[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return eps * sum(max(len(out[u]), 1) for u in seen)


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

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_scores_within_the_certified_bound(self, eps):
        # underestimates by at most R_s / (1 - rho_s) <= R_s / lam, R_s below reach_mass
        rng = np.random.default_rng(17)
        lam = 0.15
        graphs = [dangling_digraph(rng) for _ in range(12)] + [random_digraph(rng) for _ in range(6)]
        for n, edges in graphs:
            got = push_rows(n, edges, np.arange(n), lam, eps)
            for src in range(n):
                gap = oracle_ppr(n, edges, src, lam) - got[src]
                assert gap.min() >= -1e-12
                assert gap.max() <= reach_mass(n, edges, src, eps) / lam + 1e-12

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


class TestPushMatchesPerSweepFold:
    @pytest.mark.parametrize(
        "lam,eps", [(0.05, 1e-3), (0.15, 1e-2), (0.15, 1e-6), (0.3, 1e-8), (0.5, 1e-5), (0.9, 1e-8)]
    )
    def test_scores_equal_bit_for_bit(self, lam, eps):
        rng = np.random.default_rng(round(100 * lam) + round(-np.log10(eps)))
        graphs = structured_graphs() + [dangling_digraph(rng) for _ in range(3)]
        graphs += [random_digraph(rng, max_nodes=30) for _ in range(3)]
        for n, edges in graphs:
            w = walk_transition(n, edges)
            # every user, a random list with repeats, and a repeated pair of sources
            for sources in (np.arange(n), rng.integers(n, size=n), [n - 1, 0, n - 1]):
                got = forward_push(w, sources, lam, eps)
                want = oracle_forward_push(w, sources, lam, eps)
                assert got.shape == want.shape and got.dtype == np.float64
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, attr), getattr(want, attr)), (attr, n, edges)

    @pytest.mark.parametrize("sources,eps", [([], 1e-6), ([0, 2], 10.0)])
    def test_nothing_pushed_gives_a_float_matrix(self, sources, eps):
        # no source at all, or thresholds above every residual: no estimate entry
        w = walk_transition(3, [(0, 1), (2, 1)])
        got = forward_push(w, sources, 0.15, eps)
        assert got.shape == (len(sources), 3) and got.dtype == np.float64 and got.nnz == 0
        assert np.array_equal(got.indptr, oracle_forward_push(w, sources, 0.15, eps).indptr)

    def test_one_sparse_addition_per_sweep(self, monkeypatch):
        counts = {"add": 0, "matmul": 0}
        add, matmul = sp.csr_matrix.__add__, sp.csr_matrix.__matmul__

        def counted_add(self, other):
            counts["add"] += 1
            return add(self, other)

        def counted_matmul(self, other):  # one spread product per sweep
            counts["matmul"] += 1
            return matmul(self, other)

        monkeypatch.setattr(sp.csr_matrix, "__add__", counted_add)
        monkeypatch.setattr(sp.csr_matrix, "__matmul__", counted_matmul)
        n, edges = random_digraph(np.random.default_rng(4), max_nodes=40)
        w = walk_transition(n, edges)
        forward_push(w, np.arange(n), 0.15, 1e-6)
        sweeps = counts["matmul"]
        assert sweeps > 10 and counts["add"] <= sweeps
        # the per-sweep fold also adds into the estimate, and the counters see it
        counts.update(add=0, matmul=0)
        oracle_forward_push(w, np.arange(n), 0.15, 1e-6)
        assert counts["add"] == 2 * counts["matmul"] == 2 * sweeps


class TestTopkAugment:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_pairs_equal_the_three_key_sort_on_tied_scores(self, k):
        rng = np.random.default_rng(30 + k)
        tied_rows = 0
        for n, edges in structured_graphs() + [dangling_digraph(rng, max_nodes=30) for _ in range(6)]:
            p = forward_push(walk_transition(n, edges), np.arange(n), 0.15, 1e-6)
            for s in range(n):
                lo, hi = p.indptr[s], p.indptr[s + 1]
                row = p.data[lo:hi][p.indices[lo:hi] != s]
                tied_rows += np.unique(row).size < row.size
            got = topk_augment(
                HeteroGraph(num_users=n, num_objects=0, trust_edges=edges), k=k, lam=0.15, epsilon=1e-6
            )
            assert np.array_equal(got, oracle_topk_pairs(p, k)), edges
        assert tied_rows > 10

    def test_star_ties_break_to_smaller_ids(self):
        g = HeteroGraph(num_users=6, num_objects=0, trust_edges=[(0, j) for j in range(1, 6)])
        pairs = topk_augment(g, k=3, lam=0.15, epsilon=1e-9)
        from_center = sorted(tuple(p) for p in pairs if p[0] == 0)
        assert from_center == [(0, 1), (0, 2), (0, 3)]

    def test_k_larger_than_reachable(self):
        g = HeteroGraph(num_users=4, num_objects=0, trust_edges=[(0, 1)])
        pairs = topk_augment(g, k=10, lam=0.15, epsilon=1e-9)
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
        got = pairs_by_source(topk_augment(g, k=4, lam=0.15, epsilon=1e-10))
        expected = oracle_topk(n, edges, 4)
        for src in range(n):
            has_out = any(i == src for i, _ in edges)
            want = expected.get(src, set()) if has_out else set()
            assert got.get(src, set()) == want, f"source {src}"

    def test_determinism(self):
        rng = np.random.default_rng(77)
        n, edges = random_digraph(rng, max_nodes=30)
        g = HeteroGraph(num_users=n, num_objects=0, trust_edges=edges)
        a = topk_augment(g, k=5, lam=0.15, epsilon=1e-6)
        b = topk_augment(g, k=5, lam=0.15, epsilon=1e-6)
        assert np.array_equal(a, b)

    def test_edge_order_invariance(self):
        rng = np.random.default_rng(13)
        n, edges = random_digraph(rng, max_nodes=40)
        shuffled = np.asarray(edges)[rng.permutation(len(edges))]
        a = topk_augment(
            HeteroGraph(num_users=n, num_objects=0, trust_edges=edges), k=5, lam=0.15, epsilon=1e-6
        )
        b = topk_augment(
            HeteroGraph(num_users=n, num_objects=0, trust_edges=shuffled), k=5, lam=0.15, epsilon=1e-6
        )
        assert np.array_equal(a, b)
        # the scores the pairs are ranked by, bitwise
        users = np.arange(n)
        sa = forward_push(walk_transition(n, edges), users, 0.15, 1e-6)
        sb = forward_push(walk_transition(n, shuffled), users, 0.15, 1e-6)
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sa, attr), getattr(sb, attr))

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_pairs_keep_the_exact_topk_floor(self, k, eps):
        # the floor the benchmark's PPR check applies: exact k-th score minus eps * sum_reach max(deg, 1)
        rng = np.random.default_rng(k)
        graphs = structured_graphs() + [dangling_digraph(rng, max_nodes=30) for _ in range(6)]
        for n, edges in graphs:
            pairs = topk_augment(
                HeteroGraph(num_users=n, num_objects=0, trust_edges=edges), k=k, lam=0.15, epsilon=eps
            )
            assert not np.any(pairs[:, 0] == pairs[:, 1])
            assert np.bincount(pairs[:, 0], minlength=n).max() <= k
            for src in {i for i, _ in edges}:
                exact = oracle_ppr(n, edges, src, 0.15)
                others = np.delete(exact, src)
                positive = np.sort(others[others > 0])[::-1]
                if positive.size >= k:
                    floor = positive[k - 1] - reach_mass(n, edges, src, eps)
                else:
                    floor = np.nextafter(0.0, 1.0)
                targets = pairs[pairs[:, 0] == src, 1]
                assert np.all(exact[targets] >= floor), f"source {src} of {edges}"

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
        pairs = topk_augment(
            HeteroGraph(num_users=n, num_objects=0, trust_edges=edges), k=k, lam=0.15, epsilon=1e-6
        )
        pairs_p = topk_augment(
            HeteroGraph(num_users=n, num_objects=0, trust_edges=edges_p), k=k, lam=0.15, epsilon=1e-6
        )
        assert len(pairs) > 0
        assert {(int(perm[i]), int(perm[j])) for i, j in pairs} == {tuple(p) for p in pairs_p.tolist()}


def test_topk_excludes_source_and_breaks_ties_by_id():
    # source 1 keeps the highest score; targets 0 and 2 tie exactly
    edges = [(1, 0), (1, 2)]
    pairs = topk_augment(
        HeteroGraph(num_users=3, num_objects=0, trust_edges=edges), k=5, lam=0.15, epsilon=1e-9
    )
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
