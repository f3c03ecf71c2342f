import numpy as np
import pytest

from trustnet.errors import DataError, ParseError
from trustnet.graph import (
    HeteroGraph,
    Role,
    TrustSample,
    build_view,
    load_filmtrust,
    load_siot_csv,
    split_samples,
)
from trustnet.ppr import topk_augment


def _user_pairs(graph, augmented, weights=None) -> dict:
    """Directed user pair -> weight: 1 for trust edges, and for augmented
    pairs their first given weight (1 when unweighted) unless already a trust edge."""
    pairs = {tuple(map(int, e)): 1.0 for e in graph.trust_edges}
    for k, e in enumerate(augmented):
        pairs.setdefault(tuple(map(int, e)), 1.0 if weights is None else float(weights[k]))
    return pairs


def oracle_degrees(graph, augmented, weights=None) -> np.ndarray:
    """Self-looped degree of every node, counted edge by edge.

    Every incident edge counts once per direction for the user block
    (in + out) and once for undirected blocks, so it is the same in both
    role views.
    """
    deg = np.ones(graph.num_nodes)  # self-loops
    for (i, j), w in _user_pairs(graph, augmented, weights).items():
        deg[i] += w
        deg[j] += w
    for blocks in (graph.interaction_edges, graph.object_edges):
        for p, q in blocks:
            deg[p] += 1.0
            deg[q] += 1.0
    return deg


def adjacency(view):
    """The view's whole normalized adjacency: its user and object column parts."""
    return (view.s_user + view.s_obj).tocsr()


def dense_view_oracle(graph, augmented, role, weights=None):
    """Explicit D^{-1/2} (A + I) D^{-1/2} with the degrees of ``oracle_degrees``."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for (i, j), w in _user_pairs(graph, augmented, weights).items():
        if role is Role.TRUSTOR:
            a[i, j] = w
        else:
            a[j, i] = w
    for blocks in (graph.interaction_edges, graph.object_edges):
        for p, q in blocks:
            a[p, q] = a[q, p] = 1.0
    a += np.eye(n)
    dinv = 1.0 / np.sqrt(oracle_degrees(graph, augmented, weights))
    return a * dinv[:, None] * dinv[None, :]


@pytest.fixture
def small_graph():
    return HeteroGraph(
        num_users=3,
        num_objects=2,
        trust_edges=[(0, 1), (1, 2)],
        interaction_edges=[(0, 3), (2, 4), (1, 3)],
        object_edges=[(3, 4)],
    )


class TestHeteroGraph:
    def test_counts(self, small_graph):
        assert small_graph.num_nodes == 5

    def test_rejects_self_trust(self):
        with pytest.raises(DataError):
            HeteroGraph(num_users=2, num_objects=0, trust_edges=[(1, 1)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(DataError):
            HeteroGraph(num_users=3, num_objects=0, trust_edges=[(0, 1), (0, 1)])

    def test_rejects_user_object_confusion(self):
        with pytest.raises(DataError):
            HeteroGraph(num_users=2, num_objects=1, interaction_edges=[(2, 0)])

    def test_trust_sample_rejects_self_pair(self):
        with pytest.raises(DataError):
            TrustSample(1, 1, 1)


class TestBuildView:
    def test_isolated_node_is_unit_self_loop(self):
        g = HeteroGraph(num_users=1, num_objects=0)
        view = build_view(g, [], Role.TRUSTOR)
        assert adjacency(view).shape == (1, 1)
        assert adjacency(view)[0, 0] == pytest.approx(1.0)

    def test_trustee_view_reverses_trust_edge(self):
        g = HeteroGraph(num_users=2, num_objects=0, trust_edges=[(0, 1)])
        trustor = adjacency(build_view(g, [], Role.TRUSTOR)).toarray()
        trustee = adjacency(build_view(g, [], Role.TRUSTEE)).toarray()
        assert trustor[0, 1] > 0 and trustor[1, 0] == 0
        assert trustee[1, 0] > 0 and trustee[0, 1] == 0

    def test_matches_dense_oracle_three_nodes(self, small_graph):
        for role in (Role.TRUSTOR, Role.TRUSTEE):
            view = build_view(small_graph, [], role)
            oracle = dense_view_oracle(small_graph, [], role)
            assert np.allclose(adjacency(view).toarray(), oracle, atol=1e-12)

    def test_matches_dense_oracle_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            nu = int(rng.integers(2, 30))
            no = int(rng.integers(1, 20))
            trust = set()
            for _ in range(int(rng.integers(0, 3 * nu))):
                i, j = rng.integers(nu, size=2)
                if i != j:
                    trust.add((int(i), int(j)))
            inter = set()
            for _ in range(int(rng.integers(0, 2 * nu))):
                inter.add((int(rng.integers(nu)), int(nu + rng.integers(no))))
            g = HeteroGraph(nu, no, sorted(trust), sorted(inter))
            aug = set()
            for _ in range(int(rng.integers(0, nu))):
                i, j = rng.integers(nu, size=2)
                if i != j:
                    aug.add((int(i), int(j)))
            aug = sorted(aug)
            for role in (Role.TRUSTOR, Role.TRUSTEE):
                view = build_view(g, aug, role)
                oracle = dense_view_oracle(g, np.array(aug).reshape(-1, 2), role)
                assert np.allclose(adjacency(view).toarray(), oracle, atol=1e-12)
                # entries are 1/sqrt(d_i d_j) on the support
                mat = adjacency(view).tocoo()
                deg = oracle_degrees(g, aug)
                expect = 1.0 / np.sqrt(deg[mat.row] * deg[mat.col])
                assert np.allclose(mat.data, expect)

    def test_trustee_equals_transposed_user_block(self, small_graph):
        trustor = adjacency(build_view(small_graph, [(2, 0)], Role.TRUSTOR)).toarray()
        trustee = adjacency(build_view(small_graph, [(2, 0)], Role.TRUSTEE)).toarray()
        nu = small_graph.num_users
        assert np.allclose(trustor[:nu, :nu].T, trustee[:nu, :nu])
        assert np.allclose(trustor[nu:, :], trustee[nu:, :])
        assert np.allclose(trustor[:, nu:], trustee[:, nu:])

    def test_type_matrices_store_only_their_own_edges(self):
        rng = np.random.default_rng(5)
        nu, no = 12, 7
        trust = {(int(i), int(j)) for i, j in rng.integers(nu, size=(30, 2)) if i != j}
        inter = {(int(u), int(nu + o)) for u, o in rng.integers((nu, no), size=(25, 2))}
        g = HeteroGraph(nu, no, sorted(trust), sorted(inter), [(nu, nu + 1), (nu + 2, nu + 5)])
        aug, weights = topk_augment(g, k=3, weighted=True)
        for role in (Role.TRUSTOR, Role.TRUSTEE):
            view = build_view(g, aug, role, weights)
            for mat in (view.s_user, view.s_obj):
                assert mat.nnz > 0 and np.all(mat.data != 0)
                for arr in (view.emap.indptr, view.emap.cols):
                    assert not np.shares_memory(mat.indptr, arr)
                    assert not np.shares_memory(mat.indices, arr)
            assert view.s_user.nnz + view.s_obj.nnz == view.emap.rows.size
            assert np.all(view.s_user.indices < nu) and np.all(view.s_obj.indices >= nu)
            # together the two hold every edge of the map, in its row-major order,
            # with the normalized weights of the dense oracle
            both = adjacency(view)
            assert np.array_equal(both.indptr, view.emap.indptr)
            assert np.array_equal(both.indices, view.emap.cols)
            oracle = dense_view_oracle(g, aug, role, weights)
            assert np.allclose(both.toarray(), oracle, rtol=1e-12, atol=1e-12)

    def test_augmented_duplicates_collapse(self):
        g = HeteroGraph(num_users=3, num_objects=0, trust_edges=[(0, 1)])
        view = build_view(g, [(0, 1), (0, 2), (0, 2)], Role.TRUSTOR)
        dense = adjacency(view).toarray()
        # edge (0,1) present once; all diagonal entries positive
        assert dense[0, 1] > 0
        assert np.all(np.diag(dense) > 0)
        oracle = dense_view_oracle(g, np.array([(0, 1), (0, 2)]), Role.TRUSTOR)
        assert np.allclose(dense, oracle)


class TestLoadFilmtrust:
    def test_minimal_files(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        trust = tmp_path / "trust.txt"
        ratings.write_text("1 10 3.5\n2 10 4.0\n2 20 1.0\n")
        trust.write_text("1 2 1\n2 1 1\n")
        graph, positives = load_filmtrust(ratings, trust)
        assert graph.num_users == 2
        assert graph.num_objects == 2
        assert len(graph.trust_edges) == 2
        assert len(positives) == 2
        assert all(s.label == 1 for s in positives)

    def test_two_line_trust_file_remaps_ids(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        trust = tmp_path / "trust.txt"
        ratings.write_text("")
        trust.write_text("7 9 1\n9 7 1\n")
        graph, positives = load_filmtrust(ratings, trust)
        assert graph.num_users == 2
        assert len(graph.trust_edges) == 2
        assert {tuple(e) for e in graph.trust_edges} == {(0, 1), (1, 0)}

    def test_empty_trust_file(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        trust = tmp_path / "trust.txt"
        ratings.write_text("1 10 3.0\n")
        trust.write_text("")
        graph, positives = load_filmtrust(ratings, trust)
        assert len(graph.trust_edges) == 0
        assert positives == []

    def test_self_trust_skipped_with_warning(self, tmp_path, caplog):
        ratings = tmp_path / "r.txt"
        trust = tmp_path / "t.txt"
        ratings.write_text("")
        trust.write_text("0 0 1\n1 0 1\n")
        with caplog.at_level("WARNING"):
            graph, positives = load_filmtrust(ratings, trust)
        assert len(positives) == 1
        assert "1 self-trust" in caplog.text

    def test_malformed_line_reports_lineno(self, tmp_path):
        ratings = tmp_path / "r.txt"
        trust = tmp_path / "t.txt"
        ratings.write_text("1 10 3.0\n1 oops 2.0\n")
        trust.write_text("")
        with pytest.raises(ParseError, match=":2"):
            load_filmtrust(ratings, trust)


def write_siot_fixture(tmp_path, interactions, trust, objects):
    (tmp_path / "interactions.csv").write_text(
        "user,object,comment\n" + "".join(f"{u},{o},{c}\n" for u, o, c in interactions)
    )
    (tmp_path / "trust.csv").write_text(
        "trustor,trustee\n" + "".join(f"{a},{b}\n" for a, b in trust)
    )
    (tmp_path / "objects.csv").write_text(
        "object,entity_name\n" + "".join(f"{o},{e}\n" for o, e in objects)
    )


class TestLoadSiotCsv:
    def test_threshold_is_strict(self, tmp_path):
        # u1 has exactly 15 comments -> removed; u2 has 16 -> kept
        inter = [("u1", f"o{i}", "text") for i in range(15)]
        inter += [("u2", f"o{i}", "text") for i in range(16)]
        # one object with >10 comments so something survives
        inter += [("u2", "hub", "text")] * 11
        objects = [("hub", "entity_hub")]
        write_siot_fixture(tmp_path, inter, [("u1", "u2")], objects)
        graph, positives, corpus, alignment = load_siot_csv(tmp_path)
        assert graph.num_users == 1  # only u2
        assert positives == []  # trust edge dropped with u1
        assert len(corpus) == 1

    def test_no_op_filter(self, tmp_path):
        inter = []
        for u in ("a", "b"):
            for i in range(20):
                inter.append((u, "obj", f"word{i}"))
        write_siot_fixture(tmp_path, inter, [("a", "b")], [("obj", "ent_obj")])
        graph, positives, corpus, alignment = load_siot_csv(tmp_path)
        assert graph.num_users == 2
        assert graph.num_objects == 1
        assert len(positives) == 1
        assert alignment == {0: "ent_obj"}

    def test_unlisted_object_retained_without_alignment(self, tmp_path):
        inter = [("a", "mystery", f"c{i}") for i in range(20)]
        inter += [("a", "known", f"d{i}") for i in range(20)]
        write_siot_fixture(tmp_path, inter, [], [("known", "ent_known")])
        graph, _, _, alignment = load_siot_csv(tmp_path)
        assert graph.num_objects == 2
        assert len(alignment) == 1

    def test_missing_file_is_descriptive(self, tmp_path):
        with pytest.raises(DataError, match="trust.csv"):
            load_siot_csv(tmp_path)

    def test_counts_match_brute_force_recount(self, tmp_path):
        rng = np.random.default_rng(5)
        users = [f"u{i}" for i in range(50)]
        objects = [f"o{i}" for i in range(80)]
        inter = []
        for u in users:
            for _ in range(int(rng.integers(5, 40))):
                inter.append((u, objects[int(rng.integers(80))], "tok"))
        trust = set()
        for _ in range(120):
            a, b = rng.integers(50, size=2)
            if a != b:
                trust.add((users[int(a)], users[int(b)]))
        write_siot_fixture(tmp_path, inter, sorted(trust), [(o, f"e_{o}") for o in objects])
        graph, positives, corpus, _ = load_siot_csv(tmp_path)

        # independent recount over the raw rows
        from collections import Counter

        uc = Counter(u for u, _, _ in inter)
        oc = Counter(o for _, o, _ in inter)
        surv_u = {u for u in users if uc[u] > 15}
        surv_o = {o for o in objects if oc[o] > 10}
        surv_inter = {(u, o) for u, o, _ in inter if u in surv_u and o in surv_o}
        surv_trust = {(a, b) for a, b in trust if a in surv_u and b in surv_u}
        assert graph.num_users == len(surv_u)
        assert graph.num_objects == len(surv_o)
        assert len(graph.interaction_edges) == len(surv_inter)
        assert len(positives) == len(surv_trust)
        assert sum(len(c) for c in corpus) == sum(
            1 for u, o, _ in inter if u in surv_u and o in surv_o
        )


class TestSplitSamples:
    def _positives(self, n, num_users, seed=0):
        rng = np.random.default_rng(seed)
        pairs = set()
        while len(pairs) < n:
            i, j = rng.integers(num_users, size=2)
            if i != j:
                pairs.add((int(i), int(j)))
        return [TrustSample(i, j, 1) for i, j in sorted(pairs)]

    def test_filmtrust_arithmetic(self):
        positives = self._positives(1853, 1508)
        samples = split_samples(positives, 0.9, seed=1, num_users=1508)
        train_pos = [s for s in samples if s.split == "train" and s.label == 1]
        test_pos = [s for s in samples if s.split == "test" and s.label == 1]
        train_neg = [s for s in samples if s.split == "train" and s.label == 0]
        test_neg = [s for s in samples if s.split == "test" and s.label == 0]
        assert (len(train_pos), len(test_pos)) == (1668, 185)
        assert (len(train_neg), len(test_neg)) == (1668, 185)

    def test_even_split(self):
        positives = self._positives(10, 30)
        samples = split_samples(positives, 0.5, seed=3, num_users=30)
        train_pos = [s for s in samples if s.split == "train" and s.label == 1]
        test_pos = [s for s in samples if s.split == "test" and s.label == 1]
        assert (len(train_pos), len(test_pos)) == (5, 5)

    def test_deterministic(self):
        positives = self._positives(40, 60)
        a = split_samples(positives, 0.8, seed=9, num_users=60)
        b = split_samples(positives, 0.8, seed=9, num_users=60)
        assert a == b

    def test_negatives_never_collide_with_positives(self):
        positives = self._positives(200, 40, seed=2)
        samples = split_samples(positives, 0.7, seed=4, num_users=40)
        pos_pairs = {(s.trustor, s.trustee) for s in positives}
        negs = [(s.trustor, s.trustee) for s in samples if s.label == 0]
        assert len(set(negs)) == len(negs)
        assert not (set(negs) & pos_pairs)

    def test_error_when_pool_exhausted(self):
        # complete directed graph on 3 users leaves no unlinked pairs
        positives = [
            TrustSample(i, j, 1) for i in range(3) for j in range(3) if i != j
        ]
        with pytest.raises(DataError):
            split_samples(positives, 0.5, seed=0, num_users=3)
