from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trustnet import graph
from trustnet.errors import DataError, ParseError
from trustnet.fixtures import make_filmtrust_files
from trustnet.graph import (
    HeteroGraph,
    Role,
    build_view,
    load_filmtrust,
    load_siot_csv,
    split_samples,
)
from trustnet.experiment import PprConfig
from trustnet.ppr import topk_augment


def _user_pairs(graph, augmented) -> set:
    """The distinct directed user pairs of the trust edges and the augmented pairs."""
    return {tuple(map(int, e)) for block in (graph.trust_edges, augmented) for e in block}


def oracle_degrees(graph, augmented) -> np.ndarray:
    """Self-looped degree of every node, counted edge by edge.

    Every incident edge counts once per direction for the user block
    (in + out) and once for undirected blocks, so it is the same in both
    role views.
    """
    deg = np.ones(graph.num_nodes)  # self-loops
    for i, j in _user_pairs(graph, augmented):
        deg[i] += 1.0
        deg[j] += 1.0
    for blocks in (graph.interaction_edges, graph.object_edges):
        for p, q in blocks:
            deg[p] += 1.0
            deg[q] += 1.0
    return deg


def type_blocks(view):
    """The user-column and object-column (n, n) blocks of ``view.s_typed``, columns in node ids."""
    n = view.num_nodes
    return view.s_typed[:n, :n].tocsr(), view.s_typed[n:, n:].tocsr()


def adjacency(view):
    """The view's whole normalized adjacency: its user and object column blocks summed."""
    s_user, s_obj = type_blocks(view)
    return (s_user + s_obj).tocsr()


def dense_view_oracle(graph, augmented, role):
    """Explicit D^{-1/2} (A + I) D^{-1/2} with the degrees of ``oracle_degrees``."""
    n = graph.num_nodes
    a = np.zeros((n, n))
    for i, j in _user_pairs(graph, augmented):
        if role is Role.TRUSTOR:
            a[i, j] = 1.0
        else:
            a[j, i] = 1.0
    for blocks in (graph.interaction_edges, graph.object_edges):
        for p, q in blocks:
            a[p, q] = a[q, p] = 1.0
    a += np.eye(n)
    dinv = 1.0 / np.sqrt(oracle_degrees(graph, augmented))
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

    @pytest.mark.parametrize(
        "edges",
        [
            {"trust_edges": [(0, 1), (0, 1), (1, 2)]},
            {"trust_edges": [(1, 2), (0, 1), (1, 2)]},
            {"interaction_edges": [(0, 3), (1, 3), (1, 3)]},
            {"interaction_edges": [(1, 3), (0, 3), (1, 3)]},
            {"object_edges": [(3, 4), (4, 3)]},
            {"object_edges": [(4, 3), (3, 4)]},
        ],
        ids=["trust_sorted", "trust_unsorted", "interaction_sorted", "interaction_unsorted",
             "object_sorted", "object_unsorted"],
    )
    def test_rejects_duplicates_in_any_order(self, edges):
        with pytest.raises(DataError, match="duplicate"):
            HeteroGraph(num_users=3, num_objects=2, **edges)

    def test_rejects_user_object_confusion(self):
        with pytest.raises(DataError):
            HeteroGraph(num_users=2, num_objects=1, interaction_edges=[(2, 0)])


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
        aug = topk_augment(g, k=3, lam=PprConfig.lam, epsilon=PprConfig.epsilon)
        n = g.num_nodes
        for role in (Role.TRUSTOR, Role.TRUSTEE):
            view = build_view(g, aug, role)
            typed = view.s_typed
            assert typed.shape == (2 * n, 2 * n) and typed.nnz == view.emap.rows.size
            for arr in (view.emap.rows, view.emap.cols, view.emap.indptr, view.typed_rows):
                for own in (typed.data, typed.indices, typed.indptr):
                    assert not np.shares_memory(own, arr)
            # the off-diagonal blocks are empty: a user-type row holds user columns only
            assert typed[:n, n:].nnz == 0 and typed[n:, :n].nnz == 0
            s_user, s_obj = type_blocks(view)
            for mat in (s_user, s_obj):
                assert mat.nnz > 0 and np.all(mat.data != 0)
            assert np.all(s_user.indices < nu) and np.all(s_obj.indices >= nu)
            # edge e sits at (typed_rows[e], cols[e] + n * [col is object])
            rows, cols = view.emap.rows, view.emap.cols
            coo = typed.tocoo()
            assert sorted(zip(coo.row.tolist(), coo.col.tolist())) == sorted(
                zip(view.typed_rows.tolist(), (cols + n * (cols >= nu)).tolist())
            )
            assert np.array_equal(view.typed_rows, rows + n * (cols >= nu))
            # together the two blocks hold every edge of the map, in its row-major
            # order, with the normalized weights of the dense oracle
            both = adjacency(view)
            assert np.array_equal(both.indptr, view.emap.indptr)
            assert np.array_equal(both.indices, view.emap.cols)
            oracle = dense_view_oracle(g, aug, role)
            assert np.allclose(both.toarray(), oracle, rtol=1e-12, atol=1e-12)
            # the presence mask marks each node's neighbor types, users' then objects'
            present = np.concatenate([(oracle[:, :nu] != 0).any(axis=1), (oracle[:, nu:] != 0).any(axis=1)])
            assert view.has_type.dtype == np.float64
            assert np.array_equal(view.has_type, present.astype(np.float64))

    def test_transposes_are_csc_views_of_the_type_matrices(self):
        rng = np.random.default_rng(6)
        nu, no = 12, 7
        trust = {(int(i), int(j)) for i, j in rng.integers(nu, size=(30, 2)) if i != j}
        inter = {(int(u), int(nu + o)) for u, o in rng.integers((nu, no), size=(25, 2))}
        g = HeteroGraph(nu, no, sorted(trust), sorted(inter), [(nu, nu + 1)])
        n = g.num_nodes
        for role in (Role.TRUSTOR, Role.TRUSTEE):
            view = build_view(g, topk_augment(g, k=3, lam=PprConfig.lam, epsilon=PprConfig.epsilon), role)
            mat, mat_t = view.s_typed, view.s_typed_t
            assert mat_t.format == "csc" and mat_t.shape == mat.shape[::-1]
            for name in ("data", "indices", "indptr"):
                got, kept = getattr(mat_t, name), getattr(mat, name)
                assert got.ctypes.data == kept.ctypes.data and got.size == kept.size, name
            # its product is each block's transpose product, bit for bit
            x = rng.normal(size=2 * n)
            s_user, s_obj = type_blocks(view)
            want = np.concatenate([s_user.T @ x[:n], s_obj.T @ x[n:]])
            assert np.array_equal((mat_t @ x).view(np.int64), want.view(np.int64))
            assert np.allclose(mat_t @ x, mat.toarray().T @ x, rtol=1e-12, atol=1e-12)

    def test_augmented_duplicates_collapse(self):
        g = HeteroGraph(num_users=3, num_objects=0, trust_edges=[(0, 1)])
        view = build_view(g, [(0, 1), (0, 2), (0, 2)], Role.TRUSTOR)
        dense = adjacency(view).toarray()
        # edge (0,1) present once; all diagonal entries positive
        assert dense[0, 1] > 0
        assert np.all(np.diag(dense) > 0)
        oracle = dense_view_oracle(g, np.array([(0, 1), (0, 2)]), Role.TRUSTOR)
        assert np.allclose(dense, oracle)


def _oracle_parse_int(token: str, path, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: expected integer, got {token!r}") from exc
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"{path}:{lineno}: integer {token!r} is out of the int64 range")
    return value


def oracle_load_filmtrust(ratings_path, trust_path) -> HeteroGraph:
    """FilmTrust loading with sets of tuples, dicts and sorted lists, file by file."""
    ratings_path, trust_path = Path(ratings_path), Path(trust_path)
    rating_pairs: set[tuple[int, int]] = set()
    users: set[int] = set()
    items: set[int] = set()
    try:
        lines = ratings_path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read ratings file {ratings_path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{ratings_path}:{lineno}: expected 3 fields, got {len(parts)}")
        u = _oracle_parse_int(parts[0], ratings_path, lineno)
        o = _oracle_parse_int(parts[1], ratings_path, lineno)
        try:
            float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{ratings_path}:{lineno}: bad rating value {parts[2]!r}") from exc
        users.add(u)
        items.add(o)
        rating_pairs.add((u, o))

    trust_pairs: set[tuple[int, int]] = set()
    try:
        tlines = trust_path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read trust file {trust_path}: {exc}") from exc
    for lineno, line in enumerate(tlines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{trust_path}:{lineno}: expected 3 fields, got {len(parts)}")
        a = _oracle_parse_int(parts[0], trust_path, lineno)
        b = _oracle_parse_int(parts[1], trust_path, lineno)
        if a == b:
            continue
        users.add(a)
        users.add(b)
        trust_pairs.add((a, b))

    user_ids = {u: i for i, u in enumerate(sorted(users))}
    object_ids = {o: len(user_ids) + i for i, o in enumerate(sorted(items))}
    return HeteroGraph(
        num_users=len(user_ids),
        num_objects=len(object_ids),
        trust_edges=[(user_ids[a], user_ids[b]) for a, b in sorted(trust_pairs)],
        interaction_edges=[(user_ids[u], object_ids[o]) for u, o in sorted(rating_pairs)],
    )


def assert_same_graph(got: HeteroGraph, want: HeteroGraph) -> None:
    assert (got.num_users, got.num_objects) == (want.num_users, want.num_objects)
    for name in ("trust_edges", "interaction_edges", "object_edges"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name


def write_filmtrust(tmp_path, ratings: str, trust: str):
    ratings_path, trust_path = tmp_path / "ratings.txt", tmp_path / "trust.txt"
    ratings_path.write_text(ratings)
    trust_path.write_text(trust)
    return ratings_path, trust_path


def random_filmtrust_text(rng) -> tuple[str, str]:
    """Rating and trust files with repeated, self-trust, blank and whitespace-only lines."""
    num_users = int(rng.integers(1, 40))
    user_pool = rng.choice(10_000, size=num_users, replace=False) - 500
    item_pool = rng.choice(10_000, size=int(rng.integers(1, 30)), replace=False)
    blanks = ["", "   ", "\t", " \t "]
    ratings, trust = [], []
    for _ in range(int(rng.integers(0, 120))):
        u, o = rng.choice(user_pool), rng.choice(item_pool)
        ratings.append(f"{u} {o} {rng.integers(1, 9) / 2}")
    for _ in range(int(rng.integers(0, 80))):
        a, b = rng.choice(user_pool, size=2)
        if rng.random() < 0.1:
            b = a  # self-trust
        trust.append(f"{a}\t{b}  {rng.integers(0, 2)}")
    for lines in (ratings, trust):
        for _ in range(int(rng.integers(0, 6))):
            pos = int(rng.integers(len(lines) + 1))
            if lines and rng.random() < 0.5:
                lines.insert(pos, lines[int(rng.integers(len(lines)))])  # repeated line
            else:
                lines.insert(pos, blanks[int(rng.integers(len(blanks)))])
    return "\n".join(ratings) + "\n", "\n".join(trust)


# Ids the line loop reads but the bulk parse may not (sign, zeros, "_",
# non-ASCII digits), floats, non-numbers, "#", and both int64 edges
ODD_TOKENS = ["+7", "007", "-0", "1_000", "\u0663", "1.0", "1e3", "nan", "inf", "#", "#5",
              "x", "1,5", str(2**63), str(-(2**63)), str(2**63 - 1)]
# field separators, including the line breaks that splitlines() honours
# (\x0b, \x1c) and Unicode spaces that str.split() honours
SEPARATORS = [" ", "\t", "  ", "\x0b", "\x1c", "\x1f", "\u00a0", "\u2003", "\u3000"]


@st.composite
def filmtrust_text(draw) -> str:
    """A rating or trust file: blank, comment, well-formed and odd lines.

    An odd line has one token from ``ODD_TOKENS``, one separator from
    ``SEPARATORS`` and two to four fields. Most lines are well-formed, so
    about half the files load.
    """
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t", "#", "# 1 2 3"])))
            continue
        fields = [str(draw(st.integers(-2, 9))) for _ in range(3)]
        seps = [draw(st.sampled_from([" ", "\t"])) for _ in fields[1:]]
        if kind == 1:
            fields[draw(st.integers(0, 2))] = draw(st.sampled_from(ODD_TOKENS))
            seps[draw(st.integers(0, 1))] = draw(st.sampled_from(SEPARATORS))
            fields = (fields + ["5"])[: draw(st.sampled_from([3, 3, 2, 4]))]
            seps = (seps + [" "])[: len(fields) - 1]
        line = fields[0] + "".join(sep + f for sep, f in zip(seps, fields[1:]))
        lines.append(draw(st.sampled_from(["", " "])) + line + draw(st.sampled_from(["", "\t"])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def load_outcome(loader, paths):
    try:
        return loader(*paths)
    except ParseError as exc:
        return str(exc)


class TestLoadFilmtrust:
    def test_minimal_files(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        trust = tmp_path / "trust.txt"
        ratings.write_text("1 10 3.5\n2 10 4.0\n2 20 1.0\n")
        trust.write_text("1 2 1\n2 1 1\n")
        graph = load_filmtrust(ratings, trust)
        assert graph.num_users == 2
        assert graph.num_objects == 2
        assert len(graph.trust_edges) == 2
        assert np.array_equal(graph.trust_edges, [[0, 1], [1, 0]])
        assert np.array_equal(graph.interaction_edges, [[0, 2], [1, 2], [1, 3]])

    def test_two_line_trust_file_remaps_ids(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        trust = tmp_path / "trust.txt"
        ratings.write_text("")
        trust.write_text("7 9 1\n9 7 1\n")
        graph = load_filmtrust(ratings, trust)
        assert graph.num_users == 2
        assert len(graph.trust_edges) == 2
        assert {tuple(e) for e in graph.trust_edges} == {(0, 1), (1, 0)}

    def test_empty_trust_file(self, tmp_path):
        ratings = tmp_path / "ratings.txt"
        trust = tmp_path / "trust.txt"
        ratings.write_text("1 10 3.0\n")
        trust.write_text("")
        graph = load_filmtrust(ratings, trust)
        assert len(graph.trust_edges) == 0
        assert graph.trust_edges.shape == (0, 2)

    def test_self_trust_skipped_with_warning(self, tmp_path, caplog):
        ratings = tmp_path / "r.txt"
        trust = tmp_path / "t.txt"
        ratings.write_text("")
        trust.write_text("0 0 1\n1 0 1\n")
        with caplog.at_level("WARNING"):
            graph = load_filmtrust(ratings, trust)
        assert len(graph.trust_edges) == 1
        assert "1 self-trust" in caplog.text

    def test_malformed_line_reports_lineno(self, tmp_path):
        ratings = tmp_path / "r.txt"
        trust = tmp_path / "t.txt"
        ratings.write_text("1 10 3.0\n1 oops 2.0\n")
        trust.write_text("")
        with pytest.raises(ParseError, match=":2"):
            load_filmtrust(ratings, trust)

    def test_matches_set_based_oracle_on_random_files(self, tmp_path):
        rng = np.random.default_rng(3)
        for _ in range(40):
            paths = write_filmtrust(tmp_path, *random_filmtrust_text(rng))
            assert_same_graph(load_filmtrust(*paths), oracle_load_filmtrust(*paths))

    def test_matches_oracle_on_duplicate_self_trust_and_blank_lines(self, tmp_path):
        paths = write_filmtrust(
            tmp_path,
            "\n5 30 1.0\n  \n5 30 2.0\n-3 30 0.5\n5 7 4\n\n",
            "9 9 1\n5 -3 1\n\t\n5 -3 0\n-3 5 1\n9 5 1\n",
        )
        graph = load_filmtrust(*paths)
        assert_same_graph(graph, oracle_load_filmtrust(*paths))
        # users -3, 5, 9 and items 7, 30; (9, 9) is skipped, (5, -3) counted once
        assert (graph.num_users, graph.num_objects) == (3, 2)
        assert np.array_equal(graph.trust_edges, [[0, 1], [1, 0], [2, 1]])
        assert np.array_equal(graph.interaction_edges, [[0, 4], [1, 3], [1, 4]])

    @pytest.mark.parametrize("bad_file", ["ratings", "trust"])
    @pytest.mark.parametrize(
        "bad_line",
        ["1 2", "1 2 3 4", "x 2 1", "1 2.5 1", "1 2 oops", "1\u00a02 3 4"],
        ids=["two_fields", "four_fields", "first_id", "second_id", "value", "nbsp"],
    )
    def test_malformed_lines_fail_where_the_oracle_does(self, tmp_path, bad_file, bad_line):
        good = "\n4 8 1\n  \n"
        texts = {"ratings": "1 10 2.5\n" + good, "trust": "1 4 1\n" + good}
        texts[bad_file] += bad_line + "\n4 1 1\n"
        paths = write_filmtrust(tmp_path, texts["ratings"], texts["trust"])
        outcomes = []
        for loader in (load_filmtrust, oracle_load_filmtrust):
            try:
                outcomes.append(("loaded", loader(*paths).trust_edges.tolist()))
            except ParseError as exc:
                outcomes.append(("ParseError", str(exc)))
        assert outcomes[0] == outcomes[1]
        if bad_line != "1 2 oops" or bad_file == "ratings":
            assert outcomes[0] == ("ParseError", outcomes[0][1])
            assert outcomes[0][1].startswith(f"{paths[bad_file == 'trust']}:5: ")

    def test_unreadable_file_is_a_data_error(self, tmp_path):
        ratings, trust = write_filmtrust(tmp_path, "1 2 3\n", "")
        trust.unlink()
        with pytest.raises(DataError, match="cannot read trust file"):
            load_filmtrust(ratings, trust)

    def test_id_beyond_int64_is_a_parse_error(self, tmp_path):
        paths = write_filmtrust(tmp_path, "1 2 3\n", f"1 5 1\n1 {2**63} 1\n")
        with pytest.raises(ParseError, match=r"t\.txt:2: integer .* int64"):
            load_filmtrust(*paths)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ratings=filmtrust_text(), trust=filmtrust_text())
    def test_matches_oracle_on_odd_tokens_and_separators(self, tmp_path, ratings, trust):
        # the same graph, or a ParseError with the same text
        paths = write_filmtrust(tmp_path, ratings, trust)
        got, want = load_outcome(load_filmtrust, paths), load_outcome(oracle_load_filmtrust, paths)
        if isinstance(want, str):
            assert got == want
        else:
            assert_same_graph(got, want)

    def test_well_formed_files_take_the_bulk_parse(self, tmp_path, monkeypatch):
        make_filmtrust_files(tmp_path, seed=0)
        paths = tmp_path / "ratings.txt", tmp_path / "trust.txt"
        want = oracle_load_filmtrust(*paths)

        def line_loop_ran(*args):
            raise AssertionError("the line loop parsed a well-formed file")

        monkeypatch.setattr(graph, "_parse_int", line_loop_ran)
        assert_same_graph(load_filmtrust(*paths), want)


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
        graph, corpus, alignment = load_siot_csv(tmp_path)
        assert graph.num_users == 1  # only u2
        assert len(graph.trust_edges) == 0  # trust edge dropped with u1
        assert len(corpus) == 1

    def test_no_op_filter(self, tmp_path):
        inter = []
        for u in ("a", "b"):
            for i in range(20):
                inter.append((u, "obj", f"word{i}"))
        write_siot_fixture(tmp_path, inter, [("a", "b")], [("obj", "ent_obj")])
        graph, corpus, alignment = load_siot_csv(tmp_path)
        assert graph.num_users == 2
        assert graph.num_objects == 1
        assert len(graph.trust_edges) == 1
        assert alignment == {0: "ent_obj"}

    def test_unlisted_object_retained_without_alignment(self, tmp_path):
        inter = [("a", "mystery", f"c{i}") for i in range(20)]
        inter += [("a", "known", f"d{i}") for i in range(20)]
        write_siot_fixture(tmp_path, inter, [], [("known", "ent_known")])
        graph, _, alignment = load_siot_csv(tmp_path)
        assert graph.num_objects == 2
        assert len(alignment) == 1

    def test_missing_file_is_descriptive(self, tmp_path):
        with pytest.raises(DataError, match="trust.csv"):
            load_siot_csv(tmp_path)

    def test_an_object_listed_twice_is_a_parse_error(self, tmp_path):
        # the second row would otherwise silently replace the first's entity
        inter = [(u, "obj", f"c{i}") for u in ("a", "b") for i in range(20)]
        write_siot_fixture(tmp_path, inter, [("a", "b")], [("obj", "ent_obj"), ("obj", "ent_other")])
        with pytest.raises(ParseError, match=r"objects\.csv: object obj is listed on more than one row$"):
            load_siot_csv(tmp_path)

    @pytest.mark.parametrize("damage", ["directory", "not_utf8"])
    def test_unreadable_file_is_a_data_error(self, tmp_path, damage):
        write_siot_fixture(tmp_path, [("a", "obj", "text")] * 20, [], [("obj", "ent_obj")])
        path = tmp_path / "interactions.csv"
        if damage == "directory":
            path.unlink()
            path.mkdir()
        else:
            path.write_bytes(path.read_bytes() + "\u00e9".encode()[:1])
        with pytest.raises(DataError, match=r"^cannot read .*interactions\.csv: "):
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
        graph, corpus, _ = load_siot_csv(tmp_path)

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
        assert len(graph.trust_edges) == len(surv_trust)
        assert sum(len(c) for c in corpus) == sum(
            1 for u, o, _ in inter if u in surv_u and o in surv_o
        )


@dataclass(frozen=True)
class TrustSample:
    """Ordered (trustor, trustee) pair with a binary trust label and its split."""

    trustor: int
    trustee: int
    label: int
    split: str = "train"


def oracle_split_samples(positives: list, ratio: float, seed: int, *, num_users: int) -> list:
    """The split as one TrustSample per pair, with tuple sets for the negative draws."""
    rng = np.random.default_rng(seed)
    n = len(positives)
    order = rng.permutation(n)
    n_test = int(np.floor((1.0 - ratio) * n))
    n_train = n - n_test

    out = []
    forbidden = {(s.trustor, s.trustee) for s in positives}
    for pos, idx in enumerate(order):
        s = positives[idx]
        out.append(TrustSample(s.trustor, s.trustee, 1, "train" if pos < n_train else "test"))
    if num_users * (num_users - 1) - len(forbidden) < n:
        raise DataError("not enough unlinked pairs")
    negatives, seen = [], set()
    while len(negatives) < n:
        i = int(rng.integers(num_users))
        j = int(rng.integers(num_users))
        if i == j or (i, j) in forbidden or (i, j) in seen:
            continue
        seen.add((i, j))
        negatives.append((i, j))
    for pos, (i, j) in enumerate(negatives):
        out.append(TrustSample(i, j, 0, "train" if pos < n_train else "test"))
    return out


def oracle_split_arrays(edges: np.ndarray, ratio: float, seed: int, num_users: int):
    """``oracle_split_samples`` as (trustor, trustee, label) arrays, train then test."""
    samples = oracle_split_samples(
        [TrustSample(int(i), int(j), 1) for i, j in edges], ratio, seed, num_users=num_users
    )
    return tuple(
        tuple(
            np.array([getattr(s, f) for s in samples if s.split == split], dtype=np.int64)
            for f in ("trustor", "trustee", "label")
        )
        for split in ("train", "test")
    )


def random_pairs(n, num_users, seed=0) -> np.ndarray:
    """``n`` distinct ordered pairs of distinct users, sorted."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < n:
        i, j = rng.integers(num_users, size=2)
        if i != j:
            pairs.add((int(i), int(j)))
    return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def counts(side) -> tuple[int, int]:
    """Positives and negatives on one side of a split."""
    labels = side[2]
    return int((labels == 1).sum()), int((labels == 0).sum())


class CountingRng:
    """A numpy Generator that counts its ``integers`` calls."""

    def __init__(self, rng):
        self.rng, self.integer_calls = rng, 0

    def integers(self, *args, **kwargs):
        self.integer_calls += 1
        return self.rng.integers(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@pytest.mark.parametrize("high", [201, 400, 15080, 2**16 + 1, 2**32 - 1, 2**32 + 1, 3 * 10**9])
def test_batched_integers_read_the_scalar_stream(high):
    # split_samples draws its negatives in batches and relies on this
    scalar, batched = np.random.default_rng(7), np.random.default_rng(7)
    want = [int(scalar.integers(high)) for _ in range(101)]
    assert batched.integers(high, size=101).tolist() == want
    assert int(batched.integers(high)) == int(scalar.integers(high))


class TestSplitSamples:
    def test_filmtrust_arithmetic(self):
        train, test = split_samples(random_pairs(1853, 1508), 0.9, seed=1, num_users=1508)
        assert counts(train) == (1668, 1668)
        assert counts(test) == (185, 185)

    def test_even_split(self):
        train, test = split_samples(random_pairs(10, 30), 0.5, seed=3, num_users=30)
        assert counts(train)[0] == counts(test)[0] == 5

    def test_deterministic(self):
        positives = random_pairs(40, 60)
        a = split_samples(positives, 0.8, seed=9, num_users=60)
        b = split_samples(positives, 0.8, seed=9, num_users=60)
        for side_a, side_b in zip(a, b):
            for x, y in zip(side_a, side_b):
                assert np.array_equal(x, y)

    def test_negatives_never_collide_with_positives(self):
        positives = random_pairs(200, 40, seed=2)
        train, test = split_samples(positives, 0.7, seed=4, num_users=40)
        pos_pairs = {tuple(p) for p in positives.tolist()}
        negs = [
            (int(i), int(j)) for side in (train, test) for i, j, y in zip(*side) if y == 0
        ]
        assert len(set(negs)) == len(negs)
        assert not (set(negs) & pos_pairs)
        assert all(i != j for i, j in negs)

    def test_error_when_pool_exhausted(self):
        # complete directed graph on 3 users leaves no unlinked pairs
        positives = [(i, j) for i in range(3) for j in range(3) if i != j]
        with pytest.raises(DataError):
            split_samples(positives, 0.5, seed=0, num_users=3)

    @pytest.mark.parametrize(
        "num_users,n_pos",
        [(3, 2), (30, 60), (60, 40), (200, 300), (201, 300), (500, 800), (1508, 1853)],
    )
    def test_matches_sample_list_oracle(self, num_users, n_pos):
        # rejection sampling at every size, down to 3 users with 4 free pairs
        edges = random_pairs(n_pos, num_users, seed=num_users)
        shuffled = edges[np.random.default_rng(n_pos).permutation(len(edges))]
        for positives in (edges, shuffled):
            for seed in (0, 1, 12345):
                for ratio in (0.5, 0.6, 0.9, 0.99):
                    got = split_samples(positives, ratio, seed, num_users=num_users)
                    want = oracle_split_arrays(positives, ratio, seed, num_users)
                    for side_got, side_want in zip(got, want):
                        for a, b in zip(side_got, side_want):
                            assert a.dtype == np.int64
                            assert np.array_equal(a, b)

    def test_dense_graph_matches_the_oracle_over_several_batches(self, monkeypatch):
        # positives fill half of the ordered pairs and the negatives the
        # other half, so the last draws are mostly rejected and span many
        # batches (10 here)
        num_users = 201
        n_pairs = num_users * (num_users - 1)
        i, j = np.divmod(np.arange(num_users * num_users), num_users)
        every_pair = np.stack([i[i != j], j[i != j]], axis=1)
        rng = np.random.default_rng(num_users)
        positives = every_pair[np.sort(rng.choice(n_pairs, size=n_pairs // 2, replace=False))]
        want = oracle_split_arrays(positives, 0.9, 5, num_users)
        made = []
        real_default_rng = np.random.default_rng

        def counting_rng(seed):
            made.append(CountingRng(real_default_rng(seed)))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng", counting_rng)
            got = split_samples(positives, 0.9, 5, num_users=num_users)
        assert made[0].integer_calls >= 5
        for side_got, side_want in zip(got, want):
            for a, b in zip(side_got, side_want):
                assert np.array_equal(a, b)
