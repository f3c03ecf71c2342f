"""Heterogeneous user/object graph model, loaders, role views, and splits.

Node ids are dense integers: users occupy 0..num_users-1 and objects
occupy num_users..num_users+num_objects-1. Trust edges are directed
user->user pairs; interaction (user-object) and object-object edges are
undirected.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .autodiff import EdgeMap
from .errors import DataError, ParseError

logger = logging.getLogger(__name__)

USER = 0
OBJECT = 1


class Role(str, Enum):
    TRUSTOR = "trustor"
    TRUSTEE = "trustee"


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    return arr.reshape(-1, 2)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array, by one sort.

    From numpy 2.3, ``np.unique`` without index outputs builds a hash table
    first, which reads about 25x slower than a sort on 10^5 int64 pair keys.
    """
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _unique_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Distinct rows of a pair array of ids below ``n``, sorted lexicographically."""
    keys = _sorted_unique(pairs[:, 0] * n + pairs[:, 1])
    return np.stack(np.divmod(keys, n), axis=1)


def _check_unique(edges: np.ndarray, label: str, n: int) -> None:
    if edges.shape[0] == 0:
        return
    keys = edges[:, 0].astype(np.int64) * n + edges[:, 1]
    if _sorted_unique(keys).size != keys.size:
        raise DataError(f"duplicate {label} edges")


@dataclass(frozen=True)
class HeteroGraph:
    """Typed graph of users and objects with directed trust structure."""

    num_users: int
    num_objects: int
    trust_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    interaction_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    object_edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))

    def __post_init__(self):
        object.__setattr__(self, "trust_edges", _as_edge_array(self.trust_edges))
        object.__setattr__(self, "interaction_edges", _as_edge_array(self.interaction_edges))
        object.__setattr__(self, "object_edges", _as_edge_array(self.object_edges))
        n = self.num_nodes
        te, ie, oe = self.trust_edges, self.interaction_edges, self.object_edges
        if te.size:
            if te.max() >= self.num_users or te.min() < 0:
                raise DataError("trust edges must connect user nodes")
            if np.any(te[:, 0] == te[:, 1]):
                raise DataError("trust edges must connect distinct users")
        if ie.size:
            if np.any(ie[:, 0] >= self.num_users) or np.any(ie[:, 0] < 0):
                raise DataError("interaction edge source must be a user")
            if np.any(ie[:, 1] < self.num_users) or np.any(ie[:, 1] >= n):
                raise DataError("interaction edge target must be an object")
        if oe.size:
            if np.any(oe < self.num_users) or np.any(oe >= n):
                raise DataError("object edges must connect object nodes")
            if np.any(oe[:, 0] == oe[:, 1]):
                raise DataError("object edges must connect distinct objects")
        _check_unique(te, "trust", n)
        _check_unique(ie, "interaction", n)
        if oe.size:
            # undirected: (a,b) and (b,a) are the same edge
            canon = np.sort(oe, axis=1)
            _check_unique(canon, "object", n)

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_objects

    def fingerprint(self) -> str:
        """SHA-256 of the node counts and the three edge arrays, in hex."""
        digest = hashlib.sha256(np.array([self.num_users, self.num_objects], dtype=np.int64).tobytes())
        for edges in (self.trust_edges, self.interaction_edges, self.object_edges):
            digest.update(np.int64(len(edges)).tobytes())
            digest.update(np.ascontiguousarray(edges, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def with_trust_edges(self, edges) -> "HeteroGraph":
        """Same graph with the trust edge set replaced (e.g. a train split)."""
        return replace(self, trust_edges=_as_edge_array(edges))


# ---------------------------------------------------------------------------
# role views


@dataclass(frozen=True)
class GraphView:
    """Normalized adjacency of one role plus cached edge structure.

    The normalized adjacency holds self-looped, symmetric-normalized
    entries 1/sqrt(deg_i * deg_j) where deg is the self-looped total degree
    (orientation-independent, so both role views share one degree vector
    and differ only in the user-block orientation). ``s_user`` and ``s_obj``
    split it by the column's node type and sum to it; each stores only its
    own edges, in its own index arrays. The convolution multiplies them
    with per-node attention scores, not with embeddings: since
    eta . sum_j a_ij h_j = sum_j a_ij (eta . h_j), one sparse product over
    an n-vector of scores gives each node's type-attention term, where
    aggregating h first would cost d times the work and an n x d array.

    ``emap`` holds the edge list once, sorted row-major with its CSR row
    pointers. ``typed_rows`` is each edge's row plus ``num_nodes`` where
    its column is an object: the edge's slot in a per-node vector of
    user-type weights followed by one of object-type weights.
    """

    role: Role
    num_users: int
    num_nodes: int
    typed_rows: np.ndarray
    emap: EdgeMap
    s_user: sp.csr_matrix
    s_obj: sp.csr_matrix
    has_user_neighbor: np.ndarray
    has_obj_neighbor: np.ndarray


def _edge_subset(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, keep: np.ndarray, n: int
) -> sp.csr_matrix:
    """CSR matrix of the kept row-major edges, in freshly allocated arrays."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return sp.csr_matrix((values[keep], cols[keep], indptr), shape=(n, n))


def build_view(graph: HeteroGraph, augmented, role: Role) -> GraphView:
    """Build the normalized adjacency view for one role.

    The user block is the union of the trust edges and the ``augmented``
    pairs (each PPR pair that is not already a trust edge becomes one);
    the trustor view keeps these directed pairs as given and the trustee
    view reverses them. Interaction and object edges enter both views in
    both directions, and every node gets a self-loop. Every edge has
    weight 1 before the normalization.
    """
    augmented = _as_edge_array(augmented)
    if augmented.size and (augmented.max() >= graph.num_users or augmented.min() < 0):
        raise DataError("augmented pairs must connect user nodes")
    n, nu = graph.num_nodes, graph.num_users
    user_edges = _unique_pairs(np.concatenate([graph.trust_edges, augmented]), nu)
    if role is Role.TRUSTEE:
        user_edges = user_edges[:, ::-1]

    und = np.concatenate([graph.interaction_edges, graph.object_edges])
    loops = np.arange(n, dtype=np.int64)
    rows = np.concatenate([user_edges[:, 0], und[:, 0], und[:, 1], loops])
    cols = np.concatenate([user_edges[:, 1], und[:, 1], und[:, 0], loops])

    # orientation-independent self-looped degree: the user block counts
    # incident trust pairs regardless of direction, so both role views
    # normalize identically and differ only in the user-block orientation
    deg = np.bincount(rows, minlength=n) + np.bincount(user_edges[:, 1], minlength=n)

    emap = EdgeMap.from_edges(rows, cols, n, n)
    rows, cols = emap.rows, emap.cols
    values = 1.0 / np.sqrt(deg[rows] * deg[cols])

    user_col = cols < nu
    s_user = _edge_subset(rows, cols, values, user_col, n)
    s_obj = _edge_subset(rows, cols, values, ~user_col, n)
    has_user = (np.diff(s_user.indptr) > 0).astype(np.float64)
    has_obj = (np.diff(s_obj.indptr) > 0).astype(np.float64)

    return GraphView(
        role=role,
        num_users=nu,
        num_nodes=n,
        typed_rows=rows + n * ~user_col,
        emap=emap,
        s_user=s_user,
        s_obj=s_obj,
        has_user_neighbor=has_user,
        has_obj_neighbor=has_obj,
    )


# ---------------------------------------------------------------------------
# loaders


def _parse_int(token: str, path, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: expected integer, got {token!r}") from exc
    if not -(2**63) <= value < 2**63:  # ids are held as int64
        raise ParseError(f"{path}:{lineno}: integer {token!r} is out of the int64 range")
    return value


def _read_id_pairs(path: Path, label: str, numeric_value: bool) -> np.ndarray:
    """The two integer ids of each ``id id value`` line, as an (m, 2) array.

    Fields are whitespace-separated and blank lines are skipped. The value
    must parse as a number when ``numeric_value`` is set and is otherwise
    not read.

    One ``np.loadtxt`` call parses the lines in bulk. What it accepts, the
    line loop below accepts with the same values: it splits at the same
    whitespace and reads ids as ASCII digits with an optional sign, in the
    int64 range. It fails on any other id spelling (``1_000``, ``٣``), on a
    line without exactly three fields and on a file without data (its
    warning is raised as an error), and then the loop parses the lines
    again. The loop is the reference for what parses, and it raises every
    ``ParseError``. ``comments=None`` keeps ``#`` lines that the loop
    rejects from being skipped, and all three fields are read because
    ``usecols`` would let 2- and 4-field lines through.
    """
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {label} file {path}: {exc}") from exc
    value = "f8" if numeric_value else "U1"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                lines, dtype=[("a", "i8"), ("b", "i8"), ("v", value)], comments=None, ndmin=1
            )
        return np.stack((table["a"], table["b"]), axis=1)
    except Exception:  # whatever failed, the loop decides what the lines hold
        pass
    ids: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        ids.append(_parse_int(parts[0], path, lineno))
        ids.append(_parse_int(parts[1], path, lineno))
        if numeric_value:
            try:
                float(parts[2])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad rating value {parts[2]!r}") from exc
    return np.array(ids, dtype=np.int64).reshape(-1, 2)


def load_filmtrust(ratings_path, trust_path) -> HeteroGraph:
    """Load whitespace-separated rating and trust files.

    Rating lines are ``user item rating``; trust lines are
    ``trustor trustee value``. Ids are remapped to dense integers (sorted
    by original id, users before objects). Self-trust lines are skipped
    with a logged count; every other trust line is an observed trust pair,
    whatever its value. Repeated lines count once.
    """
    ratings_path, trust_path = Path(ratings_path), Path(trust_path)
    ratings = _read_id_pairs(ratings_path, "ratings", numeric_value=True)
    trust = _read_id_pairs(trust_path, "trust", numeric_value=False)
    self_trust = trust[:, 0] == trust[:, 1]
    if self_trust.any():
        logger.warning("skipped %d self-trust line(s) in %s", int(self_trust.sum()), trust_path)
        trust = trust[~self_trust]

    users, user_ids = np.unique(np.concatenate([ratings[:, 0], trust.ravel()]), return_inverse=True)
    items, item_ids = np.unique(ratings[:, 1], return_inverse=True)
    nu, n = users.size, users.size + items.size
    rated = np.stack([user_ids[: len(ratings)], nu + item_ids], axis=1)
    return HeteroGraph(
        num_users=nu,
        num_objects=items.size,
        trust_edges=_unique_pairs(user_ids[len(ratings) :].reshape(-1, 2), n),
        interaction_edges=_unique_pairs(rated, n),
    )


def _read_csv(path: Path, expected_header: list[str]) -> list[list[str]]:
    if not path.exists():
        raise DataError(f"missing required file: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration as exc:
            raise ParseError(f"{path}:1: empty file, expected header {expected_header}") from exc
        if [h.strip() for h in header] != expected_header:
            raise ParseError(f"{path}:1: expected header {expected_header}, got {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(f"{path}:{lineno}: expected {len(expected_header)} fields")
            rows.append(row)
        return rows


def load_siot_csv(
    directory,
    min_user_comments: int = 15,
    min_object_comments: int = 10,
) -> tuple[HeteroGraph, list[list[str]], dict[int, str]]:
    """Load a CSV bundle: trust.csv, interactions.csv, objects.csv.

    Users with at most ``min_user_comments`` comment rows and objects with
    at most ``min_object_comments`` are removed (thresholds are strict:
    a node needs strictly more comments to survive). Returns the remapped
    graph, the per-user comment corpus, and the object -> entity-name
    alignment for objects that have one.

    An optional object_edges.csv (header ``object_a,object_b``) adds
    object-object edges.
    """
    directory = Path(directory)
    trust_rows = _read_csv(directory / "trust.csv", ["trustor", "trustee"])
    inter_rows = _read_csv(directory / "interactions.csv", ["user", "object", "comment"])
    object_rows = _read_csv(directory / "objects.csv", ["object", "entity_name"])

    user_counts: dict[str, int] = {}
    object_counts: dict[str, int] = {}
    for u, o, _ in inter_rows:
        user_counts[u] = user_counts.get(u, 0) + 1
        object_counts[o] = object_counts.get(o, 0) + 1

    kept_users = {u for u, c in user_counts.items() if c > min_user_comments}
    kept_objects = {o for o, c in object_counts.items() if c > min_object_comments}

    user_ids = {u: i for i, u in enumerate(sorted(kept_users))}
    object_ids = {o: len(user_ids) + i for i, o in enumerate(sorted(kept_objects))}

    corpus: list[list[str]] = [[] for _ in user_ids]
    interaction_pairs: set[tuple[int, int]] = set()
    for u, o, comment in inter_rows:
        if u in user_ids and o in object_ids:
            corpus[user_ids[u]].append(comment)
            interaction_pairs.add((user_ids[u], object_ids[o]))

    trust_pairs: set[tuple[int, int]] = set()
    skipped_self = 0
    for a, b in trust_rows:
        if a == b:
            skipped_self += 1
            continue
        if a in user_ids and b in user_ids:
            trust_pairs.add((user_ids[a], user_ids[b]))
    if skipped_self:
        logger.warning("skipped %d self-trust row(s) in %s", skipped_self, directory / "trust.csv")

    alignment: dict[int, str] = {}
    for o, entity in object_rows:
        if o in object_ids and entity.strip():
            alignment[object_ids[o] - len(user_ids)] = entity.strip()

    object_edge_path = directory / "object_edges.csv"
    object_edges: list[tuple[int, int]] = []
    if object_edge_path.exists():
        for a, b in _read_csv(object_edge_path, ["object_a", "object_b"]):
            if a in object_ids and b in object_ids and a != b:
                object_edges.append((object_ids[a], object_ids[b]))

    graph = HeteroGraph(
        num_users=len(user_ids),
        num_objects=len(object_ids),
        trust_edges=sorted(trust_pairs),
        interaction_edges=sorted(interaction_pairs),
        object_edges=sorted(set(tuple(sorted(e)) for e in object_edges)),
    )
    return graph, corpus, alignment


# ---------------------------------------------------------------------------
# splitting and negative sampling


def split_samples(
    trust_edges,
    ratio: float,
    seed: int,
    *,
    num_users: int,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Split the observed trust pairs into train and test, with matched negatives.

    The pairs are shuffled; the test side takes the last floor((1-ratio) * n),
    the train side the rest. Negatives are unlinked ordered user pairs,
    disjoint from all observed pairs and from each other, with the same
    per-split counts. Each side is a (trustor, trustee, label) triple of
    int64 arrays: its positives, then its negatives.
    """
    if not 0.0 < ratio < 1.0:
        raise DataError(f"train ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    positives = _as_edge_array(trust_edges)
    n = len(positives)
    positives = positives[rng.permutation(n)]
    n_train = n - int(np.floor((1.0 - ratio) * n))

    # a pair (i, j) is the key i * num_users + j, so keys sort row-major
    taken = positives[:, 0] * num_users + positives[:, 1]
    seen = _sorted_unique(taken)
    free = num_users * (num_users - 1) - seen.size
    if free < n:
        raise DataError(f"cannot draw {n} negative pairs: only {free} unlinked ordered pairs exist")
    if num_users <= 200:
        pool = np.arange(num_users * num_users)
        pool = pool[(pool // num_users != pool % num_users) & ~np.isin(pool, taken)]
        negatives = pool[rng.choice(pool.size, size=n, replace=False)]
    else:
        # Rejection sampling: draw i, then j, and keep the pair unless i == j
        # or it is observed or already kept. A batch of draws reads the same
        # stream as one scalar draw at a time and keeps its pairs in draw
        # order, so this keeps what a scalar loop would. Nothing draws from
        # ``rng`` afterwards, so the last batch's unread draws change nothing.
        drawn = [np.zeros(0, dtype=np.int64)]
        need = n
        while need:
            # about the draws expected to yield ``need`` new pairs, so a pool
            # near exhaustion still fills in a few batches
            left = free - (n - need)  # unlinked pairs not drawn yet
            batch = min(need * num_users**2 // left, 1 << 20) + 64
            i, j = rng.integers(num_users, size=2 * batch).reshape(-1, 2).T
            keys = i * num_users + j
            keys = keys[(i != j) & ~np.isin(keys, seen)]
            _, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first)[:need]]
            seen = np.sort(np.concatenate([seen, keys]))  # keys are new
            drawn.append(keys)
            need -= keys.size
        negatives = np.concatenate(drawn)
    negatives = np.stack(np.divmod(negatives, num_users), axis=1)

    def side(pos: np.ndarray, neg: np.ndarray):
        trustor, trustee = np.concatenate([pos, neg]).T.copy()
        return trustor, trustee, np.repeat(np.array([1, 0]), [len(pos), len(neg)])

    return (
        side(positives[:n_train], negatives[:n_train]),
        side(positives[n_train:], negatives[n_train:]),
    )
