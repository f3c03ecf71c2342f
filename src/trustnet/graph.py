"""Heterogeneous user/object graph model, loaders, role views, and splits.

Node ids are dense integers: users occupy 0..num_users-1 and objects
occupy num_users..num_users+num_objects-1. Trust edges are directed
user->user pairs; interaction (user-object) and object-object edges are
undirected.
"""

from __future__ import annotations

import csv
import logging
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


def _check_unique(edges: np.ndarray, label: str, n: int) -> None:
    if edges.shape[0] == 0:
        return
    keys = edges[:, 0].astype(np.int64) * n + edges[:, 1]
    if np.unique(keys).size != keys.size:
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

    def with_trust_edges(self, edges) -> "HeteroGraph":
        """Same graph with the trust edge set replaced (e.g. a train split)."""
        return replace(self, trust_edges=_as_edge_array(edges))


@dataclass(frozen=True)
class TrustSample:
    """Ordered (trustor, trustee) pair with a binary trust label."""

    trustor: int
    trustee: int
    label: int
    split: str = "train"

    def __post_init__(self):
        if self.trustor == self.trustee:
            raise DataError("trust sample must pair distinct users")


def samples_to_arrays(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    i = np.fromiter((s.trustor for s in samples), dtype=np.int64, count=len(samples))
    j = np.fromiter((s.trustee for s in samples), dtype=np.int64, count=len(samples))
    y = np.fromiter((s.label for s in samples), dtype=np.int64, count=len(samples))
    return i, j, y


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

    ``typed_rows`` is each edge's row plus ``num_nodes`` where its column
    is an object: the edge's slot in a per-node vector of user-type
    weights followed by one of object-type weights.
    """

    role: Role
    num_users: int
    num_nodes: int
    edge_rows: np.ndarray
    edge_cols: np.ndarray
    typed_rows: np.ndarray
    indptr: np.ndarray
    emap: EdgeMap
    s_user: sp.csr_matrix
    s_obj: sp.csr_matrix
    has_user_neighbor: np.ndarray
    has_obj_neighbor: np.ndarray


def _merge_user_block(
    trust_edges: np.ndarray,
    augmented: np.ndarray,
    weights: np.ndarray | None,
    num_users: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Dedup union of original and augmented directed user pairs.

    Original edges carry weight 1; augmented-only pairs carry their given
    weight (1 when unweighted). A pair present in both keeps weight 1.
    """
    if augmented.size == 0:
        base = trust_edges
        w = np.ones(len(base))
        return base, w
    aug_w = np.ones(len(augmented)) if weights is None else np.asarray(weights, dtype=np.float64)
    keys_orig = trust_edges[:, 0] * num_users + trust_edges[:, 1] if trust_edges.size else np.zeros(0, dtype=np.int64)
    keys_aug = augmented[:, 0] * num_users + augmented[:, 1]
    fresh = ~np.isin(keys_aug, keys_orig)
    # within augmented, drop duplicates keeping the first occurrence
    _, first = np.unique(keys_aug, return_index=True)
    keep = np.zeros(len(keys_aug), dtype=bool)
    keep[first] = True
    keep &= fresh
    edges = np.concatenate([trust_edges, augmented[keep]]) if trust_edges.size else augmented[keep]
    w = np.concatenate([np.ones(len(trust_edges)), aug_w[keep]])
    return edges, w


def _edge_subset(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, keep: np.ndarray, n: int
) -> sp.csr_matrix:
    """CSR matrix of the kept row-major edges, in freshly allocated arrays."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return sp.csr_matrix((values[keep], cols[keep], indptr), shape=(n, n))


def build_view(
    graph: HeteroGraph,
    augmented,
    role: Role,
    augmented_weights=None,
) -> GraphView:
    """Build the normalized adjacency view for one role.

    The trustor view keeps directed user pairs as given; the trustee view
    reverses them. Interaction and object edges enter both views in both
    directions, and every node gets a self-loop.
    """
    augmented = _as_edge_array(augmented)
    if augmented.size and (augmented.max() >= graph.num_users or augmented.min() < 0):
        raise DataError("augmented pairs must connect user nodes")
    n, nu = graph.num_nodes, graph.num_users

    user_edges, user_w = _merge_user_block(
        graph.trust_edges, augmented, augmented_weights, nu
    )
    if role is Role.TRUSTEE and user_edges.size:
        user_edges = user_edges[:, ::-1]

    blocks_r = [user_edges[:, 0] if user_edges.size else np.zeros(0, dtype=np.int64)]
    blocks_c = [user_edges[:, 1] if user_edges.size else np.zeros(0, dtype=np.int64)]
    blocks_w = [user_w]
    for und in (graph.interaction_edges, graph.object_edges):
        if und.size:
            blocks_r += [und[:, 0], und[:, 1]]
            blocks_c += [und[:, 1], und[:, 0]]
            blocks_w += [np.ones(len(und)), np.ones(len(und))]
    loops = np.arange(n, dtype=np.int64)
    blocks_r.append(loops)
    blocks_c.append(loops)
    blocks_w.append(np.ones(n))

    rows = np.concatenate(blocks_r)
    cols = np.concatenate(blocks_c)
    raw = np.concatenate(blocks_w)

    # orientation-independent self-looped degree: the user block counts
    # incident trust pairs regardless of direction, so both role views
    # normalize identically and differ only in the user-block orientation
    deg = np.zeros(n)
    np.add.at(deg, rows, raw)
    if user_edges.size:
        np.add.at(deg, user_edges[:, 1], user_w)  # incoming side of directed pairs

    emap = EdgeMap.from_edges(rows, cols, n, n)
    rows, cols, raw = emap.rows.astype(np.int64), emap.cols.astype(np.int64), raw[emap.order]
    values = raw / np.sqrt(deg[rows] * deg[cols])

    user_col = cols < nu
    s_user = _edge_subset(rows, emap.cols, values, user_col, n)
    s_obj = _edge_subset(rows, emap.cols, values, ~user_col, n)
    has_user = (np.diff(s_user.indptr) > 0).astype(np.float64)
    has_obj = (np.diff(s_obj.indptr) > 0).astype(np.float64)

    return GraphView(
        role=role,
        num_users=nu,
        num_nodes=n,
        edge_rows=rows,
        edge_cols=cols,
        typed_rows=rows + n * ~user_col,
        indptr=emap.indptr.astype(np.int64),
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
        return int(token)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: expected integer, got {token!r}") from exc


def load_filmtrust(ratings_path, trust_path) -> tuple[HeteroGraph, list[TrustSample]]:
    """Load whitespace-separated rating and trust files.

    Rating lines are ``user item rating``; trust lines are
    ``trustor trustee value``. Ids are remapped to dense integers (sorted
    by original id, users before objects). Self-trust lines are skipped
    with a logged count; trust values are binarized to label 1.
    """
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
        u = _parse_int(parts[0], ratings_path, lineno)
        o = _parse_int(parts[1], ratings_path, lineno)
        try:
            float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{ratings_path}:{lineno}: bad rating value {parts[2]!r}") from exc
        users.add(u)
        items.add(o)
        rating_pairs.add((u, o))

    trust_pairs: set[tuple[int, int]] = set()
    skipped_self = 0
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
        a = _parse_int(parts[0], trust_path, lineno)
        b = _parse_int(parts[1], trust_path, lineno)
        if a == b:
            skipped_self += 1
            continue
        users.add(a)
        users.add(b)
        trust_pairs.add((a, b))
    if skipped_self:
        logger.warning("skipped %d self-trust line(s) in %s", skipped_self, trust_path)

    user_ids = {u: i for i, u in enumerate(sorted(users))}
    object_ids = {o: len(user_ids) + i for i, o in enumerate(sorted(items))}
    graph = HeteroGraph(
        num_users=len(user_ids),
        num_objects=len(object_ids),
        trust_edges=[(user_ids[a], user_ids[b]) for a, b in sorted(trust_pairs)],
        interaction_edges=[(user_ids[u], object_ids[o]) for u, o in sorted(rating_pairs)],
    )
    positives = [
        TrustSample(user_ids[a], user_ids[b], 1) for a, b in sorted(trust_pairs)
    ]
    return graph, positives


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
) -> tuple[HeteroGraph, list[TrustSample], list[list[str]], dict[int, str]]:
    """Load a CSV bundle: trust.csv, interactions.csv, objects.csv.

    Users with at most ``min_user_comments`` comment rows and objects with
    at most ``min_object_comments`` are removed (thresholds are strict:
    a node needs strictly more comments to survive). Returns the remapped
    graph, positive trust samples, the per-user comment corpus, and the
    object -> entity-name alignment for objects that have one.

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
    positives = [TrustSample(a, b, 1) for a, b in sorted(trust_pairs)]
    return graph, positives, corpus, alignment


# ---------------------------------------------------------------------------
# splitting and negative sampling


def split_samples(
    positives: list[TrustSample],
    ratio: float,
    seed: int,
    *,
    num_users: int,
) -> list[TrustSample]:
    """Split positives into train/test and draw matched negatives.

    The test side takes floor((1-ratio) * n) positives, the rest train.
    Negatives are unlinked ordered user pairs, disjoint from all observed
    positives and from each other, with the same per-split counts.
    """
    if not 0.0 < ratio < 1.0:
        raise DataError(f"train ratio must lie in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    n = len(positives)
    order = rng.permutation(n)
    n_test = int(np.floor((1.0 - ratio) * n))
    n_train = n - n_test

    out: list[TrustSample] = []
    forbidden = {(s.trustor, s.trustee) for s in positives}
    for pos, idx in enumerate(order):
        s = positives[idx]
        split = "train" if pos < n_train else "test"
        out.append(TrustSample(s.trustor, s.trustee, 1, split))

    needed = n
    total_pairs = num_users * (num_users - 1)
    if total_pairs - len(forbidden) < needed:
        raise DataError(
            f"cannot draw {needed} negative pairs: only "
            f"{total_pairs - len(forbidden)} unlinked ordered pairs exist"
        )
    negatives: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    if num_users <= 200:
        pool = [
            (i, j)
            for i in range(num_users)
            for j in range(num_users)
            if i != j and (i, j) not in forbidden
        ]
        picks = rng.choice(len(pool), size=needed, replace=False)
        negatives = [pool[p] for p in picks]
    else:
        while len(negatives) < needed:
            i = int(rng.integers(num_users))
            j = int(rng.integers(num_users))
            if i == j or (i, j) in forbidden or (i, j) in seen:
                continue
            seen.add((i, j))
            negatives.append((i, j))
    for pos, (i, j) in enumerate(negatives):
        split = "train" if pos < n_train else "test"
        out.append(TrustSample(i, j, 0, split))
    return out
