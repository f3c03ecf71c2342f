"""Approximate personalized PageRank on the directed trust subgraph.

Forward push (Andersen, Chung & Lang, FOCS 2006) keeps, per source s, an
estimate row p_s and a residual row r_s with the invariant
p_exact(s) = p_s + sum_u r_s[u] * p_exact(u); it starts from r_s = e_s.
All sources run at once as synchronous sweeps over two sparse
(sources x users) CSR matrices. Each sweep pushes every entry whose
residual is at least epsilon * max(out_degree, 1): a fraction ``lam`` of
its mass moves to the estimate and the rest spreads along the transition
weights. Dangling users (no outgoing trust) return their walk mass to the
source, matching restart semantics; a dangling source keeps all of its
mass and scores exactly 1 in one step.

Sweeps stop once no entry reaches its threshold, so every leftover
residual r_s[u] is below epsilon * max(out_degree(u), 1). Each score then
underestimates the exact one, by at most the row's leftover residual mass,
which is below epsilon * sum of max(out_degree, 1) over the users the
source reaches. Column indices stay sorted, so every sum runs in ascending
user order and the scores do not depend on the order of the input edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericalError
from .graph import HeteroGraph


@dataclass(frozen=True)
class TrustGraph:
    """CSR adjacency of directed user->user trust edges."""

    num_users: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray | None = None  # per-edge transition weights; None = uniform

    @classmethod
    def from_edges(cls, num_users: int, edges) -> "TrustGraph":
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        edges = edges[np.argsort(edges[:, 0] * num_users + edges[:, 1], kind="stable")]
        indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(edges[:, 0], minlength=num_users)))
        ).astype(np.int64)
        return cls(num_users, indptr, edges[:, 1].copy())

    @classmethod
    def from_hetero(cls, graph: HeteroGraph) -> "TrustGraph":
        return cls.from_edges(graph.num_users, graph.trust_edges)


def symmetric_trust_graph(num_users: int, edges) -> TrustGraph:
    """Trust graph with self-loops and symmetric-normalized edge weights.

    Transition weight of (i, j) is 1/sqrt(d_i d_j) where d is the
    self-looped total (in + out) trust degree; rows are generally
    substochastic, so pushed mass decays instead of being conserved.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = np.arange(num_users, dtype=np.int64)
    all_edges = np.concatenate([edges, np.stack([loops, loops], axis=1)]) if edges.size else np.stack(
        [loops, loops], axis=1
    )
    deg = np.ones(num_users)
    if edges.size:
        deg += np.bincount(edges[:, 0], minlength=num_users)
        deg += np.bincount(edges[:, 1], minlength=num_users)
    all_edges = all_edges[np.argsort(all_edges[:, 0] * num_users + all_edges[:, 1], kind="stable")]
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(all_edges[:, 0], minlength=num_users)))
    ).astype(np.int64)
    weights = 1.0 / np.sqrt(deg[all_edges[:, 0]] * deg[all_edges[:, 1]])
    return TrustGraph(num_users, indptr, all_edges[:, 1].copy(), weights)


def _transition_csr(tg: TrustGraph):
    n = tg.num_users
    if tg.weights is None:
        deg = np.diff(tg.indptr).astype(np.float64)
        data = np.repeat(np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0), deg.astype(np.int64))
    else:
        data = tg.weights
    return sp.csr_matrix((data, tg.indices, tg.indptr), shape=(n, n))


def forward_push(tg: TrustGraph, sources, lam: float, epsilon: float) -> sp.csr_matrix:
    """PPR scores of every source by synchronous sparse forward push.

    ``lam`` is the restart probability; an entry is pushed while its
    residual is >= epsilon * max(out_degree, 1). Returns a
    (len(sources), num_users) CSR matrix whose row i holds the positive
    scores of ``sources[i]``.
    """
    if not 0.0 < lam < 1.0:
        raise DataError(f"restart probability must lie in (0, 1), got {lam}")
    if epsilon <= 0.0:
        raise DataError(f"push threshold must be positive, got {epsilon}")
    n = tg.num_users
    sources = np.asarray(sources, dtype=np.int64)
    if np.any((sources < 0) | (sources >= n)):
        raise DataError(f"PPR source out of range for {n} users")
    m = sources.size
    w = _transition_csr(tg)
    deg = np.diff(tg.indptr)
    thresh = epsilon * np.maximum(deg, 1)
    dangling = deg == 0

    rows = np.arange(m)
    absorbed = dangling[sources]
    p = sp.csr_matrix((np.ones(absorbed.sum()), (rows[absorbed], sources[absorbed])), shape=(m, n))
    r = sp.csr_matrix((np.ones(m - absorbed.sum()), (rows[~absorbed], sources[~absorbed])), shape=(m, n))
    for _ in range(100_000):
        active = r.data >= thresh[r.indices]
        if not active.any():
            return p
        active_rows = np.repeat(rows, np.diff(r.indptr))[active]
        indptr = np.searchsorted(active_rows, np.arange(m + 1))
        ra = sp.csr_matrix((r.data[active], r.indices[active], indptr), shape=(m, n))
        p = p + lam * ra
        r.data[active] = 0.0
        spread = (1.0 - lam) * (ra @ w)
        spread.sort_indices()  # the product leaves rows unsorted; sums must run in user order
        r = r + spread
        back = dangling[ra.indices]
        if back.any():
            mass = (1.0 - lam) * np.bincount(active_rows[back], weights=ra.data[back], minlength=m)
            hit = np.flatnonzero(mass)
            r = r + sp.csr_matrix((mass[hit], (hit, sources[hit])), shape=(m, n))
    raise NumericalError("personalized PageRank sweeps failed to converge")


def topk_augment(
    graph: HeteroGraph,
    k: int,
    lam: float = 0.15,
    epsilon: float = 1e-6,
    transition: str = "walk",
    weighted: bool = False,
):
    """Augmented trust pairs: each user's top-k PPR neighbors.

    Pairs come grouped by source in ascending order, then by descending
    score with ties to the smaller target id; the source itself is never
    a target. Users that reach fewer than k other users emit fewer pairs.
    With ``weighted=True`` returns (pairs, scores); otherwise just the pairs
    as an (m, 2) array. ``transition`` selects uniform out-edge walks
    ("walk") or symmetric-normalized transitions ("symmetric").
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    if transition == "walk":
        tg = TrustGraph.from_hetero(graph)
    elif transition == "symmetric":
        tg = symmetric_trust_graph(graph.num_users, graph.trust_edges)
    else:
        raise DataError(f"unknown transition kind {transition!r}")
    users = np.arange(graph.num_users)
    p = forward_push(tg, users, lam, epsilon)
    sources = np.repeat(users, np.diff(p.indptr))
    other = p.indices != sources
    sources, targets, scores = sources[other], p.indices[other], p.data[other]
    order = np.lexsort((targets, -scores, sources))
    sources, targets, scores = sources[order], targets[order], scores[order]
    top = np.arange(sources.size) - np.searchsorted(sources, sources) < k
    pairs = np.stack([sources[top], targets[top]], axis=1).astype(np.int64)
    if weighted:
        return pairs, scores[top]
    return pairs
