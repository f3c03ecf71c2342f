"""Approximate personalized PageRank on the directed trust subgraph.

``topk_augment`` turns each user's top-k PPR neighbors into augmented
trust pairs. The walk is uniform: a user passes its mass in equal shares
along its outgoing trust edges (``walk_transition``).

Forward push (Andersen, Chung & Lang, FOCS 2006) keeps, per source s, an
estimate row p_s and a residual row r_s with the invariant
p_exact(s) = p_s + sum_u r_s[u] * p_exact(u); it starts from r_s = e_s.
All sources run at once as synchronous sweeps over two sparse
(sources x users) CSR matrices. Each sweep pushes every entry whose
residual is at least epsilon * max(out_degree, 1): a fraction ``lam`` of
its mass moves to the estimate and the rest spreads along the walk.
Dangling users (no outgoing trust) return their walk mass to the
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

import numpy as np
import scipy.sparse as sp

from .errors import DataError, NumericalError
from .graph import HeteroGraph


def walk_transition(num_users: int, edges) -> sp.csr_matrix:
    """Uniform random-walk transition matrix of directed user->user trust edges.

    Row i holds 1 / out_degree(i) at each user i trusts, its column indices
    in ascending order (a repeated pair is listed, and counted, once per
    repeat); a dangling user's row is empty.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    edges = edges[np.argsort(edges[:, 0] * num_users + edges[:, 1], kind="stable")]
    deg = np.bincount(edges[:, 0], minlength=num_users)
    indptr = np.concatenate(([0], np.cumsum(deg)))
    return sp.csr_matrix((1.0 / deg[edges[:, 0]], edges[:, 1], indptr), shape=(num_users, num_users))


def forward_push(w: sp.csr_matrix, sources, lam: float, epsilon: float) -> sp.csr_matrix:
    """PPR scores of every source by synchronous sparse forward push.

    ``w`` is a ``walk_transition`` matrix and ``lam`` the restart
    probability; an entry is pushed while its residual is
    >= epsilon * max(out_degree, 1). Returns a
    (len(sources), num_users) CSR matrix whose row i holds the positive
    scores of ``sources[i]``.
    """
    if not 0.0 < lam < 1.0:
        raise DataError(f"restart probability must lie in (0, 1), got {lam}")
    if epsilon <= 0.0:
        raise DataError(f"push threshold must be positive, got {epsilon}")
    n = w.shape[0]
    sources = np.asarray(sources, dtype=np.int64)
    if np.any((sources < 0) | (sources >= n)):
        raise DataError(f"PPR source out of range for {n} users")
    m = sources.size
    deg = np.diff(w.indptr)
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


def topk_augment(graph: HeteroGraph, k: int, lam: float = 0.15, epsilon: float = 1e-6) -> np.ndarray:
    """Augmented trust pairs: each user's top-k PPR neighbors, as an (m, 2) array.

    The scores come from one ``forward_push`` of every user over the
    uniform walk on ``graph``'s trust edges. Pairs come grouped by source
    in ascending order, then by descending score with ties to the smaller
    target id; the source itself is never a target. Users that reach fewer
    than k other users emit fewer pairs.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    users = np.arange(graph.num_users)
    p = forward_push(walk_transition(graph.num_users, graph.trust_edges), users, lam, epsilon)
    sources = np.repeat(users, np.diff(p.indptr))
    other = p.indices != sources
    sources, targets, scores = sources[other], p.indices[other], p.data[other]
    order = np.lexsort((targets, -scores, sources))
    sources, targets = sources[order], targets[order]
    top = np.arange(sources.size) - np.searchsorted(sources, sources) < k
    return np.stack([sources[top], targets[top]], axis=1).astype(np.int64)
