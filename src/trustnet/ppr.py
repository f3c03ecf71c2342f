"""Approximate personalized PageRank on the directed trust subgraph.

``topk_augment`` turns each user's top-k PPR neighbors into augmented
trust pairs. The walk is uniform: a user passes its mass in equal shares
along its outgoing trust edges (``walk_transition``).

Forward push (Andersen, Chung & Lang, FOCS 2006) keeps, per source s, an
estimate row q_s, a residual row r_s (starting at e_s) and an absorbed mass
rho_s. All sources run at once as synchronous sweeps over a sparse
(sources x users) CSR residual. Each sweep pushes every entry whose
residual is at least epsilon * max(out_degree, 1): a fraction ``lam`` of
its mass moves to the estimate and the rest spreads along the walk, or is
absorbed into rho_s at a dangling user (no outgoing trust). Absorbed mass
would only restart the walk from s (Ipsen & Selee, SIAM J. Matrix Anal.
Appl. 29(4), 2007), so each row is divided once by 1 - rho_s at the end.
A dangling source absorbs nothing and scores exactly 1. The residual,
which decides the next pushes, takes one sparse addition per sweep. The
estimate only grows, so, as in FORA (Wang et al., KDD 2017), its pushes
are summed once after the last sweep, each score in sweep order: bit for
bit the sum that one sparse addition per sweep gives.

Sweeps stop once every leftover residual r_s[u] is below
epsilon * max(out_degree(u), 1). Each score then underestimates the exact
one by at most R_s / (1 - rho_s) <= R_s / lam, R_s the row's leftover
residual mass, which is below epsilon * sum of max(out_degree, 1) over the
users the source reaches. Column indices stay sorted, so every sum runs in
ascending user order and the scores do not depend on input edge order.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .autodiff import EdgeMap
from .errors import DataError, NumericalError
from .graph import HeteroGraph


def walk_transition(num_users: int, edges) -> sp.csr_matrix:
    """Uniform random-walk transition matrix of directed user->user trust edges.

    Row i holds 1 / out_degree(i) at each user i trusts, its column indices
    in ascending order (a repeated pair is listed, and counted, once per
    repeat); a dangling user's row is empty.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    emap = EdgeMap.from_edges(edges[:, 0], edges[:, 1], num_users, num_users)
    deg = np.diff(emap.indptr)
    return sp.csr_matrix((1.0 / deg[emap.rows], emap.cols, emap.indptr), shape=(num_users, num_users))


def forward_push(w: sp.csr_matrix, sources, lam: float, epsilon: float) -> sp.csr_matrix:
    """PPR scores of every source by synchronous sparse forward push.

    ``w`` is a ``walk_transition`` matrix and ``lam`` the restart
    probability; an entry is pushed while its residual is
    >= epsilon * max(out_degree, 1). Each sweep adds its spread to the
    residual; the estimate is summed once in sweep order, and each row
    divided once by one minus its absorbed dangling mass. Returns a float64
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
    keys, vals = [rows[absorbed] * n + sources[absorbed]], [np.ones(absorbed.sum())]
    r = sp.csr_matrix((np.ones(m - absorbed.sum()), (rows[~absorbed], sources[~absorbed])), shape=(m, n))
    rho = np.zeros(m)
    for _ in range(100_000):
        active = r.data >= thresh[r.indices]
        if not active.any():
            return _estimate(np.concatenate(keys), np.concatenate(vals), rho, n)
        indptr = np.concatenate(([0], np.cumsum(active)))[r.indptr]
        active_rows = np.repeat(rows, np.diff(indptr))
        ra = sp.csr_matrix((r.data[active], r.indices[active], indptr), shape=(m, n))
        keys.append(active_rows * n + ra.indices)
        vals.append(lam * ra.data)
        r.data[active] = 0.0
        spread = ra @ w
        spread.data *= 1.0 - lam
        spread.sort_indices()  # the product leaves rows unsorted; sums must run in user order
        r = r + spread
        back = dangling[ra.indices]
        rho += (1.0 - lam) * np.bincount(active_rows[back], weights=ra.data[back], minlength=m)
    raise NumericalError("personalized PageRank sweeps failed to converge")


def _estimate(keys: np.ndarray, vals: np.ndarray, rho: np.ndarray, n: int) -> sp.csr_matrix:
    """CSR of ``vals`` summed per key ``row * n + user`` in input order, row s divided by 1 - rho_s."""
    order = np.argsort(keys, kind="stable")  # keeps each entry's pushes in sweep order
    keys = keys[order]
    first = np.diff(keys, prepend=-1) != 0  # keys are >= 0
    # bincount adds in input order from +0.0, as a CSR addition per sweep did
    data = np.bincount(np.cumsum(first) - 1, weights=vals[order])
    row, col = np.divmod(keys[first], n)
    indptr = np.searchsorted(row, np.arange(rho.size + 1))
    # the division also makes float64 the int64 that bincount returns for no keys
    return sp.csr_matrix((data / (1.0 - rho)[row], col, indptr), shape=(rho.size, n))


def topk_augment(graph: HeteroGraph, k: int, lam: float, epsilon: float) -> np.ndarray:
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
    # one stable sort by source, then descending score (numpy orders complex numbers
    # by real, then imaginary part); targets ascend within a row, so ties go to the smaller id
    order = np.argsort(sources + 1j * -scores, kind="stable")
    sources, targets = sources[order], targets[order]
    top = np.arange(sources.size) - np.searchsorted(sources, sources) < k
    return np.stack([sources[top], targets[top]], axis=1).astype(np.int64)
