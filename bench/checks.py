"""Correctness checks computed apart from the program under test.

Each check returns a list of failure messages; an empty list is a pass.
The checks use their own numpy/scipy arithmetic: exact PPR by a sparse
solve, TransE scores from the raw vectors, and central differences of the
loss for the gradient. Only the values under test come from ``trustnet``.
"""

from __future__ import annotations

import inspect

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import splu

CHANCE_ACCURACY = 50.0  # percent: splits draw one matched negative per positive
CHANCE_MARGIN_SE = 3.0  # "clearly above chance": standard errors of a coin-flip accuracy
GRAD_STEP = 1e-5
GRAD_TOLERANCE = 1e-5  # relative


def check_trace(rows, test_size: int) -> list[str]:
    """Loss falls and last-epoch test accuracy clearly beats chance.

    ``rows`` are trace.csv rows (epoch, loss, test accuracy in percent).
    Accuracy must exceed 50% by ``CHANCE_MARGIN_SE`` standard errors of a
    coin flip over ``test_size`` pairs.
    """
    min_accuracy = CHANCE_ACCURACY + CHANCE_MARGIN_SE * 50.0 / np.sqrt(test_size)
    if len(rows) < 2:
        return [f"trace has {len(rows)} rows; need at least 2"]
    (_, first_loss, _), (last_epoch, last_loss, last_acc) = rows[0], rows[-1]
    failures = []
    if not last_loss < first_loss:
        failures.append(f"loss did not fall: epoch 0 {first_loss:.6f}, epoch {last_epoch} {last_loss:.6f}")
    if not last_acc >= min_accuracy:
        failures.append(
            f"last-epoch test accuracy {last_acc:.2f}% is below {min_accuracy:.2f}% "
            f"(chance is {CHANCE_ACCURACY:.0f}%)"
        )
    return failures


def exact_ppr(num_users: int, edges: np.ndarray, sources, lam: float) -> np.ndarray:
    """Exact personalized PageRank rows, one per source, by a sparse LU solve.

    The walk follows a uniform out-edge with probability 1 - lam and restarts
    at the source otherwise; a user with no out-edge restarts at the source.
    With W the row-stochastic walk matrix and d the dangling indicator, row s
    solves (I - (1-lam) (W + d e_s^T)^T) p = lam e_s. The rank-one dangling
    term is folded in by Sherman-Morrison around one factorization of
    I - (1-lam) W^T.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = np.bincount(edges[:, 0], minlength=num_users).astype(np.float64)
    walk = sp.csr_matrix(
        (1.0 / deg[edges[:, 0]], (edges[:, 0], edges[:, 1])), shape=(num_users, num_users)
    )
    lu = splu((sp.identity(num_users, format="csc") - (1.0 - lam) * walk.T).tocsc())
    dangling = deg == 0
    rows = []
    for s in sources:
        e = np.zeros(num_users)
        e[s] = 1.0
        x = lu.solve(e)
        rows.append(lam * x / (1.0 - (1.0 - lam) * x[dangling].sum()))
    return np.array(rows).reshape(len(rows), num_users)


def residual_bound(num_users: int, edges: np.ndarray, source: int, epsilon: float) -> float:
    """Largest residual mass a forward push from ``source`` can leave behind.

    Push stops once every node u holds residual below epsilon * max(deg(u), 1),
    and only nodes reachable from the source ever hold residual. Each score
    underestimates the exact one by at most the leftover mass.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = sp.csr_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(num_users, num_users)
    )
    reach = breadth_first_order(adj, source, directed=True, return_predecessors=False)
    deg = np.bincount(edges[:, 0], minlength=num_users)
    return float(epsilon * np.maximum(deg[reach], 1).sum())


def check_ppr_pairs(
    num_users: int,
    edges: np.ndarray,
    pairs: np.ndarray,
    k: int,
    lam: float,
    epsilon: float,
    sample: int,
    rng: np.random.Generator,
) -> list[str]:
    """Top-k PPR pairs against exact PPR on a sample of sources.

    All pairs: no self pair, at most k pairs per source. Sampled sources:
    every returned target scores, exactly, at least the exact k-th score
    minus the push's residual bound (or above zero when fewer than k users
    are reachable).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    failures = []
    self_pairs = int(np.sum(pairs[:, 0] == pairs[:, 1]))
    if self_pairs:
        failures.append(f"{self_pairs} self pairs in the PPR augmentation")
    per_source = np.bincount(pairs[:, 0], minlength=num_users)
    if per_source.max(initial=0) > k:
        failures.append(f"source {int(per_source.argmax())} has {int(per_source.max())} pairs; k is {k}")

    sources = np.flatnonzero(np.bincount(edges[:, 0], minlength=num_users) > 0)
    chosen = rng.choice(sources, size=min(sample, sources.size), replace=False)
    scores = exact_ppr(num_users, edges, chosen, lam)
    for s, row in zip(chosen, scores):
        targets = pairs[pairs[:, 0] == s, 1]
        others = np.delete(row, s)
        positive = np.sort(others[others > 0.0])[::-1]
        if positive.size >= k:
            floor = positive[k - 1] - residual_bound(num_users, edges, int(s), epsilon)
        else:
            floor = np.nextafter(0.0, 1.0)
        bad = targets[row[targets] < floor]
        if bad.size:
            failures.append(
                f"source {int(s)}: target {int(bad[0])} has exact score {row[bad[0]]:.3e} "
                f"below the top-{k} floor {floor:.3e}"
            )
    return failures


def check_transe(entity_vectors, relation_vectors, heads, relations, tails, rng) -> list[str]:
    """Training triples score above corrupted triples on average (score -|h+r-t|^2)."""
    ent, rel = np.asarray(entity_vectors), np.asarray(relation_vectors)
    heads, relations, tails = (np.asarray(a, dtype=np.int64) for a in (heads, relations, tails))
    corrupt = rng.integers(ent.shape[0], size=heads.size)
    swap_head = rng.random(heads.size) < 0.5
    neg_heads = np.where(swap_head, corrupt, heads)
    neg_tails = np.where(swap_head, tails, corrupt)

    def score(h, t):
        diff = ent[h] + rel[relations] - ent[t]
        return -np.einsum("ij,ij->i", diff, diff)

    pos, neg = score(heads, tails).mean(), score(neg_heads, neg_tails).mean()
    if not pos > neg:
        return [f"TransE scores training triples {pos:.4f} on average, corrupted ones {neg:.4f}"]
    return []


def check_directional_derivative(loss, gradients, params, rng) -> tuple[list[str], float]:
    """Tape gradient against central differences along one random direction.

    ``params`` are the trainable arrays' holders (objects with a ``value``
    array), ``gradients`` their tape gradients in the same order, and
    ``loss()`` evaluates the loss at the current values. The direction v is
    a random unit vector plus the unit tape gradient, so <grad L, v> stays
    far from zero: a random v alone is nearly orthogonal to the gradient in
    a million dimensions, and the relative error of a near-zero product
    measures only rounding. Returns the failures and the relative error.
    """
    noise = [rng.standard_normal(p.value.shape) for p in params]
    direction = [v / _norm(noise) + g / (_norm(gradients) or 1.0) for v, g in zip(noise, gradients)]
    direction = [v / _norm(direction) for v in direction]
    analytic = sum(float((g * v).sum()) for g, v in zip(gradients, direction))

    saved = [p.value for p in params]
    sides = []
    for sign in (1.0, -1.0):
        for p, orig, v in zip(params, saved, direction):
            p.value = orig + sign * GRAD_STEP * v
        sides.append(loss())
    for p, orig in zip(params, saved):
        p.value = orig
    numeric = (sides[0] - sides[1]) / (2.0 * GRAD_STEP)
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)
    if not err < GRAD_TOLERANCE:
        return [
            f"directional derivative {analytic:.9e} vs central difference {numeric:.9e} "
            f"(relative error {err:.2e})"
        ], err
    return [], err


class HeldKinks:
    """Holds every leaky ReLU on the side of zero it took at the base point.

    Leaky ReLU has a kink at zero. When one of its inputs changes sign
    between the -h and +h evaluations of a central difference, the
    difference mixes the two slopes and is not the derivative. On one
    ``siot-kg`` run, one input out of 27k crossed at h = 1e-5. That put the
    difference 8e-5 off, where it agrees to 3e-11 once no input crosses.

    Use it as a context manager around the taped base evaluation and the
    check. Calls before ``hold()`` record the sign of each input. After
    ``hold()``, each forward pass meets the calls in the same order. An input
    whose sign has changed is put back on its recorded piece, so the check
    differences the smooth piece whose derivative the tape gradient must
    equal. Every other output is the program's own.
    """

    def __init__(self, autodiff_module):
        self.module = autodiff_module
        self.sides: list[np.ndarray] = []
        self.held = 0  # inputs put back on their piece, over all held passes
        self._holding = False
        self._calls = 0

    def __enter__(self):
        self._original = self.module.leaky_relu
        self._signature = inspect.signature(self._original)
        self.module.leaky_relu = self._leaky_relu
        return self

    def __exit__(self, *exc):
        self.module.leaky_relu = self._original

    def hold(self) -> None:
        self._holding = True

    def _leaky_relu(self, a, *args, **kwargs):
        out = self._original(a, *args, **kwargs)
        x = self.module.as_tensor(a).value
        if not self._holding:
            self.sides.append(x >= 0)
            return out
        side = self.sides[self._calls % len(self.sides)]
        self._calls += 1
        if side.shape != x.shape:
            raise ValueError("leaky_relu calls differ from those of the base evaluation")
        flip = side != (x >= 0)
        if flip.any():
            bound = self._signature.bind(a, *args, **kwargs)
            bound.apply_defaults()
            slope = bound.arguments["negative_slope"]
            out.value[flip] = x[flip] * np.where(side[flip], 1.0, slope)
            self.held += int(flip.sum())
        return out


def _norm(arrays) -> float:
    return float(np.sqrt(sum(float((a * a).sum()) for a in arrays)))
