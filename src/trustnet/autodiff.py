"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64 and gradients are exact analytic expressions.

A forward pass runs inside a ``Tape`` context; each taped op appends one
record under its op's name. ``Tape.gradients`` replays the records in
reverse execution order (which is a reverse topological order, since
records are appended eagerly) and may be called exactly once. It releases
each record as it replays it, so a backward closure, and every array only
that closure holds, is freed during the replay rather than after it;
``Tape.num_records`` and ``Tape.record_counts`` (records per name) still
count what was recorded.

In-place sums. A tensor that takes several contributions gets their sum
in list order, record by record. A record made with ``fresh=True``
declares that every contribution it returns is an array its backward
allocated, or a view of one, that no other pair overlaps and nothing else
holds, as the layer's ``d_h`` and ``d_x`` are;
the tape keeps such an array as the tensor's gradient and adds later
contributions into it in place (``a += b`` gives the bits of ``a + b``).
Any other contribution may be shared (a backward may hand one ``g``, or
views of it, on) and is never mutated: a second contribution is summed
into a new array, which the tape then owns and adds into in place.

Taped ops. The pipeline records four fused records made with ``record``:
the input projection (``train.input_projection``), the convolution layer
(``conv.layer_forward``), the fusion gate (``train.gate_fusion``) and the
loss head (``predict.pair_loss``), plus ``concat_cols`` under concat
fusion. Two more taped ops serve the benchmark: ``bench/checks.HeldKinks``
patches ``leaky_relu`` and writes into its output's ``.value``, and its
test tapes ``reduce_sum``. The layer calls ``leaky_relu`` on plain arrays,
which records nothing, and reads its values.

Kernels. Plain-array functions, each forward next to its gradient:
``row_block_product``/``row_block_grads``, ``stack_halves``/
``stack_halves_grads``, ``type_softmax``/``type_softmax_grads`` (on the
layer's 2n vectors of user-type, then object-type entries),
``segment_softmax``/``segment_softmax_grad``, ``edge_matmul``/
``edge_dots`` and ``logistic``/``sigmoid_grad``; ``leaky_slopes`` and
``elu_slopes`` are the activations' derivatives. ``matmul``,
``sparse_matmul``, ``gather``, ``edge_matmul`` and ``elu`` keep their
names because ``bench/child.py`` times the layer's calls to them.
``scatter_values`` is a 1-D gather's gradient, and ``scatter_matrices``
the 2-D one's matrices, for indices that never change. The fused
backwards call these kernels in the chain's reverse order, so no gradient
is written twice; ``embed`` also calls ``logistic`` on every SGD step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "Tape",
    "TapeError",
    "EdgeMap",
    "record",
    "logistic",
    "sigmoid_grad",
    "leaky_slopes",
    "elu_slopes",
    "row_block_product",
    "row_block_grads",
    "stack_halves_grads",
    "type_softmax_grads",
    "segment_softmax_grad",
    "matmul",
    "leaky_relu",
    "elu",
    "reduce_sum",
    "concat_cols",
    "stack_halves",
    "gather",
    "scatter_matrices",
    "scatter_values",
    "type_softmax",
    "segment_softmax",
    "sparse_matmul",
    "edge_matmul",
    "edge_dots",
    "as_tensor",
]


class TapeError(RuntimeError):
    """A tape was replayed twice, or backward ran with no marked output."""


_TAPE_STACK: list["Tape"] = []


class Tensor:
    """A float64 array tracked by the active tape.

    Tensors hash by identity; gradient dictionaries are keyed by the
    tensor object itself. ``requires_grad=False`` marks constants that
    never receive gradient contributions.
    """

    __slots__ = ("value", "requires_grad", "name")

    def __init__(self, value, requires_grad: bool = True, name: str | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.value.shape}, grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)


class Tape:
    """Wengert list of one forward pass; replayable backward exactly once."""

    def __init__(self):
        # (out, backward, fresh) per record, in execution order
        self._records: list[tuple[Tensor, object, bool]] = []
        self._counts: dict[str, int] = {}
        self._output: Tensor | None = None
        self._spent = False

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _TAPE_STACK.pop()
        return False

    def mark_output(self, t: Tensor) -> None:
        if t.value.shape != ():
            raise ValueError("tape output must be a scalar tensor")
        self._output = t

    @property
    def num_records(self) -> int:
        """Records appended by the forward pass, also after ``gradients``."""
        return sum(self._counts.values())

    @property
    def record_counts(self) -> dict[str, int]:
        """Records appended by the forward pass per op name, also after ``gradients``."""
        return dict(self._counts)

    def gradients(self) -> dict[Tensor, np.ndarray]:
        """Run the backward pass; returns gradients keyed by tensor.

        Each record is visited once, in reverse execution order, and is
        popped off the tape before its backward runs. The closure, its
        output and the output's gradient are dropped before the
        contributions it returned are summed, and those once they are, so
        a record's arrays are freed as the replay goes and never sit next
        to the sums. Sums go in place wherever the module docstring's rule
        allows. Calling this a second time raises ``TapeError``.
        """
        if self._spent:
            raise TapeError("tape has already been replayed")
        if self._output is None:
            raise TapeError("no output marked on this tape")
        self._spent = True
        grads: dict[Tensor, np.ndarray] = {self._output: np.ones_like(self._output.value)}
        # Tensors whose entry in ``grads`` is a sum the tape allocated or a
        # fresh contribution; only those are accumulated in place.
        owned: set[Tensor] = set()
        records = self._records
        while records:
            # rebinding ``out``, ``backward`` and ``g`` on the next pass drops
            # the last references to this record before the next one runs
            out, backward, fresh = records.pop()
            g = grads.pop(out, None)
            owned.discard(out)
            if g is not None:
                contribs = backward(g)
                del out, backward, g
                _accumulate(grads, owned, contribs, fresh)
                del contribs
        return grads


def _accumulate(grads: dict, owned: set, contribs, fresh: bool) -> None:
    """Add one record's (tensor, contribution) pairs into ``grads``.

    A first contribution becomes the gradient as it is, owned when the
    record declared its contributions ``fresh``.

    A function of its own so that its loop variables, which may be the last
    references to a replayed tensor, do not outlive the record.
    """
    for t, contrib in contribs:
        if contrib is None or not t.requires_grad:
            continue
        prev = grads.get(t)
        if prev is None:
            grads[t] = contrib
            if fresh:
                owned.add(t)
        elif t in owned:
            prev += contrib
            grads[t] = prev  # a 0-d sum is a numpy scalar; += rebinds it
        else:
            grads[t] = prev + contrib
            owned.add(t)


def record(name: str, out: Tensor, backward, fresh: bool = False) -> None:
    """Append ``out`` and its backward to the active tape, if any, as op ``name``.

    ``backward(g)`` gets the gradient of ``out`` and returns (tensor,
    contribution) pairs; a tensor may appear in several pairs, which are
    summed in list order. ``fresh`` declares every contribution an array
    the backward allocated for that pair alone (see the module docstring),
    which the tape may then add into in place. Nothing is recorded outside
    a tape or when ``out`` does not require a gradient.
    """
    if _TAPE_STACK and out.requires_grad:
        tape = _TAPE_STACK[-1]
        tape._records.append((out, backward, fresh))
        tape._counts[name] = tape._counts.get(name, 0) + 1


# ---------------------------------------------------------------------------
# products


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b``."""
    return a @ b


def row_block_product(top, bottom, w_top, w_bottom) -> np.ndarray:
    """[top @ w_top; bottom @ w_bottom], each block's product written into its rows of one array."""
    split = top.shape[0]
    value = np.empty((split + bottom.shape[0], w_top.shape[1]))
    np.matmul(top, w_top, out=value[:split])
    np.matmul(bottom, w_bottom, out=value[split:])
    return value


def row_block_grads(top, bottom, w_top, w_bottom, g: np.ndarray):
    """Gradients of ``row_block_product``, given the output's ``g``.

    They are the stacked input rows' [d_top; d_bottom], as one array, then
    w_top's and w_bottom's.
    """
    split = top.shape[0]
    g_top, g_bottom = g[:split], g[split:]
    dx = np.empty((split + bottom.shape[0], top.shape[1]))
    np.matmul(g_top, w_top.T, out=dx[:split])
    np.matmul(g_bottom, w_bottom.T, out=dx[split:])
    return dx, top.T @ g_top, bottom.T @ g_bottom


# ---------------------------------------------------------------------------
# nonlinearities


def logistic(x: np.ndarray) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)), without overflow for either sign.

    With ``e = exp(-|x|)`` this is ``1 / (1 + e)`` for ``x >= 0`` and
    ``e / (1 + e)`` below, taken as one quotient over a single ``1 + e``.
    The gate and the user embedding share it.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The sigmoid's input gradient from its output ``s`` and output gradient ``g``."""
    return g * s * (1.0 - s)


def leaky_slopes(nonneg: np.ndarray, negative_slope: float) -> np.ndarray:
    """The leaky ReLU's derivative at each input, from the inputs' ``>= 0`` mask."""
    return np.array([negative_slope, 1.0]).take(nonneg.view(np.uint8))


def leaky_relu(a, negative_slope: float) -> Tensor:
    a = as_tensor(a)
    slopes = leaky_slopes(a.value >= 0, negative_slope)
    out = Tensor(a.value * slopes, requires_grad=a.requires_grad)
    record("leaky_relu", out, lambda g: [(a, g * slopes)])
    return out


def elu_slopes(x: np.ndarray) -> np.ndarray:
    """The ELU's derivative at each input, exp(min(x, 0)): exactly 1 where x >= 0."""
    return np.exp(np.minimum(x, 0.0))


def elu(x: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """The ELU, max(0, x) + exp(min(x, 0)) - 1, given ``slopes = elu_slopes(x)``.

    The derivative is also what the value needs: max(0, x) - (1 - slopes)
    is x where x >= 0 and slopes - 1 below 0. The argument order keeps
    max(0.0, -0.0) at -0.0.
    """
    value = np.maximum(0.0, x)
    value -= 1.0 - slopes
    return value


# ---------------------------------------------------------------------------
# reductions and reshaping


def reduce_sum(a) -> Tensor:
    """The sum of every entry of ``a``, as a 0-d tensor."""
    a = as_tensor(a)
    out = Tensor(a.value.sum(), requires_grad=a.requires_grad)
    record("reduce_sum", out, lambda g: [(a, np.broadcast_to(g, a.value.shape).copy())])
    return out


def concat_cols(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(
        np.concatenate([a.value, b.value], axis=1),
        requires_grad=a.requires_grad or b.requires_grad,
    )
    ka = a.value.shape[1]

    def backward(g):
        return [
            (a, g[:, :ka] if a.requires_grad else None),
            (b, g[:, ka:] if b.requires_grad else None),
        ]

    record("concat_cols", out, backward)
    return out


def stack_halves(*vectors: np.ndarray) -> np.ndarray:
    """Both halves of each (2d,) vector as columns of one (d, 2k) matrix.

    Column 2i is ``vectors[i][:d]`` and column 2i+1 is ``vectors[i][d:]``,
    so a single product ``x @ stack_halves(...)`` dots ``x`` with every half.
    """
    d = vectors[0].shape[0] // 2
    return np.concatenate([v.reshape(2, d).T for v in vectors], axis=1)


def stack_halves_grads(g: np.ndarray) -> list[np.ndarray]:
    """Each vector's gradient from the gradient ``g`` of ``stack_halves``' (d, 2k) output."""
    return [g[:, 2 * i : 2 * i + 2].T.reshape(-1) for i in range(g.shape[1] // 2)]


def scatter_matrices(n: int, *indices: np.ndarray) -> list[sp.csc_array]:
    """Per index array idx of one length m, the (n, m) 0/1 matrix with a one at (idx[k], k).

    Stored by columns, one entry each, so scipy's product adds position
    k's row into output row idx[k] in ascending k, starting from +0, as
    ``np.add.at`` does; building them sorts nothing. They share one array
    of ones and one of int64 column pointers; scipy keeps both without a
    copy, and int64 indices too. A caller whose indices never change
    builds them once and multiplies with them at every step.
    """
    m = indices[0].size
    ones, indptr = np.ones(m), np.arange(m + 1)
    return [sp.csc_array((ones, idx, indptr), shape=(n, m)) for idx in indices]


def scatter_values(g: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """The length-n sums of the entries of ``g`` at ``idx``: a 1-D gather's gradient."""
    return np.bincount(idx, weights=g, minlength=n)


def gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Row gather ``a[idx]``, with ``idx`` used as given, in any integer dtype."""
    return a[idx]


# ---------------------------------------------------------------------------
# attention softmaxes


def type_softmax(logit: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-node softmax over the types present there, on 2n vectors.

    ``logit`` and the 0/1 ``mask`` hold every node's user-type entry, then
    every node's object-type entry; the mask marks at least one present
    type per node. The output is [alpha_u; alpha_o] in the same layout; an
    absent type gets weight 0, so the gradient a * (g - sum_t a_t g_t)
    sends it none.
    """
    logit, mask = logit.reshape(2, -1), mask.reshape(2, -1)
    shift = np.where(mask > 0, logit, -np.inf)
    shift = np.maximum(shift[0], shift[1])
    ex = np.exp((logit - shift) * mask) * mask
    ex /= ex[0] + ex[1]
    return ex.reshape(-1)


def type_softmax_grads(alpha: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The type logits' 2n gradient from the output [alpha_u; alpha_o] and its gradient ``g``."""
    a, g = alpha.reshape(2, -1), g.reshape(2, -1)
    dot = a[0] * g[0] + a[1] * g[1]
    return (a * (g - dot)).reshape(-1)


def segment_softmax(x: np.ndarray, rows: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Softmax of 1-D values within each row's contiguous run of edges.

    ``rows`` is sorted and ``indptr`` delimits its runs; every run must be
    non-empty, since each is shifted by its own max, a detached constant.
    The gradient is beta * (g - sum_segment beta * g).
    """
    beta = np.exp(x - np.maximum.reduceat(x, indptr[:-1])[rows])
    beta /= np.bincount(rows, weights=beta, minlength=indptr.shape[0] - 1)[rows]
    return beta


def segment_softmax_grad(beta: np.ndarray, g: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The logits' gradient from the output ``beta`` of ``n`` segments and its gradient ``g``."""
    dot = np.bincount(rows, weights=beta * g, minlength=n)
    return beta * (g - dot[rows])


# ---------------------------------------------------------------------------
# sparse structure


def sparse_matmul(mat: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """Product ``mat @ x`` with a constant sparse matrix."""
    return mat @ x


@dataclass(frozen=True)
class EdgeMap:
    """Fixed sparsity pattern of an edge list, sorted row-major.

    Precomputes the CSR structure of the pattern so a weighted adjacency
    product only has to drop edge values into place. ``matrix`` builds that
    CSR array and ``matrix_t`` its transpose, a CSC array over the same
    arrays read column-wise, without forming the CSR array first. The
    arrays are int64, numpy's index type, so gathers and bincounts over
    them convert nothing, and scipy keeps them without a copy.

    Built once, with the map: one CSR and one CSC container over its index
    arrays. ``product`` and ``product_t`` swap a call's edge values into
    one of them for a single product and swap them out again, so no step
    builds a sparse matrix, every product reads the values it was handed,
    and no container keeps a step's values alive after its product. Two
    threads must not multiply through one map at once.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_rows: int
    n_cols: int
    indptr: np.ndarray
    _csr: sp.csr_array = field(init=False, repr=False, compare=False)
    _csc: sp.csc_array = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a zero-stride stand-in of the right length: no memory, never multiplied
        unset = np.broadcast_to(np.float64(0.0), self.cols.shape)
        object.__setattr__(self, "_csr", self.matrix(unset))
        object.__setattr__(self, "_csc", self.matrix_t(unset))

    @classmethod
    def from_edges(cls, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int) -> "EdgeMap":
        """The map of an edge list, in np.lexsort((cols, rows)) order."""
        keys = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64)
        rows, cols = np.divmod(np.sort(keys), n_cols)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n_rows))))
        return cls(rows, cols, n_rows, n_cols, indptr)

    def prefix(self, m: int) -> "EdgeMap":
        """The (m, n_cols) map of the first ``m`` rows: views of a prefix of this map's arrays."""
        if m == self.n_rows:
            return self
        e = self.indptr[m]
        return EdgeMap(self.rows[:e], self.cols[:e], m, self.n_cols, self.indptr[: m + 1])

    def matrix(self, values: np.ndarray) -> sp.csr_array:
        return sp.csr_array((values, self.cols, self.indptr), shape=(self.n_rows, self.n_cols))

    def matrix_t(self, values: np.ndarray) -> sp.csc_array:
        """``matrix(values).T``, built as one CSC array."""
        return sp.csc_array((values, self.cols, self.indptr), shape=(self.n_cols, self.n_rows))

    def product(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``matrix(values) @ x``, through the map's CSR container."""
        return _swapped_product(self._csr, values, x)

    def product_t(self, values: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``matrix_t(values) @ g``, through the map's CSC container."""
        return _swapped_product(self._csc, values, g)


def _swapped_product(mat, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` with ``values`` as the stored entries for this product only."""
    if values.shape != mat.indices.shape:
        # scipy's kernel would read past the end of a shorter array
        raise ValueError(f"edge values of shape {values.shape} for {mat.indices.shape[0]} edges")
    unset, mat.data = mat.data, values
    try:
        return mat @ x
    finally:
        mat.data = unset


EDGE_BLOCK = 1024  # edges per block in the edge_matmul value gradient


def edge_dots(g: np.ndarray, x: np.ndarray, emap: EdgeMap) -> np.ndarray:
    """Per-edge dot products g[rows[e]] . x[cols[e]], a block of edges at a time.

    Two reused block buffers replace the two E x d gathers a single einsum
    would need; each edge's dot product is computed exactly as it would be
    over the whole edge list.
    """
    n_edges = emap.rows.shape[0]
    d = g.shape[1]
    dots = np.empty(n_edges)
    g_blk = np.empty((min(EDGE_BLOCK, n_edges), d))
    x_blk = np.empty_like(g_blk)
    for s in range(0, n_edges, EDGE_BLOCK):
        e = min(s + EDGE_BLOCK, n_edges)
        gb, xb = g_blk[: e - s], x_blk[: e - s]
        # the indices are in range; under the default mode="raise" numpy
        # would gather into a temporary and copy it into ``out``
        np.take(g, emap.rows[s:e], axis=0, out=gb, mode="clip")
        np.take(x, emap.cols[s:e], axis=0, out=xb, mode="clip")
        np.einsum("ed,ed->e", gb, xb, out=dots[s:e])
    return dots


def edge_matmul(values: np.ndarray, x: np.ndarray, emap: EdgeMap) -> np.ndarray:
    """Weighted-adjacency product out[i] = sum_e values[e] * x[cols[e]]: ``emap.product``.

    ``values`` holds one weight per edge of ``emap``, in its row-major
    order. The gradients are ``edge_dots`` for the values and
    ``emap.product_t(values, g)`` for ``x``.
    """
    return emap.product(values, x)
