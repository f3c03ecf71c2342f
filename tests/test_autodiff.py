import ast
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from trustnet import autodiff as ad


def numeric_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of one array."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, tol=1e-6):
    """Compare tape gradients of a scalar-valued composite against FD."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) if s else rng.normal() for s in shapes]
    tensors = [ad.Tensor(a.copy()) for a in arrays]
    with ad.Tape() as tape:
        out = build(*tensors)
        tape.mark_output(out)
    grads = tape.gradients()
    for k, (arr, t) in enumerate(zip(arrays, tensors)):

        def f(x, k=k):
            vals = [a.copy() for a in arrays]
            vals[k] = x
            return float(build(*[ad.Tensor(v) for v in vals]).value)

        num = numeric_grad(f, arr.copy())
        analytic = grads.get(t, np.zeros_like(arr))
        assert np.allclose(analytic, num, rtol=tol, atol=tol), (
            f"operand {k}: max diff {np.max(np.abs(analytic - num))}"
        )


# ---------------------------------------------------------------------------
# test-side tape ops: the op chains that the fused records replace use them.
# Those with a kernel in ``autodiff`` look it up there when called, so a
# patched kernel moves the chain as it moves the fused record.


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    lead = g.ndim - len(shape)
    axes = (*range(lead), *(lead + i for i, k in enumerate(shape) if k == 1 < g.shape[lead + i]))
    return g.sum(axis=axes).reshape(shape) if axes else g


def _binary(forward, grad_a, grad_b):
    """An elementwise tape op on two broadcast operands; ``grad_*(g, a, b)`` give their gradients."""

    def op(a, b) -> ad.Tensor:
        a, b = ad.as_tensor(a), ad.as_tensor(b)
        out = ad.Tensor(forward(a.value, b.value), requires_grad=a.requires_grad or b.requires_grad)
        ad.record(forward.__name__, out, lambda g: [
            (t, _unbroadcast(grad(g, a.value, b.value), t.shape) if t.requires_grad else None)
            for t, grad in ((a, grad_a), (b, grad_b))
        ])
        return out

    return op


add = _binary(np.add, lambda g, a, b: g, lambda g, a, b: g)
sub = _binary(np.subtract, lambda g, a, b: g, lambda g, a, b: -g)
mul = _binary(np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a)
div = _binary(np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b))


def taped(name: str, value: np.ndarray, inputs, backward) -> ad.Tensor:
    """``value`` as one record ``name`` over ``inputs``; ``backward(g)`` lists their gradients in order."""
    out = ad.Tensor(value, requires_grad=any(t.requires_grad for t in inputs))
    ad.record(name, out, lambda g: zip(inputs, backward(g)))
    return out


def sigmoid(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    s = ad.logistic(a.value)
    return taped("sigmoid", s, [a], lambda g: [ad.sigmoid_grad(s, g)])


def row_block_matmul(a, split: int, w_top, w_bottom) -> ad.Tensor:
    inputs = [ad.as_tensor(t) for t in (a, w_top, w_bottom)]
    x, top, bottom = (t.value for t in inputs)
    halves = x[:split], x[split:]
    value = ad.row_block_product(*halves, top, bottom)
    return taped("row_block_matmul", value, inputs, lambda g: ad.row_block_grads(*halves, top, bottom, g))


def stack_halves(*vectors) -> ad.Tensor:
    vectors = [ad.as_tensor(v) for v in vectors]
    value = ad.stack_halves(*(v.value for v in vectors))
    return taped("stack_halves", value, vectors, lambda g: ad.stack_halves_grads(g))


def type_softmax(logit, mask: np.ndarray) -> ad.Tensor:
    logit = ad.as_tensor(logit)
    alpha = ad.type_softmax(logit.value, mask)
    return taped("type_softmax", alpha, [logit], lambda g: [ad.type_softmax_grads(alpha, g)])


def segment_softmax(a, rows: np.ndarray, indptr: np.ndarray) -> ad.Tensor:
    a = ad.as_tensor(a)
    beta = ad.segment_softmax(a.value, rows, indptr)
    n = indptr.shape[0] - 1
    return taped("segment_softmax", beta, [a], lambda g: [ad.segment_softmax_grad(beta, g, rows, n)])


def matmul(a, b) -> ad.Tensor:
    """``a @ b`` for a 2-D ``a`` and a 1-D or 2-D ``b``."""
    inputs = [ad.as_tensor(a), ad.as_tensor(b)]
    x, w = (t.value for t in inputs)
    return taped(
        "matmul", ad.matmul(x, w), inputs, lambda g: [np.outer(g, w) if w.ndim == 1 else g @ w.T, x.T @ g]
    )


def sparse_matmul(mat: sp.csr_matrix, x) -> ad.Tensor:
    """``mat @ x`` with a constant sparse matrix.

    The gradient ``mat.T @ g`` runs scipy's CSC kernel on the same arrays,
    which sums each output row in ascending source-row order, as a stored
    CSR transpose would.
    """
    x = ad.as_tensor(x)
    return taped("sparse_matmul", ad.sparse_matmul(mat, x.value), [x], lambda g: [mat.T @ g])


def gather(a, idx: np.ndarray) -> ad.Tensor:
    """Row gather a[idx]; the gradient scatter-adds ``g`` back, as ``np.add.at`` would."""
    a = ad.as_tensor(a)
    idx = np.asarray(idx)
    n = a.shape[0]

    def backward(g):
        if a.value.ndim == 1:
            return [ad.scatter_values(g, idx, n)]
        return [ad.scatter_matrices(n, idx)[0] @ g]

    return taped("gather", ad.gather(a.value, idx), [a], backward)


def edge_matmul(values, x, emap: ad.EdgeMap) -> ad.Tensor:
    """The weighted-adjacency product, with gradients into both the edge values and ``x``."""
    inputs = [ad.as_tensor(values), ad.as_tensor(x)]
    v, xv = (t.value for t in inputs)
    # this record's own values: another call may have used the map since
    return taped("edge_matmul", ad.edge_matmul(v, xv, emap), inputs,
                 lambda g: [ad.edge_dots(g, xv, emap), emap.product_t(v, g)])


def elu(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    slopes = ad.elu_slopes(a.value)
    return taped("elu", ad.elu(a.value, slopes), [a], lambda g: [g * slopes])


def exp(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out = ad.Tensor(np.exp(a.value), requires_grad=a.requires_grad)
    val = out.value
    ad.record("exp", out, lambda g: [(a, g * val)])
    return out


def log(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out = ad.Tensor(np.log(a.value), requires_grad=a.requires_grad)
    ad.record("log", out, lambda g: [(a, g / a.value)])
    return out


def mean(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    out = ad.Tensor(a.value.mean(), requires_grad=a.requires_grad)
    size = a.value.size
    ad.record("mean", out, lambda g: [(a, np.full(a.value.shape, float(g) / size))])
    return out


def gather_pairs(a, rows: np.ndarray, cols: np.ndarray) -> ad.Tensor:
    """Elementwise gather a[rows, cols] from a 2-D tensor."""
    a = ad.as_tensor(a)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    out = ad.Tensor(a.value[rows, cols], requires_grad=a.requires_grad)

    def backward(g):
        da = np.zeros_like(a.value)
        np.add.at(da, (rows, cols), g)
        return [(a, da)]

    ad.record("gather_pairs", out, backward)
    return out


def slice_rows(a, start: int, stop: int) -> ad.Tensor:
    """Contiguous row slice a[start:stop] (works on 1-D and 2-D tensors)."""
    a = ad.as_tensor(a)
    out = ad.Tensor(a.value[start:stop], requires_grad=a.requires_grad)

    def backward(g):
        full = np.zeros_like(a.value)
        full[start:stop] = g
        return [(a, full)]

    ad.record("slice_rows", out, backward)
    return out


def concat_rows(a, b) -> ad.Tensor:
    """[a; b]; the backward hands each input a view of its rows of the output gradient."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    out = ad.Tensor(
        np.concatenate([a.value, b.value], axis=0),
        requires_grad=a.requires_grad or b.requires_grad,
    )
    na = a.value.shape[0]

    def backward(g):
        return [
            (a, g[:na] if a.requires_grad else None),
            (b, g[na:] if b.requires_grad else None),
        ]

    ad.record("concat_rows", out, backward)
    return out


def column(a, k: int) -> ad.Tensor:
    """Column a[:, k] of a 2-D tensor, as a contiguous vector."""
    a = ad.as_tensor(a)
    out = ad.Tensor(np.ascontiguousarray(a.value[:, k]), requires_grad=a.requires_grad)

    def backward(g):
        full = np.zeros_like(a.value)
        full[:, k] = g
        return [(a, full)]

    ad.record("column", out, backward)
    return out


def test_add_broadcast_bias():
    check_op(lambda a, b: mean(mul(add(a, b), add(a, b))), (4, 3), (3,))


def test_sub_and_neg():
    check_op(lambda a, b: ad.reduce_sum(add(mul(sub(a, b), 2.0), sub(0.0, a))), (5,), (5,))


def test_mul_broadcast_vector():
    check_op(lambda a, b: mean(mul(a, b)), (4, 3), (3,))


def test_div():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 2))
    b = rng.normal(size=(3, 2)) + 3.0
    ta, tb = ad.Tensor(a.copy()), ad.Tensor(b.copy())
    with ad.Tape() as tape:
        out = mean(div(ta, tb))
        tape.mark_output(out)
    grads = tape.gradients()
    num_a = numeric_grad(lambda x: float(mean(div(ad.Tensor(x), ad.Tensor(b))).value), a)
    num_b = numeric_grad(lambda x: float(mean(div(ad.Tensor(a), ad.Tensor(x))).value), b)
    assert np.allclose(grads[ta], num_a, atol=1e-6)
    assert np.allclose(grads[tb], num_b, atol=1e-6)


def test_matmul_2d_2d():
    check_op(lambda a, b: mean(matmul(a, b)), (4, 3), (3, 2))


def test_matmul_2d_1d():
    check_op(lambda a, b: ad.reduce_sum(mul(exp(matmul(a, b)), 0.1)), (4, 3), (3,))


@pytest.mark.parametrize(
    "op",
    [exp, log, sigmoid, lambda t: ad.leaky_relu(t, 0.2), elu],
    ids=["exp", "log", "sigmoid", "leaky_relu", "elu"],
)
def test_unary_ops(op):
    rng = np.random.default_rng(3)
    # keep away from the log domain edge and activation kinks
    x = rng.uniform(0.5, 2.0, size=(6,)) * rng.choice([-1.0, 1.0], size=6)
    if op is log:
        x = np.abs(x)
    t = ad.Tensor(x.copy())
    with ad.Tape() as tape:
        out = mean(op(t))
        tape.mark_output(out)
    grads = tape.gradients()
    num = numeric_grad(lambda v: float(mean(op(ad.Tensor(v))).value), x)
    assert np.allclose(grads[t], num, atol=1e-6)


def test_reduce_sum_axis():
    check_op(lambda a: mean(exp(ad.reduce_sum(a, axis=1))), (3, 4))
    check_op(lambda a: mul(ad.reduce_sum(a), 0.5), (3, 4))


def test_slice_and_concat_rows():
    check_op(
        lambda a, b: mean(mul(concat_rows(slice_rows(a, 0, 2), b), 3.0)),
        (4, 3),
        (2, 3),
    )


def test_concat_cols():
    check_op(lambda a, b: mean(exp(ad.concat_cols(a, b))), (3, 2), (3, 4))


def test_gather_2d_repeated_rows():
    idx = np.array([0, 2, 2, 1, 0])
    check_op(lambda a: mean(mul(gather(a, idx), gather(a, idx))), (4, 3))


def test_gather_1d():
    idx = np.array([3, 3, 0, 1])
    check_op(lambda a: ad.reduce_sum(exp(gather(a, idx))), (5,))


def test_gather_pairs():
    rows = np.array([0, 1, 2, 2])
    cols = np.array([1, 0, 1, 0])
    check_op(lambda a: mean(mul(gather_pairs(a, rows, cols), 2.0)), (3, 2))


def segment_sum(a, segments: np.ndarray, num_segments: int) -> ad.Tensor:
    """Per-bucket sums of 1-D values, as a product with a 0/1 CSR matrix.

    Row r lists the positions k with ``segments[k] == r`` in ascending
    order, so each bucket adds its terms in the order ``np.bincount`` does.
    """
    order = np.argsort(segments, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(segments, minlength=num_segments))])
    members = sp.csr_matrix((np.ones(order.size), order, indptr), (num_segments, order.size))
    return sparse_matmul(members, a)


def test_segment_sum():
    seg = np.array([0, 0, 1, 3, 3, 3])
    check_op(lambda a: mean(exp(mul(segment_sum(a, seg, 4), 0.3))), (6,))


def test_sparse_matmul():
    rng = np.random.default_rng(7)
    dense = (rng.random((5, 5)) < 0.4) * rng.normal(size=(5, 5))
    mat = sp.csr_matrix(dense)
    check_op(lambda x: mean(mul(sparse_matmul(mat, x), 1.7)), (5, 3))


def test_stack_halves():
    check_op(
        lambda x, a, b, c: ad.reduce_sum(exp(mul(matmul(x, stack_halves(a, b, c)), 0.3))),
        (4, 3),
        (6,),
        (6,),
        (6,),
    )


def test_stack_halves_layout():
    v, w = np.arange(8.0), -np.arange(8.0)
    out = ad.stack_halves(v, w)
    assert np.array_equal(out, np.stack([v[:4], v[4:], w[:4], w[4:]], axis=1))


def test_column():
    check_op(lambda a: ad.reduce_sum(mul(exp(column(a, 1)), column(a, 3))), (5, 4))


def test_edge_matmul_grads_both_sides():
    rows = np.array([0, 0, 1, 2, 2, 2])
    cols = np.array([1, 2, 0, 0, 1, 2])
    emap = ad.EdgeMap.from_edges(rows, cols, 3, 3)
    check_op(lambda w, x: mean(mul(edge_matmul(w, x, emap), 0.9)), (6,), (3, 4))


def test_edge_map_sorts_and_permutes():
    rows = np.array([2, 0, 1, 0])
    cols = np.array([1, 2, 0, 1])
    emap = ad.EdgeMap.from_edges(rows, cols, 3, 3)
    order = np.lexsort((cols, rows))
    assert np.all(np.diff(emap.rows) >= 0)
    assert np.array_equal(emap.rows, rows[order])
    assert np.array_equal(emap.cols, cols[order])
    w = np.array([10.0, 20.0, 30.0, 40.0])
    dense = emap.matrix(w[order]).toarray()
    expected = np.zeros((3, 3))
    for r, c, v in zip(rows, cols, w):
        expected[r, c] += v
    assert np.array_equal(dense, expected)


@pytest.mark.parametrize("n_rows,n_cols,n_edges", [(1, 1, 4), (7, 3, 60), (50, 80, 400), (3, 2**20, 50)])
def test_edge_map_sorts_in_lexsort_order(n_rows, n_cols, n_edges):
    # the small patterns repeat pairs
    rng = np.random.default_rng(n_edges)
    rows, cols = rng.integers(n_rows, size=n_edges), rng.integers(n_cols, size=n_edges)
    emap = ad.EdgeMap.from_edges(rows, cols, n_rows, n_cols)
    order = np.lexsort((cols, rows))
    assert np.array_equal(emap.rows, rows[order]) and np.array_equal(emap.cols, cols[order])


def test_edge_map_matrix_shares_its_index_arrays():
    # the map's two containers are built this way: a converted copy of the
    # index arrays would hold every edge's column twice for the whole run
    emap = ad.EdgeMap.from_edges(np.array([2, 0, 1]), np.array([0, 1, 2]), 3, 3)
    mat = emap.matrix(np.ones(3))
    assert np.shares_memory(mat.indices, emap.cols)
    assert np.shares_memory(mat.indptr, emap.indptr)


@pytest.mark.parametrize("n_rows,n_cols,n_edges", [(4, 6, 0), (1, 1, 3), (7, 3, 60), (50, 80, 400)])
def test_edge_map_transpose_is_the_matrix_transpose_bitwise(n_rows, n_cols, n_edges):
    # the layer backward multiplies with matrix_t; it must run the kernel on
    # the arrays that matrix(v).T would hand it, and copy none of them
    rng = np.random.default_rng(n_edges)
    emap = ad.EdgeMap.from_edges(rng.integers(n_rows, size=n_edges), rng.integers(n_cols, size=n_edges),
                                 n_rows, n_cols)
    values = rng.normal(size=n_edges)
    mat_t = emap.matrix_t(values)
    assert mat_t.format == "csc" and mat_t.shape == (n_cols, n_rows)
    assert np.shares_memory(mat_t.indices, emap.cols) or n_edges == 0
    assert np.shares_memory(mat_t.indptr, emap.indptr)
    for g in (rng.normal(size=n_rows), rng.normal(size=(n_rows, 5))):
        want = emap.matrix(values).T @ g
        got = mat_t @ g
        assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n_rows,n_cols,n_edges", [(4, 6, 0), (1, 1, 3), (50, 80, 400)])
def test_edge_map_products_are_its_matrices_and_keep_no_values(n_rows, n_cols, n_edges):
    rng = np.random.default_rng(n_edges + 1)
    emap = ad.EdgeMap.from_edges(rng.integers(n_rows, size=n_edges), rng.integers(n_cols, size=n_edges),
                                 n_rows, n_cols)
    values = rng.normal(size=n_edges)
    kept = weakref.ref(values)
    for x, g in ((rng.normal(size=n_cols), rng.normal(size=n_rows)),
                 (rng.normal(size=(n_cols, 3)), rng.normal(size=(n_rows, 3)))):
        assert emap.product(values, x).tobytes() == (emap.matrix(values) @ x).tobytes()
        assert emap.product_t(values, g).tobytes() == (emap.matrix_t(values) @ g).tobytes()
    with pytest.raises(ValueError):
        emap.product(np.ones(n_edges + 1), x)
    # the containers hold a step's edge values only for its product
    del values
    assert kept() is None


def test_tape_reuse_raises():
    t = ad.Tensor(np.array(2.0))
    with ad.Tape() as tape:
        out = mul(t, t)
        tape.mark_output(out)
    tape.gradients()
    with pytest.raises(ad.TapeError):
        tape.gradients()


def test_tape_requires_scalar_output():
    t = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        out = mul(t, 2.0)
        with pytest.raises(ValueError):
            tape.mark_output(out)


def test_constants_receive_no_gradient():
    const = ad.Tensor(np.ones(3), requires_grad=False)
    var = ad.Tensor(np.ones(3))
    with ad.Tape() as tape:
        out = ad.reduce_sum(mul(const, var))
        tape.mark_output(out)
    grads = tape.gradients()
    assert const not in grads
    assert np.allclose(grads[var], 1.0)


def test_scalar_quadratic_gradient():
    w = ad.Tensor(np.array(3.0))
    with ad.Tape() as tape:
        loss = mul(w, w)
        tape.mark_output(loss)
    grads = tape.gradients()
    assert np.isclose(grads[w], 6.0)


def test_no_tape_means_plain_eval():
    a = ad.Tensor(np.ones((2, 2)))
    out = elu(matmul(a, a))
    assert isinstance(out, ad.Tensor)
    assert np.allclose(out.value, 2.0)


def test_fanout_accumulates():
    # same tensor consumed twice: d/dx (x*x + 3x) = 2x + 3
    x = ad.Tensor(np.array(4.0))
    with ad.Tape() as tape:
        out = add(mul(x, x), mul(3.0, x))
        tape.mark_output(out)
    grads = tape.gradients()
    assert np.isclose(grads[x], 11.0)


# ---------------------------------------------------------------------------
# exactness against the straightforward formulations


def oracle_edge_matmul_backward(values, x, emap, g):
    """Both edge_matmul gradients from two whole E x d gathers and a CSR product."""
    dvals = np.einsum("ed,ed->e", g[emap.rows], x[emap.cols])
    dx = emap.matrix(values).T.tocsr() @ g
    return dvals, dx


B = ad.EDGE_BLOCK


@pytest.mark.parametrize("n_edges", [0, 1, B - 1, B, B + 1, 3 * B + 7])
def test_edge_matmul_backward_matches_oracle_at_block_boundaries(n_edges):
    rng = np.random.default_rng(n_edges)
    n_rows, n_cols, d = 53, 41, 5
    emap = ad.EdgeMap.from_edges(
        rng.integers(n_rows, size=n_edges), rng.integers(n_cols, size=n_edges), n_rows, n_cols
    )
    values, x = rng.normal(size=n_edges), rng.normal(size=(n_cols, d))
    g = rng.normal(size=(n_rows, d))
    tv, tx = ad.Tensor(values.copy()), ad.Tensor(x.copy())
    with ad.Tape() as tape:
        # the upstream gradient of edge_matmul's output is exactly 1.0 * g
        out = ad.reduce_sum(mul(edge_matmul(tv, tx, emap), ad.Tensor(g, requires_grad=False)))
        tape.mark_output(out)
    grads = tape.gradients()
    dvals, dx = oracle_edge_matmul_backward(values, x, emap, g)
    assert np.array_equal(grads[tv], dvals)
    assert np.array_equal(grads[tx], dx)


def test_edge_matmul_records_on_one_map_keep_their_own_values():
    # the map multiplies through one container per direction; two records
    # made on it before one backward must each read their own edge values
    rng = np.random.default_rng(31)
    n_rows, n_cols, n_edges, d = 9, 7, 40, 3
    emap = ad.EdgeMap.from_edges(
        rng.integers(n_rows, size=n_edges), rng.integers(n_cols, size=n_edges), n_rows, n_cols
    )
    values = [rng.normal(size=n_edges) for _ in range(2)]
    xs = [rng.normal(size=(n_cols, d)) for _ in range(2)]
    gs = [rng.normal(size=(n_rows, d)) for _ in range(2)]
    tvs, txs = [ad.Tensor(v.copy()) for v in values], [ad.Tensor(x.copy()) for x in xs]
    with ad.Tape() as tape:
        outs = [edge_matmul(tv, tx, emap) for tv, tx in zip(tvs, txs)]
        weighted = [mul(out, ad.Tensor(g, requires_grad=False)) for out, g in zip(outs, gs)]
        tape.mark_output(add(ad.reduce_sum(weighted[0]), ad.reduce_sum(weighted[1])))
    grads = tape.gradients()
    for v, x, g, tv, tx, out in zip(values, xs, gs, tvs, txs, outs):
        dense = np.zeros((n_rows, n_cols))
        np.add.at(dense, (emap.rows, emap.cols), v)
        assert np.allclose(out.value, dense @ x, rtol=1e-13, atol=1e-13)
        assert np.allclose(grads[tx], dense.T @ g, rtol=1e-13, atol=1e-13)
        assert np.allclose(grads[tv], (g @ x.T)[emap.rows, emap.cols], rtol=1e-13, atol=1e-13)


def test_edge_matmul_backward_allocates_less_than_one_gather():
    # The value gradient must not materialise an E x d gather; a whole
    # g[rows] or x[cols] alone would be E * d * 8 bytes.
    rng = np.random.default_rng(0)
    n, n_edges, d = 2000, 50_000, 16
    emap = ad.EdgeMap.from_edges(
        rng.integers(n, size=n_edges), rng.integers(n, size=n_edges), n, n
    )
    w, x = ad.Tensor(rng.random(n_edges)), ad.Tensor(rng.normal(size=(n, d)))
    with ad.Tape() as tape:
        tape.mark_output(ad.reduce_sum(edge_matmul(w, x, emap)))
    tracemalloc.start()
    try:
        tape.gradients()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_edges * d * 8


def upstream_grad(build, leaf, g):
    """Gradient reaching ``leaf`` when ``build(leaf)``'s output receives exactly ``g``."""
    with ad.Tape() as tape:
        out = build(leaf)
        tape.mark_output(ad.reduce_sum(mul(out, ad.Tensor(g, requires_grad=False))))
    return tape.gradients()[leaf]


@pytest.mark.parametrize(
    "idx",
    [[3, 0, 3, 1, 3, 0], [5, 4, 3, 2, 1, 0, 0], [2, 2, 2, 2], []],
    ids=["repeated", "unsorted", "one_row", "empty"],
)
def test_gather_backward_matches_add_at_bitwise(idx):
    idx = np.array(idx, dtype=np.int64)
    rng = np.random.default_rng(idx.size)
    g = rng.normal(size=(idx.size, 4)) * 10.0 ** rng.integers(-12, 12, size=(idx.size, 1))
    g[::2, 1] = -0.0  # a sum of -0.0 contributions alone reads +0.0, as with add.at
    a = ad.Tensor(rng.normal(size=(7, 4)))
    want = np.zeros((7, 4))
    np.add.at(want, idx, g)
    got = upstream_grad(lambda t: gather(t, idx), a, g)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", [(9,), (9, 4)], ids=["1d", "2d"])
def test_gather_int32_indices_match_int64_bitwise(shape):
    # gather indexes with the caller's array as given, whatever its integer dtype
    rng = np.random.default_rng(len(shape))
    idx = rng.integers(shape[0], size=40).astype(np.int32)
    g = rng.normal(size=(idx.size, *shape[1:])) * 10.0 ** rng.integers(-9, 9, size=idx.size).reshape(
        -1, *[1] * (len(shape) - 1)
    )
    a = ad.Tensor(rng.normal(size=shape))
    results = []
    for index in (idx, idx.astype(np.int64)):
        out = gather(a, index).value
        results.append((out, upstream_grad(lambda t: gather(t, index), a, g)))
    (out32, grad32), (out64, grad64) = results
    assert np.array_equal(out32.view(np.int64), out64.view(np.int64))
    assert np.array_equal(grad32.view(np.int64), grad64.view(np.int64))


def test_sparse_matmul_backward_matches_stored_transpose_bitwise():
    rng = np.random.default_rng(3)
    n_rows, n_cols = 60, 45
    dense = (rng.random((n_rows, n_cols)) < 0.2) * rng.normal(size=(n_rows, n_cols))
    mat = sp.csr_matrix(dense * 10.0 ** rng.integers(-8, 8, size=(n_rows, n_cols)))
    x = ad.Tensor(rng.normal(size=(n_cols, 6)))
    g = rng.normal(size=(n_rows, 6))
    got = upstream_grad(lambda t: sparse_matmul(mat, t), x, g)
    want = mat.T.tocsr() @ g
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sparse_matmul_vector_operand_bitwise():
    rng = np.random.default_rng(4)
    n_rows, n_cols = 60, 45
    dense = (rng.random((n_rows, n_cols)) < 0.2) * rng.normal(size=(n_rows, n_cols))
    mat = sp.csr_matrix(dense * 10.0 ** rng.integers(-8, 8, size=(n_rows, n_cols)))
    x = ad.Tensor(rng.normal(size=n_cols))
    g = rng.normal(size=n_rows)
    out = sparse_matmul(mat, x).value
    assert out.shape == (n_rows,)
    assert np.array_equal(out.view(np.int64), (mat @ x.value).view(np.int64))
    got = upstream_grad(lambda t: sparse_matmul(mat, t), x, g)
    assert got.shape == (n_cols,)
    assert np.array_equal(got.view(np.int64), (mat.T @ g).view(np.int64))


def oracle_elu(x):
    """ELU value and derivative with alpha = 1, as two np.where selections."""
    ex = np.exp(np.minimum(x, 0.0))
    return np.where(x >= 0, x, 1.0 * (ex - 1.0)), np.where(x >= 0, 1.0, 1.0 * ex)


def test_elu_matches_where_formula_bitwise():
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -800.0, 800.0, np.inf, -np.inf, np.nan]
    x = np.concatenate([special, np.random.default_rng(11).normal(size=500)])
    t = ad.Tensor(x.copy())
    with ad.Tape() as tape:
        out = elu(t)
        tape.mark_output(ad.reduce_sum(out))
    deriv = tape.gradients()[t]  # upstream gradient is all ones
    want_value, want_deriv = oracle_elu(x)
    assert np.array_equal(out.value.view(np.int64), want_value.view(np.int64))
    assert np.array_equal(deriv.view(np.int64), want_deriv.view(np.int64))
    assert np.signbit(out.value[1])  # elu(-0.0) stays -0.0


def masked_logistic(x):
    """The sigmoid with exp taken on each half-line separately, through boolean masks."""
    s = np.empty_like(x)
    pos = x >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


def test_logistic_matches_masked_formula_bitwise():
    rng = np.random.default_rng(15)
    special = [0.0, -0.0, 5e-324, -5e-324, 800.0, -800.0, np.inf, -np.inf]
    scaled = [rng.normal(size=2000) * scale for scale in (1e-8, 1e-3, 1.0, 30.0, 800.0)]
    x = np.concatenate([special, *scaled])
    want = masked_logistic(x).view(np.int64)
    assert np.array_equal(ad.logistic(x).view(np.int64), want)
    assert np.array_equal(sigmoid(ad.Tensor(x)).value.view(np.int64), want)
    assert np.isnan(ad.logistic(np.array([np.nan]))).all()


REPO = Path(__file__).resolve().parents[1]


def autodiff_uses(path: Path) -> set[str]:
    """Names a module takes from ``autodiff``: ``ad.X``, ``autodiff.X`` or imported by name."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in ("ad", "autodiff"):
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "autodiff":
            used.update(alias.name for alias in node.names)
    return used


def names_used_inside(path: Path) -> set[str]:
    """Names a module reads outside the definition that binds them."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        used.update(
            node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and node.id != own
        )
    return used


def test_every_export_has_a_caller():
    # library code holds only what the pipeline calls: a name that only the
    # tests use belongs in the tests
    modules = sorted((REPO / "src" / "trustnet").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
    called = names_used_inside(REPO / "src" / "trustnet" / "autodiff.py")
    for path in modules:
        called |= autodiff_uses(path)
    assert sorted(set(ad.__all__) - called) == []


def defaulted_parameters(path: Path) -> list[tuple[str, str, int | None]]:
    """(called name, parameter, position) of each defaulted parameter a module defines.

    A method's position skips ``self``/``cls``; a keyword-only parameter has none.
    A class is called by its own name, so its ``__init__`` is listed under it.
    """
    tree = ast.parse(path.read_text())
    owner = {
        id(item): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for item in cls.body if isinstance(item, ast.FunctionDef)
    }
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        bound = int(id(fn) in owner and not static)
        name = owner[id(fn)] if fn.name == "__init__" and id(fn) in owner else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found += [(name, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
        found += [(name, a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return found


def parameters_set(path: Path) -> set[tuple]:
    """(called name, keyword or position) of every argument a module's calls pass.

    Calls match by the called name: ``f(...)``, ``x.f(...)``. A ``*args`` call may fill
    every position from where it stands, and a ``**kwargs`` call any keyword, so both
    count as setting them ("*" and "**" below).
    """
    given = set()
    for call in ast.walk(ast.parse(path.read_text())):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        for i, arg in enumerate(call.args):
            given.add((name, ("*", i) if isinstance(arg, ast.Starred) else i))
        given.update((name, kw.arg or "**") for kw in call.keywords)
    return given


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    # a default that no call overrides is a constant in disguise: it belongs
    # at the one place it is read
    src = sorted((REPO / "src" / "trustnet").glob("*.py"))
    calls = set()
    for path in [*src, *(REPO / "tests").glob("*.py"), *(REPO / "bench").glob("*.py")]:
        calls |= parameters_set(path)

    def is_set(name, param, pos):
        if (name, param) in calls or (name, "**") in calls:
            return True
        return pos is not None and any((name, at) in calls for at in (pos, *(("*", i) for i in range(pos + 1))))

    unset = [
        f"{path.stem}.{name}({param})"
        for path in src
        for name, param, pos in defaulted_parameters(path)
        if not is_set(name, param, pos)
    ]
    assert unset == []


# ---------------------------------------------------------------------------
# gradient accumulation on the tape


def oracle_gradients(tape):
    """Replays a tape's records, summing every contribution into a new array."""
    grads = {tape._output: np.ones_like(tape._output.value)}
    for out, backward, _fresh in reversed(tape._records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, contrib in backward(g):
            if contrib is None or not t.requires_grad:
                continue
            prev = grads.get(t)
            grads[t] = contrib if prev is None else prev + contrib
    return grads


def tape_and_oracle(build, leaves):
    """Gradients of ``build(*leaves)`` from Tape.gradients and from the replay oracle."""
    result = []
    for replay in (lambda tape: tape.gradients(), oracle_gradients):
        with ad.Tape() as tape:
            tape.mark_output(build(*leaves))
        result.append(replay(tape))
    return result


def test_shared_contribution_is_not_mutated():
    # add hands one g to both operands; a then takes two more contributions,
    # and b's gradient must stay exactly what add gave it
    rng = np.random.default_rng(12)
    a, b = ad.Tensor(rng.normal(size=(4, 3))), ad.Tensor(rng.normal(size=(4, 3)))
    w = rng.normal(size=(4, 3))

    def build(a, b):
        u = mul(a, 2.0)
        v = exp(a)
        c = add(a, b)
        return add(ad.reduce_sum(mul(c, ad.Tensor(w, requires_grad=False))), ad.reduce_sum(add(u, v)))

    grads, want = tape_and_oracle(build, (a, b))
    assert np.array_equal(grads[b], w)
    assert np.array_equal(grads[a], want[a])
    assert np.array_equal(grads[b], want[b])


def test_scalar_fanout_accumulates_every_contribution():
    x = ad.Tensor(np.array(0.7))
    grads, want = tape_and_oracle(lambda x: add(add(add(mul(x, x), mul(3.0, x)), exp(x)), sub(0.0, x)), (x,))
    assert np.array_equal(grads[x], want[x])
    assert np.isclose(grads[x], 2 * 0.7 + 3.0 + np.exp(0.7) - 1.0)


def recorded(contributions, fresh: bool) -> ad.Tensor:
    """A 0-d output whose one record hands on the given (tensor, array) pairs."""
    out = ad.Tensor(np.array(1.0))
    ad.record("probe", out, lambda g: list(contributions), fresh=fresh)
    return out


def test_fresh_contributions_are_summed_in_place():
    # the layer's d_h and d_x: h's gradient is d_h itself, d_x is added into
    # it, and the summation allocates no third array
    rng = np.random.default_rng(28)
    h = ad.Tensor(rng.normal(size=(400, 100)))
    d_h, d_x = rng.normal(size=(2, 400, 100))
    want, kept = d_h + d_x, d_x.copy()
    with ad.Tape() as tape:
        tape.mark_output(recorded([(h, d_h), (h, d_x)], fresh=True))
    tracemalloc.start()
    try:
        grads = tape.gradients()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads[h] is d_h and np.array_equal(grads[h], want)
    assert np.array_equal(d_x, kept)
    assert peak < d_h.nbytes // 10


def test_contributions_not_declared_fresh_are_never_mutated():
    rng = np.random.default_rng(29)
    h = ad.Tensor(rng.normal(size=(6, 3)))
    d_h, d_x = rng.normal(size=(2, 6, 3))
    kept = d_h.copy(), d_x.copy()
    with ad.Tape() as tape:
        tape.mark_output(recorded([(h, d_h), (h, d_x)], fresh=False))
    grads = tape.gradients()
    assert grads[h] is not d_h and np.array_equal(grads[h], kept[0] + kept[1])
    assert np.array_equal(d_h, kept[0]) and np.array_equal(d_x, kept[1])


@pytest.mark.parametrize("shared_replayed", ["first", "last"])
def test_fresh_records_and_a_shared_contribution(shared_replayed):
    # two fresh records and one that is not give h's gradient the oracle's
    # sum in replay order, and the shared contribution stays as it was
    rng = np.random.default_rng(30)
    h = ad.Tensor(rng.normal(size=(6, 3)))
    arrays = rng.normal(size=(3, 6, 3))

    def build(shared, first, second):
        # records replay last-made first
        if shared_replayed == "last":
            plain = recorded([(h, shared)], fresh=False)
        fresh = add(recorded([(h, first)], fresh=True), recorded([(h, second)], fresh=True))
        if shared_replayed == "first":
            plain = recorded([(h, shared)], fresh=False)
        return add(fresh, plain)

    shared = arrays[0].copy()
    with ad.Tape() as tape:
        tape.mark_output(build(shared, arrays[1].copy(), arrays[2].copy()))
    grads = tape.gradients()
    with ad.Tape() as tape:
        tape.mark_output(build(*(a.copy() for a in arrays)))
    want = oracle_gradients(tape)
    assert np.array_equal(grads[h], want[h])
    assert np.array_equal(shared, arrays[0])


def test_record_counts_per_name_after_replay():
    x = ad.Tensor(np.arange(6.0))
    with ad.Tape() as tape:
        tape.mark_output(ad.reduce_sum(add(mul(exp(x), x), mul(x, x))))
    before = tape.record_counts
    tape.gradients()
    assert before == tape.record_counts == {"exp": 1, "multiply": 2, "add": 1, "reduce_sum": 1}
    assert tape.num_records == 5


def fresh_mul(a, b) -> ad.Tensor:
    """``mul`` of two same-shape tensors as a record whose gradients are declared fresh."""
    out = ad.Tensor(a.value * b.value, requires_grad=a.requires_grad or b.requires_grad)
    ad.record("fresh_mul", out, lambda g: [(a, g * b.value), (b, g * a.value)], fresh=True)
    return out


UNARY = {
    "neg": lambda t: sub(0.0, t),
    "sigmoid": sigmoid,
    "elu": elu,
    "leaky_relu": lambda t: ad.leaky_relu(t, 0.2),
    "gather": lambda t: gather(t, np.array([0, 2, 2, 1])),
}
BINARY = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "splice": lambda p, q: concat_rows(slice_rows(p, 0, 2), slice_rows(q, 2, 4)),
    "fresh_mul": fresh_mul,
}


@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(
        st.tuples(
            st.sampled_from(sorted(UNARY) + sorted(BINARY) + ["bias", "scale"]),
            st.integers(0, 63),
            st.integers(0, 63),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_random_composites_match_replay_oracle(seed, steps):
    rng = np.random.default_rng(seed)
    leaves = (
        ad.Tensor(rng.normal(size=(4, 3))),
        ad.Tensor(rng.normal(size=(4, 3))),
        ad.Tensor(rng.normal(size=(3,))),  # broadcast bias
        ad.Tensor(rng.normal()),  # 0-d scale
    )

    def build(a, b, bias, scale):
        pool = [a, b]
        for op, i, j in steps:
            p, q = pool[i % len(pool)], pool[j % len(pool)]
            if op == "bias":
                pool.append(add(p, bias))
            elif op == "scale":
                pool.append(mul(sigmoid(p), scale))
            elif op in UNARY:
                pool.append(UNARY[op](p))
            else:
                pool.append(BINARY[op](p, q))
        total = pool[0]
        for t in pool[1:]:
            total = add(total, t)
        return ad.reduce_sum(total)

    grads, want = tape_and_oracle(build, leaves)
    assert grads.keys() == want.keys()
    for t in want:
        assert np.array_equal(grads[t], want[t])


# ---------------------------------------------------------------------------
# fused attention ops against finite differences and the op chains they replace


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


# the users' type of nodes 0-3, then the objects': node 0 has both types, node 1
# only users, node 2 only objects
TYPE_MASK = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0])
# rows of a CSR edge list: node 1 and node 3 have a single edge each
SEG_ROWS = np.array([0, 0, 0, 1, 2, 2, 3])
SEG_INDPTR = np.array([0, 3, 4, 6, 7])


def test_type_softmax_gradient():
    w = ad.Tensor(np.random.default_rng(21).normal(size=8), requires_grad=False)
    check_op(lambda logit: ad.reduce_sum(mul(type_softmax(logit, TYPE_MASK), w)), (8,))


def test_segment_softmax_gradient():
    w = ad.Tensor(np.random.default_rng(22).normal(size=7), requires_grad=False)
    check_op(lambda x: ad.reduce_sum(mul(segment_softmax(x, SEG_ROWS, SEG_INDPTR), w)), (7,))


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("split", [0, 2, 5])
def test_row_block_matmul_gradient(d, split):
    check_op(
        lambda a, wt, wb: mean(exp(mul(row_block_matmul(a, split, wt, wb), 0.5))),
        (5, d),
        (d, 3),
        (d, 3),
    )


def chain_type_softmax(logit_u, logit_o, mask_u, mask_o):
    """The generic op chain ``type_softmax`` replaces: shift, masked exp, divide."""
    shift = np.maximum(
        np.where(mask_u > 0, logit_u.value, -np.inf),
        np.where(mask_o > 0, logit_o.value, -np.inf),
    )
    exp_u = mul(exp(mul(sub(logit_u, shift), mask_u)), mask_u)
    exp_o = mul(exp(mul(sub(logit_o, shift), mask_o)), mask_o)
    denom = add(exp_u, exp_o)
    return div(exp_u, denom), div(exp_o, denom)


def chain_segment_softmax(x, rows, indptr):
    """The generic op chain ``segment_softmax`` replaces."""
    n = indptr.shape[0] - 1
    ex = exp(sub(x, np.maximum.reduceat(x.value, indptr[:-1])[rows]))
    return div(ex, gather(segment_sum(ex, rows, n), rows))


def fused_and_chain(fused, chain, leaves, g):
    """Output and leaf gradients of ``fused(*leaves)`` and ``chain(*leaves)`` under ``g``."""
    result = []
    for build in (fused, chain):
        with ad.Tape() as tape:
            out = build(*leaves)
            tape.mark_output(ad.reduce_sum(mul(out, ad.Tensor(g, requires_grad=False))))
        grads = tape.gradients()
        result.append((out.value, [grads[t] for t in leaves]))
    return result


def assert_close_grads(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def random_types(rng, n):
    mask_u = (rng.random(n) < 0.7).astype(np.float64)
    mask_o = np.where(mask_u > 0, (rng.random(n) < 0.5), 1.0).astype(np.float64)
    return mask_u, mask_o


def test_type_softmax_forward_is_the_chain_bitwise():
    rng = np.random.default_rng(23)
    n = 300
    mask_u, mask_o = random_types(rng, n)
    assert {(1, 0), (0, 1), (1, 1)} <= set(zip(mask_u.astype(int), mask_o.astype(int)))
    leaves = [ad.Tensor(rng.normal(size=n) * 5.0), ad.Tensor(rng.normal(size=n) * 5.0)]
    (got, got_g), (want, want_g) = fused_and_chain(
        lambda lu, lo: type_softmax(concat_rows(lu, lo), np.concatenate([mask_u, mask_o])),
        lambda lu, lo: concat_rows(*chain_type_softmax(lu, lo, mask_u, mask_o)),
        leaves,
        rng.normal(size=2 * n),
    )
    assert np.array_equal(bits(got), bits(want))
    assert_close_grads(got_g, want_g)


def test_typed_gather_is_the_masked_pair_of_gathers_bitwise():
    # one gather at rows + n * [col is object] reads the same weight as the
    # two 0/1-masked gathers it replaces
    rng = np.random.default_rng(24)
    n, n_edges = 40, 400
    rows = np.sort(rng.integers(n, size=n_edges))
    is_user_col = (rng.random(n_edges) < 0.5).astype(np.float64)
    typed_rows = rows + n * (is_user_col == 0)
    mask_u, mask_o = random_types(rng, n)
    alpha_u, alpha_o = chain_type_softmax(
        ad.Tensor(rng.normal(size=n)), ad.Tensor(rng.normal(size=n)), mask_u, mask_o
    )
    want = add(mul(gather(alpha_u, rows), is_user_col), mul(gather(alpha_o, rows), 1.0 - is_user_col))
    got = gather(concat_rows(alpha_u, alpha_o), typed_rows)
    assert np.array_equal(bits(got.value), bits(want.value))


def test_segment_softmax_forward_is_the_chain_bitwise():
    rng = np.random.default_rng(25)
    n = 200
    counts = rng.integers(1, 6, size=n)
    counts[:20] = 1  # single-edge segments
    rows = np.repeat(np.arange(n), counts)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    leaves = [ad.Tensor(rng.normal(size=rows.size) * 3.0)]
    (got, got_g), (want, want_g) = fused_and_chain(
        lambda x: segment_softmax(x, rows, indptr),
        lambda x: chain_segment_softmax(x, rows, indptr),
        leaves,
        rng.normal(size=rows.size),
    )
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(got[np.cumsum(counts)[:20] - 1], np.ones(20))
    assert_close_grads(got_g, want_g)


@pytest.mark.parametrize("d", [1, 4])
def test_row_block_matmul_is_the_slice_chain_bitwise(d):
    rng = np.random.default_rng(d)
    n, split = 57, 23
    leaves = [ad.Tensor(rng.normal(size=(n, d))), ad.Tensor(rng.normal(size=(d, d))),
              ad.Tensor(rng.normal(size=(d, d)))]
    (got, got_g), (want, want_g) = fused_and_chain(
        lambda a, wt, wb: row_block_matmul(a, split, wt, wb),
        lambda a, wt, wb: concat_rows(
            matmul(slice_rows(a, 0, split), wt), matmul(slice_rows(a, split, n), wb)
        ),
        leaves,
        rng.normal(size=(n, d)),
    )
    assert np.array_equal(bits(got), bits(want))
    for a, b in zip(got_g, want_g):
        assert np.array_equal(bits(a), bits(b))


# ---------------------------------------------------------------------------
# the tape releases what it has replayed


def test_replay_frees_an_intermediate_once_past_it():
    x = ad.Tensor(np.random.default_rng(26).normal(size=(50, 4)))
    freed = []

    def probe_backward(g):
        # runs after the records of everything computed from ``probe``
        freed.append(ref() is None)
        return [(x, g)]

    with ad.Tape() as tape:
        probe = ad.Tensor(x.value)
        ad.record("probe", probe, probe_backward)
        mid = exp(probe)  # also captured by the closure of the mul below
        ref = weakref.ref(mid.value)
        tape.mark_output(ad.reduce_sum(mul(mid, 2.0)))
        del mid
    assert ref() is not None  # the unreplayed tape holds it
    grads = tape.gradients()
    assert freed == [True]
    assert np.array_equal(grads[x], np.exp(x.value) * 2.0)


def test_num_records_counts_what_was_recorded_after_replay():
    x = ad.Tensor(np.arange(6.0))
    with ad.Tape() as tape:
        tape.mark_output(ad.reduce_sum(add(mul(exp(x), x), x)))
    before = tape.num_records
    tape.gradients()
    assert before == tape.num_records == 4
