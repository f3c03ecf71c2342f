import numpy as np
import pytest

from trustnet import autodiff as ad
from trustnet.autodiff import Tensor
from trustnet.errors import DataError
from trustnet.predict import (
    PredictorParams,
    metrics,
    pair_loss,
    pair_scatter,
    predict_scores,
)

from test_autodiff import add, exp, gather, gather_pairs, log, matmul, mean, sub


def chain_pair_loss(z, trustors, trustees, labels, params: PredictorParams) -> Tensor:
    """``pair_loss`` as a chain of 13 tape ops, each with its own record.

    The production loss computes the same values and replays this chain's
    gradient arithmetic in one record, so its loss and gradients must be
    bitwise equal to this chain's.
    """
    m = len(labels)
    zi = gather(z, np.asarray(trustors))
    zj = gather(z, np.asarray(trustees))
    logits = add(matmul(ad.concat_cols(zi, zj), params.weight), params.bias)
    shift = logits.value.max(axis=1)
    ex = exp(sub(logits, shift[:, None]))
    lse = log(ad.reduce_sum(ex, axis=1))  # = logsumexp(logits) - shift
    picked = gather_pairs(logits, np.arange(m), np.asarray(labels))
    return mean(sub(lse, sub(picked, shift)))


def predict_pair(z_i, z_j, params: PredictorParams) -> np.ndarray:
    """Probability pair (no-trust, trust) for the ordered pair (i, j): the head's oracle.

    ``z_i`` and ``z_j`` are one embedding each, or one row per pair.
    """
    logits = np.concatenate([z_i, z_j], axis=-1) @ params.weight.value + params.bias.value
    ex = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return ex / ex.sum(axis=-1, keepdims=True)


def batch_loss(samples, z: np.ndarray, params: PredictorParams) -> float:
    """Mean cross-entropy of the predictor over (trustor, trustee, label) arrays (oracle for pair_loss)."""
    i, j, y = (np.asarray(a, dtype=np.int64) for a in samples)
    if len(y) == 0:
        raise DataError("batch_loss needs at least one sample")
    probs = predict_pair(z[i], z[j], params)
    picked = probs[np.arange(len(y)), y]
    return float(-np.mean(np.log(picked)))


def make_params(zdim, rng=None, zero=False):
    if zero:
        w = np.zeros((2 * zdim, 2))
        b = np.zeros(2)
    else:
        w = rng.normal(size=(2 * zdim, 2))
        b = rng.normal(size=2)
    return PredictorParams(weight=Tensor(w), bias=Tensor(b))


class TestPredictPair:
    def test_zero_params_give_uniform(self):
        params = make_params(3, zero=True)
        probs = predict_pair(np.ones(3), -np.ones(3), params)
        assert np.allclose(probs, [0.5, 0.5])

    def test_order_matters(self):
        rng = np.random.default_rng(0)
        params = make_params(3, rng)
        z_i, z_j = rng.normal(size=3), rng.normal(size=3)
        ab = predict_pair(z_i, z_j, params)
        ba = predict_pair(z_j, z_i, params)
        assert not np.allclose(ab, ba)

    def test_matches_affine_softmax_oracle(self):
        rng = np.random.default_rng(1)
        params = make_params(4, rng)
        z_i, z_j = rng.normal(size=4), rng.normal(size=4)
        probs = predict_pair(z_i, z_j, params)
        logits = np.concatenate([z_i, z_j]) @ params.weight.value + params.bias.value
        ex = np.exp(logits)
        assert np.allclose(probs, ex / ex.sum(), atol=1e-9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probs >= 0)

    def test_distribution_property_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            params = make_params(d, rng)
            probs = predict_pair(rng.normal(size=d), rng.normal(size=d), params)
            assert abs(probs.sum() - 1.0) < 1e-9
            assert np.all(probs > 0)


class TestBatchLoss:
    def test_perfect_predictions_zero_loss(self):
        # huge margin between classes drives the loss to ~0
        params = PredictorParams(
            weight=Tensor(np.array([[100.0, -100.0], [-100.0, 100.0]])),
            bias=Tensor(np.zeros(2)),
        )
        z = np.array([[1.0], [-1.0]])
        samples = ([0, 1], [1, 0], [0, 1])
        # pair (0,1): cat=[1,-1] -> logits [200,-200] -> class 0
        assert batch_loss(samples, z, params) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_predictions_ln2(self):
        params = make_params(2, zero=True)
        z = np.random.default_rng(3).normal(size=(4, 2))
        samples = ([0, 2], [1, 3], [1, 0])
        assert batch_loss(samples, z, params) == pytest.approx(np.log(2.0))

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(4)
        params = make_params(3, rng)
        z = rng.normal(size=(6, 3))
        i, j, y = rng.integers(6, size=8), rng.integers(6, size=8), rng.integers(2, size=8)
        distinct = i != j
        samples = (i[distinct], j[distinct], y[distinct])
        got = batch_loss(samples, z, params)
        total = 0.0
        for a, b, label in zip(*samples):
            probs = predict_pair(z[a], z[b], params)
            total += -np.log(probs[label])
        assert got == pytest.approx(total / len(samples[2]), abs=1e-12)

    def test_empty_batch_rejected(self):
        params = make_params(2, zero=True)
        with pytest.raises(DataError):
            batch_loss(([], [], []), np.zeros((2, 2)), params)


class TestPairLossTensor:
    def test_agrees_with_batch_loss(self):
        rng = np.random.default_rng(5)
        params = make_params(3, rng)
        z = rng.normal(size=(5, 3))
        samples = ([0, 2, 4], [1, 3, 0], [1, 0, 1])
        loss_t = pair_loss(Tensor(z, requires_grad=False), *samples, params)
        assert loss_t.item() == pytest.approx(batch_loss(samples, z, params), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        params = make_params(2, rng)
        z0 = rng.normal(size=(4, 2))
        i, j, y = [0, 2, 1], [1, 3, 0], [1, 0, 1]

        def loss_of(zv):
            return pair_loss(Tensor(zv, requires_grad=False), i, j, y, params).item()

        z = Tensor(z0.copy())
        with ad.Tape() as tape:
            out = pair_loss(z, i, j, y, params)
            tape.mark_output(out)
        grads = tape.gradients()
        h = 1e-6
        num = np.zeros_like(z0)
        for a in range(z0.shape[0]):
            for b in range(z0.shape[1]):
                zp, zm = z0.copy(), z0.copy()
                zp[a, b] += h
                zm[a, b] -= h
                num[a, b] = (loss_of(zp) - loss_of(zm)) / (2 * h)
        assert np.allclose(grads[z], num, atol=1e-6)


def frozen(t: Tensor) -> Tensor:
    return Tensor(t.value, requires_grad=False)


# which of z, W and b take gradients
TRAINABLE = {
    "all": lambda z, p: (z, p),
    "frozen_z": lambda z, p: (frozen(z), p),
    "only_z": lambda z, p: (z, PredictorParams(frozen(p.weight), frozen(p.bias))),
    "only_bias": lambda z, p: (frozen(z), PredictorParams(frozen(p.weight), p.bias)),
}


def loss_grads(loss_fn, z, i, j, y, params):
    with ad.Tape() as tape:
        out = loss_fn(z, i, j, y, params)
        tape.mark_output(out)
    grads = tape.gradients()
    return out.value, [grads.get(t) for t in (z, params.weight, params.bias)]


class TestPairLossMatchesChainBitwise:
    @staticmethod
    def both(n, d, m, trainable):
        """Loss and gradients of the fused loss and of the chain on one random case."""
        rng = np.random.default_rng([n, d, m])
        z, params = TRAINABLE[trainable](Tensor(rng.normal(size=(n, d))), make_params(d, rng))
        # repeated rows, ids at both ends, and both labels
        i, j = rng.integers(n, size=m), rng.integers(n, size=m)
        i[0], j[-1] = n - 1, 0
        y = rng.integers(2, size=m)
        return (loss_grads(f, z, i, j, y, params) for f in (pair_loss, chain_pair_loss))

    @pytest.mark.parametrize("trainable", sorted(TRAINABLE))
    @pytest.mark.parametrize(
        "n, d, m", [(2, 2, 1), (5, 3, 7), (40, 16, 300), (15000, 32, 20000)]
    )
    def test_loss_and_gradients_equal(self, n, d, m, trainable):
        (got, got_grads), (want, want_grads) = self.both(n, d, m, trainable)
        assert got.tobytes() == want.tobytes()
        for g, w in zip(got_grads, want_grads):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("m", [1, 7, 300])
    def test_one_dimensional_embeddings_round_alike(self, m):
        # at d = 1 numpy multiplies each one-row half of W by a matrix-vector
        # product, which may round otherwise than the chain's matrix product
        (got, got_grads), (want, want_grads) = self.both(5, 1, m, "all")
        assert got.tobytes() == want.tobytes()
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape and np.abs(g - w).max() <= 1e-12 * np.abs(w).max()

    def test_records_once(self):
        rng = np.random.default_rng(0)
        with ad.Tape() as tape:
            pair_loss(Tensor(rng.normal(size=(4, 2))), [0, 1], [2, 3], [1, 0], make_params(2, rng))
        assert tape.num_records == 1


class TestPairLossWithPrebuiltScatter:
    @staticmethod
    def case(n, d, m):
        """A random case whose ids repeat and leave the upper half of the users in no pair."""
        rng = np.random.default_rng([n, d, m, 3])
        z, params = Tensor(rng.normal(size=(n, d))), make_params(d, rng)
        i, j = rng.integers(n // 2, size=m), rng.integers(n // 2, size=m)
        i[0], j[-1] = n // 2 - 1, 0
        return z, params, i, j, rng.integers(2, size=m)

    @pytest.mark.parametrize("n, d, m", [(4, 2, 5), (40, 16, 300), (3000, 8, 5000)])
    def test_same_bits_as_the_plain_arrays_and_add_at(self, n, d, m):
        z, params, i, j, y = self.case(n, d, m)
        scatter = pair_scatter(n, i, j, y)

        def prebuilt(z, i, j, y, params):
            return pair_loss(z, i, j, y, params, scatter)

        got, got_grads = loss_grads(prebuilt, z, i, j, y, params)
        want, want_grads = loss_grads(pair_loss, z, i, j, y, params)
        assert got.tobytes() == want.tobytes()
        for g, w in zip(got_grads, want_grads):
            assert g.shape == w.shape and np.array_equal(g, w)

        # each matrix sums rows exactly as np.add.at does
        rows = np.random.default_rng(m).normal(size=(m, d))
        for matrix, ids in ((scatter.by_trustor, i), (scatter.by_trustee, j)):
            oracle = np.zeros((n, d))
            np.add.at(oracle, ids, rows)
            assert np.array_equal(matrix @ rows, oracle)

        # the gradients from softmax minus one-hot, scattered by np.add.at
        zv, wv, bv = z.value, params.weight.value, params.bias.value
        logits = np.concatenate([zv[i], zv[j]], axis=1) @ wv + bv
        d_logits = np.exp(logits - logits.max(axis=1, keepdims=True))
        d_logits /= d_logits.sum(axis=1, keepdims=True)
        d_logits[np.arange(m), y] -= 1.0
        d_logits /= m
        d_z = np.zeros_like(zv)
        np.add.at(d_z, j, d_logits @ wv[d:].T)
        np.add.at(d_z, i, d_logits @ wv[:d].T)
        d_w = np.concatenate([zv[i], zv[j]], axis=1).T @ d_logits
        for g, w in zip(got_grads, (d_z, d_w, d_logits.sum(axis=0))):
            assert np.allclose(g, w, rtol=1e-12, atol=1e-15)
        unpaired = np.setdiff1d(np.arange(n), np.concatenate([i, j]))
        assert unpaired.size and np.array_equal(got_grads[0][unpaired], np.zeros((unpaired.size, d)))

    def test_the_two_matrices_share_their_ones_and_pointers(self):
        # at 33k train pairs a copy of either would hold 0.5 MB for the run
        z, params, i, j, y = self.case(40, 2, 300)
        scatter = pair_scatter(40, i, j, y)
        by_i, by_j = scatter.by_trustor, scatter.by_trustee
        assert np.shares_memory(by_i.data, by_j.data) and np.shares_memory(by_i.indptr, by_j.indptr)
        # the int64 pair columns are the matrices' row indices, uncopied
        assert np.shares_memory(by_i.indices, i) and np.shares_memory(by_j.indices, j)

    def test_a_scatter_of_other_pairs_is_refused(self):
        z, params, i, j, y = self.case(6, 2, 4)
        scatter = pair_scatter(6, i, j, y)
        with pytest.raises(ValueError):
            pair_loss(z, i.copy(), j, y, params, scatter)
        with pytest.raises(ValueError):
            pair_loss(Tensor(np.zeros((7, 2))), i, j, y, params, scatter)


class TestPairLossRejectsMalformedPairs:
    CASES = {
        "negative_label": ([0, 1], [1, 2], [1, -1]),
        "label_above_one": ([0, 1], [1, 2], [2, 0]),
        "negative_trustor": ([-1, 1], [1, 2], [1, 0]),
        "negative_trustee": ([0, 1], [1, -3], [1, 0]),
        "trustor_past_last_user": ([0, 4], [1, 2], [1, 0]),
        "trustee_past_last_user": ([0, 1], [1, 9], [1, 0]),
        "lengths_differ": ([0, 1, 2], [1, 2], [1, 0]),
        "labels_shorter": ([0, 1], [1, 2], [1]),
        "float_ids": ([0.0, 1.0], [1, 2], [1, 0]),
        "empty": ([], [], []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_data_error(self, case):
        rng = np.random.default_rng(9)
        z = Tensor(rng.normal(size=(4, 2)))
        with pytest.raises(DataError):
            pair_loss(z, *self.CASES[case], make_params(2, rng))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_building_its_scatter_raises_data_error(self, case):
        with pytest.raises(DataError):
            pair_scatter(4, *self.CASES[case])


class TestMetrics:
    def test_all_correct(self):
        acc, f1 = metrics([0.9, 0.1, 0.8], [1, 0, 1])
        assert (acc, f1) == (1.0, 1.0)

    def test_all_predicted_positive_half_true(self):
        acc, f1 = metrics([0.9, 0.9, 0.9, 0.9], [1, 1, 0, 0])
        assert acc == pytest.approx(0.5)
        assert f1 == pytest.approx(2 / 3)

    def test_matches_confusion_matrix_oracle(self):
        rng = np.random.default_rng(7)
        preds = rng.random(20)
        labels = rng.integers(2, size=20)
        acc, f1 = metrics(preds, labels)
        hard = (preds >= 0.5).astype(int)
        tp = np.sum((hard == 1) & (labels == 1))
        fp = np.sum((hard == 1) & (labels == 0))
        fn = np.sum((hard == 0) & (labels == 1))
        tn = np.sum((hard == 0) & (labels == 0))
        assert acc == pytest.approx((tp + tn) / 20)
        if tp:
            p, r = tp / (tp + fp), tp / (tp + fn)
            assert f1 == pytest.approx(2 * p * r / (p + r))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            metrics([], [])

    @pytest.mark.parametrize("preds", [[[0.2, 0.8], [0.7, 0.3]], [0.9, 0.1, 0.8]], ids=["two_columns", "longer"])
    def test_anything_but_one_probability_per_label_is_refused(self, preds):
        # two rows of two columns would otherwise broadcast against two labels
        with pytest.raises(DataError):
            metrics(preds, [1, 0])

    def test_no_positive_predictions_f1_zero(self):
        acc, f1 = metrics([0.1, 0.2], [1, 1])
        assert f1 == 0.0


def test_predict_scores_vectorized():
    # the evaluation's scores are the oracle head's trust column, bit for bit
    rng = np.random.default_rng(8)
    for d in range(1, 6):
        params = make_params(d, rng)
        z = rng.normal(size=(20, d))
        i, j = rng.integers(20, size=(2, 150))
        scores = predict_scores(z, i, j, params)
        assert scores.tobytes() == predict_pair(z[i], z[j], params)[:, 1].tobytes()


@pytest.mark.parametrize("width", [2, 4])
def test_a_predictor_of_another_width_is_refused(width):
    # W reads 2 * 3 pair features: the loss and the evaluation both refuse z of another width
    params = make_params(3, np.random.default_rng(10))
    z = np.random.default_rng(11).normal(size=(4, width))
    with pytest.raises(DataError, match="predictor expects input dim 6"):
        predict_scores(z, [0, 1], [2, 3], params)
    with pytest.raises(DataError, match="predictor expects input dim 6"):
        pair_loss(Tensor(z), [0, 1], [2, 3], [1, 0], params)
