import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trustnet import embed as embed_mod
from trustnet.embed import (
    KnowledgeTriple,
    TransEModel,
    _advanced_copy,
    _guide_table,
    _hash_seed,
    _noise_cdf,
    _noise_ids,
    embed_users,
    filter_object_head_triples,
    init_objects,
    load_triples,
    load_user_vectors,
    random_table,
    tokenize,
    transe_train,
)
from trustnet.errors import DataError, ParseError
from trustnet.experiment import UserEmbedConfig
from trustnet.fixtures import make_siot_files
from trustnet.graph import HeteroGraph, load_siot_csv


# the user embedding's training length and step size as a run sets them
EMBED = {"epochs": UserEmbedConfig.epochs, "lr": UserEmbedConfig.lr}


def transe_score(model: TransEModel, triple: KnowledgeTriple) -> float:
    """Plausibility score -||h + r - t||^2; 0 iff the translation is exact."""
    diff = (
        model.entity_vectors[triple.head]
        + model.relation_vectors[triple.relation]
        - model.entity_vectors[triple.tail]
    )
    return -float(diff @ diff)


def oracle_embed_users(corpus, dim, epochs=10, seed=0, lr=0.05, negatives=5, min_count=2):
    """``embed_users`` one document, one token and one noise sample at a time."""
    docs = [" ".join(c) if isinstance(c, (list, tuple)) else str(c) for c in corpus]
    token_lists = [tokenize(d) for d in docs]
    freq = {}
    for toks in token_lists:
        for t in toks:
            freq[t] = freq.get(t, 0) + 1
    vocab = sorted(t for t, c in freq.items() if c >= min_count)
    vocab_index = {t: i for i, t in enumerate(vocab)}

    seed_bytes = str(seed).encode()
    token_vecs = np.zeros((len(vocab), dim))
    for t, i in vocab_index.items():
        trng = np.random.default_rng(_hash_seed(b"token", seed_bytes, t.encode()))
        token_vecs[i] = trng.normal(0.0, 1.0 / np.sqrt(dim), size=dim)
    if vocab:
        counts = np.array([freq[t] for t in vocab], dtype=np.float64) ** 0.75
        noise_cdf = np.cumsum(counts / counts.sum())
        noise_cdf[-1] = 1.0

    def expit(x):
        return 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))

    out = np.zeros((len(docs), dim))
    for d, toks in enumerate(token_lists):
        ids = np.array([vocab_index[t] for t in toks if t in vocab_index], dtype=np.int64)
        if ids.size == 0:
            continue
        drng = np.random.default_rng(_hash_seed(b"doc", seed_bytes, docs[d].encode()))
        v = drng.normal(0.0, 0.1, size=dim)
        n_events = ids.size * epochs
        neg_draws = np.searchsorted(noise_cdf, drng.random((n_events, negatives)))
        event = 0
        for _ in range(epochs):
            for w in drng.permutation(ids):
                u = token_vecs[w]
                v += lr * (1.0 - expit(v @ u)) * u
                for nw in neg_draws[event]:
                    un = token_vecs[nw]
                    v -= lr * expit(v @ un) * un
                event += 1
        out[d] = v
    return out


def project(table: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Rowwise linear map into the shared latent space: out = vec @ weight."""
    weight = np.asarray(weight, dtype=np.float64)
    if table.shape[1] != weight.shape[0]:
        raise DataError(
            f"projection expects input dim {weight.shape[0]}, table has {table.shape[1]}"
        )
    return table @ weight


def random_corpus(rng, num_docs, words, max_len):
    """Documents of 0..max_len tokens drawn from the first ``words`` of a fixed list."""
    pool = [f"w{i}" for i in range(words)]
    return [" ".join(rng.choice(pool, size=rng.integers(max_len + 1))) for _ in range(num_docs)]


def cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0 or nb == 0:
        return 0.0
    return float(a @ b / (na * nb))


class TestEmbedUsers:
    def test_identical_corpora_identical_vectors(self):
        corpus = ["great fast camera great", "great fast camera great", "slow dim lamp slow"]
        table = embed_users(corpus, dim=16, seed=3, **EMBED)
        assert np.array_equal(table[0], table[1])
        assert not np.array_equal(table[0], table[2])

    def test_empty_corpus_gives_zero_vector(self):
        corpus = ["solid value solid value", "", "solid deal solid deal"]
        table = embed_users(corpus, dim=8, seed=0, **EMBED)
        assert np.all(table[1] == 0.0)
        assert np.any(table[0] != 0.0)

    def test_token_overlap_orders_cosine(self):
        # users 0/1 share 90% of tokens; user 2 is disjoint
        base = ("alpha beta gamma delta epsilon zeta eta theta iota " * 4).split()
        u0 = " ".join(base + ["kappa"])
        u1 = " ".join(base + ["lmbda"])
        u2 = " ".join(("mu nu xi omicron pi rho sigma tau upsilon " * 4).split())
        v = embed_users([u0, u1, u2, u0 + " " + u1, u2 + " extra extra"], dim=24, seed=7, **EMBED)
        sim_overlap = cosine(v[0], v[1])
        sim_disjoint = cosine(v[0], v[2])
        assert sim_overlap > sim_disjoint

    def test_permutation_equivariance(self):
        corpus = [
            "red green blue red green",
            "metal gear solid metal gear",
            "wind rain sun wind rain",
            "red green blue sun sun",
        ]
        table = embed_users(corpus, dim=12, seed=11, **EMBED)
        perm = [2, 0, 3, 1]
        permuted = embed_users([corpus[p] for p in perm], dim=12, seed=11, **EMBED)
        assert np.allclose(permuted, table[perm])

    def test_deterministic_across_calls(self):
        corpus = ["one two three one two", "four five six four five"]
        a = embed_users(corpus, dim=10, seed=5, **EMBED)
        b = embed_users(corpus, dim=10, seed=5, **EMBED)
        assert np.array_equal(a, b)

    def test_rejects_bad_dim(self):
        with pytest.raises(DataError):
            embed_users(["hello world hello"], dim=0, seed=0, **EMBED)

    def test_accepts_comment_lists(self):
        table = embed_users([["good phone", "good screen"], ["bad phone bad"]], dim=8, seed=1, **EMBED)
        assert table.shape == (2, 8)

    def test_rejects_negative_epochs_and_negatives(self):
        with pytest.raises(DataError, match="epochs"):
            embed_users(["hello world hello"], dim=4, epochs=-1, seed=0, lr=UserEmbedConfig.lr)
        with pytest.raises(DataError, match="negatives"):
            embed_users(["hello world hello"], dim=4, seed=0, negatives=-2, **EMBED)

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, num_docs=9, words=12, max_len=15)
        table = embed_users(corpus, dim=6, seed=2, **EMBED)
        perm = rng.permutation(len(corpus))
        permuted = embed_users([corpus[p] for p in perm], dim=6, seed=2, **EMBED)
        assert np.array_equal(permuted, table[perm])


def matches_oracle(corpus, **kw):
    """``embed_users`` output after asserting it equals the oracle's bit for bit."""
    kw = {**EMBED, **kw}
    got = embed_users(corpus, **kw)
    assert np.array_equal(got, oracle_embed_users(corpus, **kw))
    return got


class TestEmbedUsersOracle:
    @pytest.mark.parametrize("seed,dim", [(0, 8), (3, 5), (11, 16), (2024, 1)])
    def test_ragged_lengths(self, seed, dim):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, num_docs=12, words=20, max_len=40)
        corpus += ["w1", "w2 w3 w2 w4 " * 10]
        matches_oracle(corpus, dim=dim, seed=seed, epochs=3)

    def test_documents_without_vocabulary_tokens(self):
        corpus = ["solid value solid value", "lonely words only", "", "value deal solid"]
        got = matches_oracle(corpus, dim=8, seed=4)
        assert np.all(got[1] == 0.0) and np.all(got[2] == 0.0)

    def test_duplicate_documents(self):
        corpus = ["great fast camera great", "slow lamp", "great fast camera great", "slow lamp"]
        got = matches_oracle(corpus, dim=7, seed=9, min_count=1)
        assert np.array_equal(got[0], got[2])

    def test_comment_lists(self):
        corpus = [["good phone", "good screen"], ("bad phone bad",), "good bad screen", []]
        matches_oracle(corpus, dim=8, seed=1)

    def test_all_tokens_out_of_vocabulary(self):
        got = matches_oracle(["alpha beta", "gamma", "delta epsilon zeta"], dim=4, seed=0)
        assert np.all(got == 0.0)

    def test_zero_negatives(self):
        corpus = random_corpus(np.random.default_rng(5), num_docs=8, words=10, max_len=20)
        matches_oracle(corpus, dim=6, seed=5, negatives=0)

    def test_zero_epochs_keeps_initial_vectors(self):
        corpus = ["red green red green", "blue", "red blue blue"]
        got = matches_oracle(corpus, dim=5, seed=6, epochs=0)
        for d in (0, 2):
            drng = np.random.default_rng(_hash_seed(b"doc", b"6", corpus[d].encode()))
            assert np.array_equal(got[d], drng.normal(0.0, 0.1, size=5))

    @pytest.mark.parametrize("lookup_events", [None, 3], ids=["default_runs", "runs_of_3"])
    @pytest.mark.parametrize("negatives", [0, 4])
    def test_epoch_refills_interleave(self, monkeypatch, negatives, lookup_events):
        # in-vocabulary lengths 1, 2, 3, 7 and 40 leave each epoch's steps at
        # different points while the next epoch refills every document; runs
        # of 3 events split each refill's lookups
        if lookup_events is not None:
            monkeypatch.setattr(embed_mod, "_LOOKUP_EVENTS", lookup_events)
        pool = [f"w{i}" for i in range(10)]
        rng = np.random.default_rng(12)
        long_doc = pool * 2 + list(rng.choice(pool, size=20))
        corpus = [
            "w3 w1 w4 w1 w5 w9 w2",
            " ".join(long_doc),
            "w7",
            "only once here",
            "w2 w8",
            "w0 w0 w6",
        ]
        assert sorted(len(tokenize(c)) for c in corpus if "once" not in c) == [1, 2, 3, 7, 40]
        got = matches_oracle(corpus, dim=3, seed=21, epochs=6, negatives=negatives)
        assert np.all(got[3] == 0.0) and np.all(got != 0.0, axis=1).sum() == 5

    @given(
        docs=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), max_size=12),
            max_size=8,
        ),
        dim=st.integers(1, 6),
        epochs=st.integers(0, 3),
        negatives=st.integers(0, 3),
        min_count=st.integers(1, 3),
        seed=st.integers(0, 2**32),
    )
    def test_random_corpora_match_oracle(self, docs, dim, epochs, negatives, min_count, seed):
        corpus = [" ".join(toks) for toks in docs]
        matches_oracle(
            corpus, dim=dim, epochs=epochs, seed=seed, negatives=negatives, min_count=min_count
        )


@pytest.mark.parametrize("length,epochs,negatives", [(1, 5, 4), (7, 6, 0), (40, 5, 5), (3, 1, 1)])
def test_split_stream_reproduces_the_unsplit_draws(length, epochs, negatives):
    """The vector, then every noise draw, then one permutation per epoch: a
    generator drawing noise an epoch at a time and its advanced copy drawing
    the permutations yield what one generator yields in that order."""
    ids = np.arange(10, 10 + length)
    seed = _hash_seed(b"doc", b"0", b"split stream")
    whole = np.random.default_rng(seed)
    vector = whole.normal(0.0, 0.1, size=4)
    noise = whole.random((length * epochs, negatives))
    perms = [whole.permutation(ids) for _ in range(epochs)]
    after = whole.random(3)

    split = np.random.default_rng(seed)
    assert np.array_equal(split.normal(0.0, 0.1, size=4), vector)
    perm_rng = _advanced_copy(split, length * epochs * negatives)
    for e in range(epochs):
        rows = slice(e * length, (e + 1) * length)
        assert np.array_equal(split.random((length, negatives)), noise[rows])
        assert np.array_equal(perm_rng.permutation(ids), perms[e])
    assert np.array_equal(perm_rng.random(3), after)


def traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_embed_users_memory_does_not_grow_with_epochs():
    corpus = random_corpus(np.random.default_rng(8), num_docs=24, words=50, max_len=60)
    tokens = sum(len(tokenize(c)) for c in corpus)
    negatives = 5
    peaks = {
        epochs: traced_peak(lambda: embed_users(corpus, 4, epochs, 0, UserEmbedConfig.lr, negatives))
        for epochs in (2, 20)
    }
    # holding one more epoch of every document's ids would take this much
    one_epoch = tokens * (1 + negatives) * 4
    assert peaks[20] - peaks[2] < one_epoch, (peaks, one_epoch)


def vocabulary_counts(corpus, min_count=2):
    """Counts of the tokens ``embed_users`` keeps, in vocabulary order."""
    freq = {}
    for doc in corpus:
        for t in tokenize(" ".join(doc) if isinstance(doc, list) else doc):
            freq[t] = freq.get(t, 0) + 1
    return [c for _, c in sorted(freq.items()) if c >= min_count]


def adversarial_keys(cdf, buckets):
    """Every CDF entry and bucket edge with both float neighbours, 0 and the largest key below 1."""
    points = np.concatenate([cdf, np.arange(buckets + 1) / buckets, [0.0, 1.0]])
    keys = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
    return keys[(keys >= 0.0) & (keys < 1.0)]


def cdf_of(weights):
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64) / np.sum(weights))
    cdf[-1] = 1.0
    return cdf


# 75 entries, several of them in one bucket of the 1024
CROWDED = cdf_of([1e-6] * 40 + [1.0, 0.0, 1e-6, 1e-6, 2.0] + [1e-7] * 30)


class TestNoiseLookup:
    # counts whose unigram^0.75 cumulative sum ends at 0.9999999999999998
    SHORT_COUNTS = [32, 26, 14, 16, 3, 5, 2, 10, 41, 33, 45, 26, 31, 48, 37, 32, 28, 28, 46,
                    15, 41, 34, 2, 20, 43]

    @pytest.mark.parametrize(
        "cdf",
        [
            _noise_cdf(SHORT_COUNTS),
            _noise_cdf([1]),
            _noise_cdf(np.random.default_rng(4).integers(1, 60, size=633)),
            cdf_of([0.3, 0.0, 0.0, 0.2, 0.0, 0.5]),  # repeated entries
            CROWDED,
            cdf_of(np.random.default_rng(5).pareto(0.5, size=300)),
        ],
        ids=["short", "single", "wide", "repeated", "crowded", "heavy_tail"],
    )
    def test_guide_table_matches_searchsorted(self, cdf):
        guide = _guide_table(cdf)
        keys = adversarial_keys(cdf, guide[0].size)
        got = _noise_ids(cdf, guide, keys)
        assert np.array_equal(got, np.searchsorted(cdf, keys))
        rng = np.random.default_rng(6)
        draws = rng.random((400, 5))
        assert np.array_equal(_noise_ids(cdf, guide, draws), np.searchsorted(cdf, draws))

    def test_crowded_buckets_are_searched(self):
        first, crowded = _guide_table(CROWDED)
        assert first.size == 1024  # the power of two at or above 8 x 75
        assert crowded.any() and not crowded.all()

    def test_short_cdf_tail_stays_in_the_vocabulary(self):
        weights = np.array(self.SHORT_COUNTS, dtype=np.float64) ** 0.75
        assert np.cumsum(weights / weights.sum())[-1] == 0.9999999999999998
        cdf = _noise_cdf(self.SHORT_COUNTS)
        assert cdf[-1] == 1.0
        top = np.array([np.nextafter(1.0, 0.0)])
        assert _noise_ids(cdf, _guide_table(cdf), top).tolist() == [len(self.SHORT_COUNTS) - 1]

    def test_siot_fixture_draws_rarely_search(self, tmp_path):
        make_siot_files(tmp_path, seed=0)
        _, corpus, _ = load_siot_csv(tmp_path)
        cdf = _noise_cdf(vocabulary_counts(corpus))
        first, crowded = _guide_table(cdf)
        assert cdf.size == 633 and first.size == 8192
        # each bucket takes 1 / B of the uniform draws
        assert crowded.mean() <= 0.01


def test_tokenize_lowercase_punctuation():
    assert tokenize("Great, FAST camera!!") == ["great", "fast", "camera"]


class TestTransEScore:
    def test_exact_translation_scores_zero(self):
        model = TransEModel(
            entity_vectors=np.array([[1.0, 0.0], [1.0, 1.0]]),
            relation_vectors=np.array([[0.0, 1.0]]),
        )
        assert transe_score(model, KnowledgeTriple(0, 0, 1)) == 0.0

    def test_direct_arithmetic(self):
        model = TransEModel(
            entity_vectors=np.array([[1.0, 0.0], [0.0, 0.0]]),
            relation_vectors=np.array([[0.0, 1.0]]),
        )
        assert transe_score(model, KnowledgeTriple(0, 0, 1)) == -2.0

    def test_matches_norm_oracle_random(self):
        rng = np.random.default_rng(13)
        ent = rng.normal(size=(6, 4))
        rel = rng.normal(size=(2, 4))
        model = TransEModel(ent, rel)
        for _ in range(20):
            h, t = rng.integers(6, size=2)
            r = int(rng.integers(2))
            expected = -np.sum((ent[h] + rel[r] - ent[t]) ** 2)
            got = transe_score(model, KnowledgeTriple(int(h), r, int(t)))
            assert got == pytest.approx(expected, abs=1e-12)
            assert got <= 0.0

    def test_negation_invariance(self):
        rng = np.random.default_rng(4)
        ent = rng.normal(size=(4, 3))
        rel = rng.normal(size=(1, 3))
        pos = TransEModel(ent, rel)
        negm = TransEModel(-ent, -rel)
        trip = KnowledgeTriple(0, 0, 2)
        assert transe_score(pos, trip) == pytest.approx(transe_score(negm, trip))


def chain_triples():
    # 3 entities, 1 relation: 0 -r-> 1 -r-> 2
    return [KnowledgeTriple(0, 0, 1), KnowledgeTriple(1, 0, 2)]


class TestTransETrain:
    def test_zero_epochs_equals_initialization(self):
        rng = np.random.default_rng(9)
        init = rng.normal(size=(3, 8))
        init /= np.linalg.norm(init, axis=1, keepdims=True)
        model = transe_train(chain_triples(), 3, 1, dim=8, epochs=0, seed=9)
        assert np.allclose(model.entity_vectors, init)

    def test_entity_norms_stay_unit(self):
        # a run of k epochs ends where a longer run with the same seed is after k
        for epochs in range(1, 16):
            model = transe_train(chain_triples(), 3, 1, dim=8, epochs=epochs, seed=2)
            norms = np.linalg.norm(model.entity_vectors, axis=1)
            assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_chain_kg_separates_positive_from_corrupted(self):
        triples = chain_triples()
        model = transe_train(triples, 3, 1, dim=8, epochs=200, seed=0)
        rng = np.random.default_rng(1)
        pos = np.mean([transe_score(model, t) for t in triples])
        corrupted = []
        for t in triples:
            for _ in range(30):
                if rng.random() < 0.5:
                    corrupted.append(KnowledgeTriple(int(rng.integers(3)), t.relation, t.tail))
                else:
                    corrupted.append(KnowledgeTriple(t.head, t.relation, int(rng.integers(3))))
        neg = np.mean([transe_score(model, t) for t in corrupted])
        assert pos > neg

    def test_mean_positive_improves_over_first_ten_epochs(self):
        triples = chain_triples()

        def mean_pos(model):
            return np.mean([transe_score(model, t) for t in triples])

        start = mean_pos(transe_train(triples, 3, 1, dim=8, epochs=0, seed=3))
        after = mean_pos(transe_train(triples, 3, 1, dim=8, epochs=10, seed=3))
        assert after > start

    def test_rejects_an_empty_triple_set(self):
        with pytest.raises(DataError, match="^cannot train on an empty triple set$"):
            transe_train([], 3, 1, dim=4, epochs=1, seed=0)


class TestInitObjects:
    def graph(self, num_objects=4):
        return HeteroGraph(num_users=2, num_objects=num_objects)

    def test_without_alignment_gives_the_seeded_random_table(self):
        model = transe_train(chain_triples(), 3, 1, dim=6, epochs=1, seed=0)
        a = init_objects(self.graph(), {}, model, dim=6, seed=5)
        c = init_objects(self.graph(), {}, model, dim=6, seed=6)
        assert np.array_equal(a, random_table(4, 6, seed=5))
        assert not np.array_equal(a, c)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)

    def test_full_alignment_passes_through(self):
        model = transe_train(chain_triples(), 3, 1, dim=6, epochs=5, seed=0)
        table = init_objects(
            self.graph(3), {0: 0, 1: 1, 2: 2}, model, dim=6, seed=0
        )
        assert np.array_equal(table, model.entity_vectors[[0, 1, 2]])

    def test_half_alignment_partition(self):
        model = transe_train(chain_triples(), 3, 1, dim=6, epochs=5, seed=0)
        table = init_objects(self.graph(4), {0: 2, 2: 1}, model, dim=6, seed=1)
        assert np.array_equal(table[0], model.entity_vectors[2])
        assert np.array_equal(table[2], model.entity_vectors[1])
        plain = random_table(4, 6, seed=1)
        assert np.array_equal(table[1], plain[1])
        assert np.array_equal(table[3], plain[3])

    def test_dim_mismatch(self):
        model = transe_train(chain_triples(), 3, 1, dim=6, epochs=1, seed=0)
        with pytest.raises(DataError):
            init_objects(self.graph(), {0: 0}, model, dim=8, seed=0)


class TestProject:
    def test_identity(self):
        table = random_table(5, 4, seed=0)
        out = project(table, np.eye(4))
        assert np.allclose(out, table)

    def test_zero_row_stays_zero(self):
        table = np.vstack([np.zeros(3), np.ones(3)])
        rng = np.random.default_rng(0)
        out = project(table, rng.normal(size=(3, 5)))
        assert np.all(out[0] == 0.0)

    def test_matches_matvec_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3))
        table = rng.normal(size=(6, 4))
        out = project(table, w)
        for i in range(6):
            expected = np.array([table[i] @ w[:, c] for c in range(3)])
            assert np.allclose(out[i], expected)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 4))
        x = rng.normal(size=(1, 4))
        y = rng.normal(size=(1, 4))
        a, b = 0.7, -1.3
        left = project(a * x + b * y, w)
        right = a * project(x, w) + b * project(y, w)
        assert np.allclose(left, right, atol=1e-9)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            project(random_table(2, 3, 0), np.eye(4))


class TestTripleFiles:
    def test_load_triples_assigns_ids(self, tmp_path):
        path = tmp_path / "triples.csv"
        path.write_text(
            "head_entity,relation,tail_entity\n"
            "ent_cam,category,cat_photo\n"
            "ent_lens,category,cat_photo\n"
            "ent_cam,brand,brand_x\n"
        )
        triples, entities, relations = load_triples(path)
        assert len(triples) == 3
        assert entities["ent_cam"] == 0
        assert relations == {"category": 0, "brand": 1}
        kept = filter_object_head_triples(triples, {entities["ent_cam"]})
        assert len(kept) == 2

    def test_load_triples_bad_header(self, tmp_path):
        path = tmp_path / "triples.csv"
        path.write_text("a,b,c\nx,y,z\n")
        with pytest.raises(ParseError):
            load_triples(path)

    def test_load_triples_strips_fields_and_skips_blank_rows(self, tmp_path):
        path = tmp_path / "triples.csv"
        path.write_text("head_entity, relation ,tail_entity\n b , r,a\n\na,r , b\n")
        triples, entities, relations = load_triples(path)
        assert entities == {"b": 0, "a": 1}
        assert relations == {"r": 0}
        assert triples == [KnowledgeTriple(0, 0, 1), KnowledgeTriple(1, 0, 0)]

    @pytest.mark.parametrize(
        "text,error,message",
        [
            (None, DataError, "missing required file"),
            ("", ParseError, r"triples\.csv:1: empty file"),
            ("head_entity,relation,tail_entity\na,r,b\na,r\n", ParseError, r"triples\.csv:3: expected 3"),
        ],
        ids=["missing", "empty", "short_row"],
    )
    def test_load_triples_rejects_bad_files(self, tmp_path, text, error, message):
        path = tmp_path / "triples.csv"
        if text is not None:
            path.write_text(text)
        with pytest.raises(error, match=message):
            load_triples(path)


class TestUserVectorFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 1.0 2.0\n1 -1.0 0.5\n")
        table = load_user_vectors(path, num_users=2, dim=2)
        assert np.allclose(table, [[1.0, 2.0], [-1.0, 0.5]])

    def test_missing_user(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 1.0 2.0\n")
        with pytest.raises(DataError, match="missing user 1"):
            load_user_vectors(path, num_users=2, dim=2)

    def test_repeated_user_names_both_lines(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 1 2\n1 3 4\n0 5 6\n")
        with pytest.raises(ParseError, match=r"vecs\.txt:3: user id 0 repeats line 1"):
            load_user_vectors(path, num_users=2, dim=2)

    def test_bad_width(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 1.0\n")
        with pytest.raises(ParseError):
            load_user_vectors(path, num_users=1, dim=2)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, value):
        path = tmp_path / "vecs.txt"
        path.write_text(f"0 1 2\n\n1 3 4\n2 5 {value}\n")
        with pytest.raises(ParseError, match=r"vecs\.txt:4: non-finite value$"):
            load_user_vectors(path, num_users=3, dim=2)


def _vector_file(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("0 1 2\n1 3 4\n2 5 6\n")
    return path


@pytest.mark.parametrize(
    "produce",
    [
        lambda tmp_path: embed_users(["solid value solid", "", "value deal solid"], dim=2, seed=1, **EMBED),
        lambda tmp_path: load_user_vectors(_vector_file(tmp_path), num_users=3, dim=2),
        lambda tmp_path: init_objects(
            HeteroGraph(num_users=2, num_objects=3), {0: 2},
            transe_train(chain_triples(), 3, 1, dim=2, epochs=1, seed=0), dim=2, seed=3,
        ),
        lambda tmp_path: random_table(3, 2, seed=4),
    ],
    ids=["embed_users", "load_user_vectors", "init_objects", "random_table"],
)
def test_table_producer_returns_float64_rows_by_dim(tmp_path, produce):
    table = produce(tmp_path)
    assert type(table) is np.ndarray and table.dtype == np.float64 and table.shape == (3, 2)
