"""Initial node embeddings: comment-based user vectors and knowledge-based
object vectors. The type-specific projection into the shared latent space
is a trainable model parameter and lives in ``train``.

User vectors come from a stripped-down paragraph-vector scheme: token
vectors are fixed seeded random directions (hashed from the token string)
and only the per-document vector is trained, by SGD with negative
sampling over the document's bag of words. Freezing the token table keeps
users fully decoupled, so identical corpora give identical vectors and
the whole table is permutation-equivariant over user ids. It also lets
all documents step in lockstep, one numpy update over the active
documents per SGD step, while each document keeps its own RNG stream.

Object vectors come from translation-based triple embedding trained with
a margin ranking loss; aligned objects take their entity vector, the rest
fall back to seeded unit-norm random vectors.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import logistic
from .errors import DataError, ParseError
from .graph import HeteroGraph, _read_csv

_TOKEN_RE = re.compile(r"[^\W_]+", flags=re.UNICODE)


@dataclass(frozen=True)
class EmbeddingTable:
    """Dense per-node vectors for one pipeline stage."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        if self.vectors.ndim != 2:
            raise DataError("embedding table must be 2-D (nodes x dim)")
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("embedding table contains non-finite entries")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class KnowledgeTriple:
    head: int
    relation: int
    tail: int


@dataclass
class TransEModel:
    """Entity and relation tables under the translation principle h + r = t."""

    entity_vectors: np.ndarray
    relation_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.entity_vectors.shape[1]


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on whitespace/punctuation."""
    return _TOKEN_RE.findall(text.lower())


def _hash_seed(*parts: bytes) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(p)
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


def embed_users(
    corpus,
    dim: int,
    epochs: int = 10,
    seed: int = 0,
    lr: float = 0.05,
    negatives: int = 5,
    min_count: int = 2,
) -> EmbeddingTable:
    """Train one vector per user from their concatenated comments.

    ``corpus`` holds one entry per user: a string or a list of comment
    strings. Vocabulary keeps tokens appearing at least ``min_count``
    times across the corpus; users whose comments contain no in-vocabulary
    token get the zero vector.

    Each document has its own RNG stream, seeded from its text. It draws,
    in order, the initial vector, the noise tokens of every event, and one
    token permutation per epoch. An event is one positive token followed
    by ``negatives`` noise tokens, each an SGD step. All documents then
    step in lockstep: step ``s`` applies the ``s``-th event of every
    document that has one, as numpy updates over those documents' rows.
    Token and noise ids are stored flat as int32, so memory is O(total
    events x (1 + negatives)).
    """
    if dim <= 0:
        raise DataError(f"embedding dim must be positive, got {dim}")
    if epochs < 0:
        raise DataError(f"epochs must be >= 0, got {epochs}")
    if negatives < 0:
        raise DataError(f"negatives must be >= 0, got {negatives}")
    docs = [" ".join(c) if isinstance(c, (list, tuple)) else str(c) for c in corpus]
    token_lists = [tokenize(d) for d in docs]
    freq: dict[str, int] = {}
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

    # unigram^0.75 negative-sampling distribution
    if vocab:
        counts = np.array([freq[t] for t in vocab], dtype=np.float64) ** 0.75
        noise_cdf = np.cumsum(counts / counts.sum())

    doc_ids = [
        np.array([vocab_index[t] for t in toks if t in vocab_index], dtype=np.int64)
        for toks in token_lists
    ]
    # longest documents first, so the documents active at any step are a prefix
    order = sorted(
        (d for d in range(len(docs)) if doc_ids[d].size), key=lambda d: -doc_ids[d].size
    )
    n_events = np.array([doc_ids[d].size * epochs for d in order], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(n_events)))
    pos = np.empty(starts[-1], dtype=np.int32)
    neg = np.empty((starts[-1], negatives), dtype=np.int32)
    vecs = np.empty((len(order), dim))
    for r, d in enumerate(order):
        ids = doc_ids[d]
        drng = np.random.default_rng(_hash_seed(b"doc", seed_bytes, docs[d].encode()))
        vecs[r] = drng.normal(0.0, 0.1, size=dim)
        lo, hi = starts[r], starts[r + 1]
        neg[lo:hi] = np.searchsorted(noise_cdf, drng.random((hi - lo, negatives)))
        for e in range(lo, hi, ids.size):
            pos[e : e + ids.size] = drng.permutation(ids)

    steps = int(n_events[0]) if order else 0
    active = np.searchsorted(-n_events, -np.arange(steps), side="left")
    for s, n in enumerate(active):
        v = vecs[:n]
        events = starts[:n] + s
        u = token_vecs[pos[events]]
        v += (lr * (1.0 - logistic(_row_dot(v, u))))[:, None] * u
        for noise in neg[events].T:
            un = token_vecs[noise]
            v -= (lr * logistic(_row_dot(v, un)))[:, None] * un

    out = np.zeros((len(docs), dim))
    out[order] = vecs
    return EmbeddingTable(out)


def _row_dot(a, b):
    """Rowwise dot products; rounds as a 1-D ``a[i] @ b[i]`` does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def load_user_vectors(path, num_users: int, dim: int) -> EmbeddingTable:
    """Read precomputed user vectors: one line ``user_id v1 ... vd``."""
    path = Path(path)
    vecs = np.zeros((num_users, dim))
    seen = np.zeros(num_users, dtype=bool)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read user vectors {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise ParseError(f"{path}:{lineno}: expected id + {dim} values, got {len(parts)}")
        try:
            uid = int(parts[0])
            vals = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: bad numeric field") from exc
        if not 0 <= uid < num_users:
            raise ParseError(f"{path}:{lineno}: user id {uid} out of range")
        vecs[uid] = vals
        seen[uid] = True
    if not seen.all():
        missing = int(np.flatnonzero(~seen)[0])
        raise DataError(f"user vector file {path} is missing user {missing}")
    return EmbeddingTable(vecs)


# ---------------------------------------------------------------------------
# translation-based triple embedding


def transe_train(
    triples: list[KnowledgeTriple],
    num_entities: int,
    num_relations: int,
    dim: int,
    margin: float = 1.0,
    epochs: int = 100,
    neg_per_pos: int = 1,
    lr: float = 0.05,
    seed: int = 0,
) -> TransEModel:
    """Margin-ranking training with uniform head-or-tail corruption.

    Entity vectors are renormalized to unit length after every epoch (and
    start unit-norm, so a zero-epoch call returns the raw initialization).
    """
    if margin <= 0:
        raise DataError(f"margin must be positive, got {margin}")
    if not triples:
        raise DataError("cannot train on an empty triple set")
    if dim <= 0:
        raise DataError(f"embedding dim must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    ent = _unit_rows(rng.normal(size=(num_entities, dim)))
    rel = _unit_rows(rng.normal(size=(num_relations, dim)))

    h = np.array([t.head for t in triples], dtype=np.int64)
    r = np.array([t.relation for t in triples], dtype=np.int64)
    t = np.array([t.tail for t in triples], dtype=np.int64)
    m = len(triples)

    for epoch in range(epochs):
        for _ in range(neg_per_pos):
            corrupt = rng.integers(num_entities, size=m)
            corrupt_head = rng.random(m) < 0.5
            hc = np.where(corrupt_head, corrupt, h)
            tc = np.where(corrupt_head, t, corrupt)

            pos_diff = ent[h] + rel[r] - ent[t]
            neg_diff = ent[hc] + rel[r] - ent[tc]
            f_pos = -np.einsum("ij,ij->i", pos_diff, pos_diff)
            f_neg = -np.einsum("ij,ij->i", neg_diff, neg_diff)
            viol = margin - f_pos + f_neg > 0
            if not viol.any():
                continue
            scale = 2.0 * lr / m
            gpos = pos_diff[viol] * scale
            gneg = neg_diff[viol] * scale
            np.add.at(ent, h[viol], -gpos)
            np.add.at(ent, t[viol], gpos)
            np.add.at(rel, r[viol], -gpos)
            np.add.at(ent, hc[viol], gneg)
            np.add.at(ent, tc[viol], -gneg)
            np.add.at(rel, r[viol], gneg)
        ent = _unit_rows(ent)
    return TransEModel(ent, rel)


def init_objects(
    graph: HeteroGraph,
    alignment: dict[int, int] | None,
    model: TransEModel | None,
    dim: int,
    seed: int = 0,
) -> EmbeddingTable:
    """Initial object vectors: entity vectors where aligned, else random.

    ``alignment`` maps local object id (0..num_objects-1) to an entity id
    in ``model``. Unaligned objects, or all objects when no model is
    given, get seeded unit-norm random vectors.
    """
    if model is not None and model.dim != dim:
        raise DataError(f"model dim {model.dim} does not match requested dim {dim}")
    rng = np.random.default_rng(seed)
    vecs = _unit_rows(rng.normal(size=(graph.num_objects, dim)))
    if model is not None and alignment:
        for obj, entity in alignment.items():
            vecs[obj] = model.entity_vectors[entity]
    return EmbeddingTable(vecs)


def random_table(count: int, dim: int, seed: int) -> EmbeddingTable:
    """Seeded unit-norm random vectors (featureless-node fallback)."""
    rng = np.random.default_rng(seed)
    return EmbeddingTable(_unit_rows(rng.normal(size=(count, dim))))


def load_triples(path) -> tuple[list[KnowledgeTriple], dict[str, int], dict[str, int]]:
    """Read triples.csv (head_entity,relation,tail_entity), assigning ids.

    Entity and relation ids follow first appearance order. Returns the
    triples plus the two name -> id tables.
    """
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    triples: list[KnowledgeTriple] = []
    for row in _read_csv(Path(path), ["head_entity", "relation", "tail_entity"]):
        head, relation, tail = (x.strip() for x in row)
        for name in (head, tail):
            if name not in entities:
                entities[name] = len(entities)
        if relation not in relations:
            relations[relation] = len(relations)
        triples.append(KnowledgeTriple(entities[head], relations[relation], entities[tail]))
    return triples, entities, relations


def filter_object_head_triples(
    triples: list[KnowledgeTriple], aligned_entities: set[int]
) -> list[KnowledgeTriple]:
    """Keep triples whose head is an entity aligned to some object."""
    return [t for t in triples if t.head in aligned_entities]
