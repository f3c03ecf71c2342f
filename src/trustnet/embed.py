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
Training runs epoch by epoch: every document's events are drawn at the
start of each epoch, so the ids held do not grow with the number of
epochs. Noise tokens are drawn from the unigram^0.75 distribution
(Mikolov et al., 2013), looked up through an exact guide table (Chen &
Asau, 1974) rather than a binary search per draw.

Object vectors come from translation-based triple embedding trained with
a margin ranking loss; aligned objects take their entity vector, the rest
fall back to seeded unit-norm random vectors. Its gradient scatters run
over the raveled tables, one element index per value.
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
# most events whose noise ids ``embed_users`` looks up in one call (unless one
# document's epoch is longer), which bounds the float64 draws held at once
_LOOKUP_EVENTS = 4096
# transe_train's ranking margin and SGD step; it draws one corruption per triple and epoch
TRANSE_MARGIN, TRANSE_LR = 1.0, 0.05


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
    epochs: int,
    seed: int,
    lr: float,
    negatives: int = 5,
    min_count: int = 2,
) -> np.ndarray:
    """A (users, dim) array: one vector per user, trained on their concatenated comments.

    ``corpus`` holds one entry per user: a string or a list of comment
    strings. Vocabulary keeps tokens appearing at least ``min_count``
    times across the corpus; users whose comments contain no in-vocabulary
    token get the zero vector.

    Each document has its own RNG stream, seeded from its text. It draws,
    in order, the initial vector, the noise tokens of every event, and one
    token permutation per epoch. An event is one positive token followed
    by ``negatives`` noise tokens, each an SGD step. Documents are
    independent, so any schedule that keeps each document's own order of
    events gives the same bits.

    Training runs epoch by epoch. The stream is split after the vector:
    the document's generator goes on to draw the noise, and a copy
    advanced past every noise draw yields the permutations. At the start
    of each epoch every document's events are refilled, its noise ids
    looked up together with other documents' in runs of at most
    ``_LOOKUP_EVENTS`` events (or one document's epoch). Then all
    documents step in lockstep: step ``s`` applies the ``s``-th event of
    every document longer than ``s``, as numpy updates over those
    documents' rows.

    Noise ids come from the unigram^0.75 CDF through a guide table of ``B``
    buckets, ``B`` the power of two at or above 8x the vocabulary size: a
    draw reads its bucket's first CDF entry and compares once, and only
    draws in buckets holding several entries are binary-searched. The ids
    equal ``np.searchsorted(cdf, draws)``.

    Memory: a (longest document, documents, 1 + negatives) int32 buffer of
    the current epoch's events, whatever the number of epochs, held
    step-major so that one step's events are one contiguous block; two
    generators per document; the guide table, O(B); and one run's noise
    draws and lookup temporaries, O(negatives x max(_LOOKUP_EVENTS,
    longest document)).
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

    if vocab:
        noise_cdf = _noise_cdf([freq[t] for t in vocab])
        guide = _guide_table(noise_cdf)

    doc_ids = [
        np.array([vocab_index[t] for t in toks if t in vocab_index], dtype=np.int64)
        for toks in token_lists
    ]
    # longest documents first, so the documents active at any step are a prefix
    order = sorted(
        (d for d in range(len(docs)) if doc_ids[d].size), key=lambda d: -doc_ids[d].size
    )
    doc_ids = [doc_ids[d] for d in order]
    lens = [ids.size for ids in doc_ids]
    vecs = np.empty((len(order), dim))
    noise_rngs, perm_rngs = [], []
    for r, d in enumerate(order):
        drng = np.random.default_rng(_hash_seed(b"doc", seed_bytes, docs[d].encode()))
        vecs[r] = drng.normal(0.0, 0.1, size=dim)
        noise_rngs.append(drng)
        perm_rngs.append(_advanced_copy(drng, lens[r] * epochs * negatives))

    # events[s, r] holds document r's s-th event of the current epoch: the
    # positive id, then the noise ids
    longest = lens[0] if order else 0
    events = np.empty((longest, len(order), 1 + negatives), dtype=np.int32)
    for _ in range(epochs):
        for ranks, count in _runs(range(len(order)), lens):
            draws = np.empty((count, negatives))
            lo = 0
            for r in ranks:
                noise_rngs[r].random(out=draws[lo : lo + lens[r]])
                lo += lens[r]
            noise = _noise_ids(noise_cdf, guide, draws)
            lo = 0
            for r in ranks:
                size = lens[r]
                events[:size, r, 0] = perm_rngs[r].permutation(doc_ids[r])
                events[:size, r, 1:] = noise[lo : lo + size]
                lo += size
        n = len(order)  # documents longer than s, a prefix
        for s in range(longest):
            while lens[n - 1] <= s:
                n -= 1
            v = vecs[:n]
            step = events[s, :n]
            u = token_vecs.take(step[:, 0], axis=0)
            u *= (lr * (1.0 - logistic(_row_dot(v, u))))[:, None]
            v += u
            for noise in step[:, 1:].T:
                un = token_vecs.take(noise, axis=0)
                un *= (lr * logistic(_row_dot(v, un)))[:, None]
                v -= un

    out = np.zeros((len(docs), dim))
    out[order] = vecs
    return out


def _advanced_copy(rng: np.random.Generator, draws: int) -> np.random.Generator:
    """A copy of PCG64 generator ``rng`` moved past its next ``draws`` doubles.

    Each double takes one 64-bit output, and ``advance`` skips outputs. The
    copy is built on ``rng``'s own seed sequence, so no fresh entropy is
    drawn, and then takes ``rng``'s state; ``rng`` does not move.
    """
    bits = np.random.PCG64(rng.bit_generator.seed_seq)
    bits.state = rng.bit_generator.state
    bits.advance(draws)
    return np.random.Generator(bits)


def _runs(ranks, lens):
    """``ranks`` in runs of at most ``_LOOKUP_EVENTS`` events (or of one
    document), each with its number of events."""
    run, count = [], 0
    for r in ranks:
        if run and count + lens[r] > _LOOKUP_EVENTS:
            yield run, count
            run, count = [], 0
        run.append(r)
        count += lens[r]
    if run:
        yield run, count


def _noise_cdf(counts) -> np.ndarray:
    """The unigram^0.75 noise CDF over token counts (Mikolov et al., 2013).

    The last entry is pinned to 1, since the cumulative sum can round below
    it and a draw in the gap would name a token one past the vocabulary.
    """
    weights = np.asarray(counts, dtype=np.float64) ** 0.75
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def _guide_table(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An exact guide table over ``cdf`` (Chen & Asau, 1974).

    ``[0, 1)`` splits into ``B`` equal buckets, ``B`` the power of two at or
    above ``8 * len(cdf)``, so most buckets hold no CDF entry or one. Returns
    ``searchsorted(cdf, b / B)`` for each bucket ``b`` (the first entry at or
    above the bucket's start) and whether the bucket holds more than one entry.
    """
    buckets = 1 << (8 * cdf.size - 1).bit_length()
    edges = np.searchsorted(cdf, np.arange(buckets + 1) / buckets)
    return edges[:-1], np.diff(edges) > 1


def _noise_ids(cdf: np.ndarray, guide, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, keys)`` for keys in ``[0, 1)``, through ``guide``.

    A key ``u`` lies in bucket ``b = floor(u * B)`` (exact, as ``B`` is a power
    of two), and its id between the first entries at or above ``b / B`` and
    ``(b + 1) / B``. With at most one entry in the bucket, comparing ``u`` with
    ``cdf[first[b]]`` decides it: an empty bucket's next entry lies at or
    above ``(b + 1) / B > u``. Keys in buckets holding more entries are
    searched. ``cdf[-1]`` must be 1, so that ``first[b]`` is an index of it.
    """
    first, crowded = guide
    b = (keys * first.size).astype(np.intp)
    ids = first[b]
    ids += cdf[ids] < keys
    hard = crowded[b]
    if hard.any():
        ids[hard] = np.searchsorted(cdf, keys[hard])
    return ids


def _row_dot(a, b):
    """Rowwise dot products; rounds as a 1-D ``a[i] @ b[i]`` does."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def load_user_vectors(path, num_users: int, dim: int) -> np.ndarray:
    """A (users, dim) array of precomputed user vectors, one line ``user_id v1 ... vd`` each.

    A line with the wrong width, a non-numeric or non-finite field, an id
    out of range or a repeated id is a ``ParseError`` naming the file and
    line; a user without a line is a ``DataError``.
    """
    path = Path(path)
    vecs = np.zeros((num_users, dim))
    seen_at = np.zeros(num_users, dtype=np.int64)  # line of each user's vector, 0 if none yet
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        if not np.isfinite(vals).all():
            raise ParseError(f"{path}:{lineno}: non-finite value")
        if not 0 <= uid < num_users:
            raise ParseError(f"{path}:{lineno}: user id {uid} out of range")
        if seen_at[uid]:
            raise ParseError(f"{path}:{lineno}: user id {uid} repeats line {seen_at[uid]}")
        vecs[uid] = vals
        seen_at[uid] = lineno
    if not seen_at.all():
        missing = int(np.flatnonzero(seen_at == 0)[0])
        raise DataError(f"user vector file {path} is missing user {missing}")
    return vecs


# ---------------------------------------------------------------------------
# translation-based triple embedding


def transe_train(
    triples: list[KnowledgeTriple],
    num_entities: int,
    num_relations: int,
    dim: int,
    epochs: int,
    seed: int,
) -> TransEModel:
    """Margin-ranking training with uniform head-or-tail corruption.

    Each epoch corrupts every triple once and takes one full-batch SGD step
    of size ``TRANSE_LR`` on the triples whose corruption scores within
    ``TRANSE_MARGIN`` of them. Entity vectors are renormalized to unit
    length after every epoch (and start unit-norm, so a zero-epoch call
    returns the raw initialization).
    """
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

    for _ in range(epochs):
        corrupt = rng.integers(num_entities, size=m)
        corrupt_head = rng.random(m) < 0.5
        hc = np.where(corrupt_head, corrupt, h)
        tc = np.where(corrupt_head, t, corrupt)

        pos_diff = ent[h] + rel[r] - ent[t]
        neg_diff = ent[hc] + rel[r] - ent[tc]
        f_pos = -np.einsum("ij,ij->i", pos_diff, pos_diff)
        f_neg = -np.einsum("ij,ij->i", neg_diff, neg_diff)
        viol = TRANSE_MARGIN - f_pos + f_neg > 0
        if viol.any():
            scale = 2.0 * TRANSE_LR / m
            gpos = pos_diff[viol] * scale
            gneg = neg_diff[viol] * scale
            _add_rows(ent, h[viol], -gpos)
            _add_rows(ent, t[viol], gpos)
            _add_rows(rel, r[viol], -gpos)
            _add_rows(ent, hc[viol], gneg)
            _add_rows(ent, tc[viol], -gneg)
            _add_rows(rel, r[viol], gneg)
        ent = _unit_rows(ent)
    return TransEModel(ent, rel)


def _add_rows(table: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """``np.add.at(table, rows, vals)`` as one scatter over the raveled table.

    Element ``(i, j)`` sits at ``i * dim + j`` and receives the same additions
    in the same order as under the 2-D form, which dispatches once per row.
    ``table`` must be C-contiguous, so that its ravel is a view.
    """
    dim = table.shape[1]
    np.add.at(table.reshape(-1), (rows[:, None] * dim + np.arange(dim)).ravel(), vals.ravel())


def init_objects(
    graph: HeteroGraph,
    alignment: dict[int, int],
    model: TransEModel,
    dim: int,
    seed: int,
) -> np.ndarray:
    """Initial (objects, dim) object vectors: entity vectors where aligned, else random.

    ``alignment`` maps local object id (0..num_objects-1) to an entity id
    in ``model``. Unaligned objects keep their rows of
    ``random_table(graph.num_objects, dim, seed)``.
    """
    if model.dim != dim:
        raise DataError(f"model dim {model.dim} does not match requested dim {dim}")
    vecs = random_table(graph.num_objects, dim, seed)
    for obj, entity in alignment.items():
        vecs[obj] = model.entity_vectors[entity]
    return vecs


def random_table(count: int, dim: int, seed: int) -> np.ndarray:
    """Seeded unit-norm random vectors (featureless-node fallback), a (count, dim) array."""
    rng = np.random.default_rng(seed)
    return _unit_rows(rng.normal(size=(count, dim)))


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
