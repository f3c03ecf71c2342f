"""Deterministic generators for desk-scale synthetic datasets.

The social generators plant community structure: users and objects belong
to latent communities, interactions mostly stay inside a community, and
trust edges concentrate on a social subset with distinct "activity"
(outgoing) and "authority" (incoming) propensities, which makes the two
roles genuinely asymmetric. In 30% (FilmTrust) or 25% (SIoT) of the sampled
trust pairs the trustee is a uniformly random user; this cross-community
noise caps attainable prediction accuracy. Each generator writes its shape
constants at its calls to the shared helpers; only the seed and the sizes
are arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .graph import HeteroGraph, Role, build_view
from .ppr import topk_augment
from .train import PipelineFixture

RATING_LEVELS = np.arange(0.5, 4.01, 0.5)


@dataclass(frozen=True)
class CommunityPlan:
    """Planted structure behind a synthetic social graph.

    Users carry two independent community labels: a social community that
    drives trust formation and a consumption community that drives
    interactions. Each social user also has a role mix (follower vs
    authority), so outgoing and incoming trust propensities differ.
    """

    social_comm: np.ndarray
    consume_comm: np.ndarray
    obj_comm: np.ndarray
    social: np.ndarray
    out_weight: np.ndarray
    in_weight: np.ndarray


def _plan_communities(
    rng: np.random.Generator,
    num_users: int,
    num_objects: int,
    communities: int,
    social_fraction: float,
    role_split: float,
    comm_overlap: float,
    out_flatness: float,
    in_flatness: float,
    role_floor: float,
) -> CommunityPlan:
    weights = (np.arange(communities) + 1.0) ** -0.8
    weights /= weights.sum()
    social_comm = rng.choice(communities, size=num_users, p=weights)
    consume_comm = np.where(
        rng.random(num_users) < comm_overlap,
        social_comm,
        rng.choice(communities, size=num_users, p=weights),
    )
    obj_comm = rng.choice(communities, size=num_objects, p=weights)
    social = rng.random(num_users) < social_fraction
    # ensure trust can form inside every social community
    for c in range(communities):
        members = np.flatnonzero(social_comm == c)
        if members.size >= 4 and social[members].sum() < 4:
            social[rng.choice(members, size=4, replace=False)] = True
    # bimodal role mix: ~1 are followers (emit trust), ~0 are authorities
    # (receive trust); the middle keeps multi-hop chains alive
    role = rng.beta(role_split, role_split, size=num_users)
    out_weight = np.where(
        social, (role_floor + role) * (1.0 + rng.pareto(out_flatness, size=num_users)), 0.0
    )
    in_weight = np.where(
        social, (role_floor + (1.0 - role)) * (1.0 + rng.pareto(in_flatness, size=num_users)), 0.0
    )
    return CommunityPlan(social_comm, consume_comm, obj_comm, social, out_weight, in_weight)


def _sample_trust_edges(
    rng: np.random.Generator,
    plan: CommunityPlan,
    num_users: int,
    num_trust: int,
    cross_noise: float,
    communities: int,
    chain_fraction: float,
) -> list[tuple[int, int]]:
    """Role-weighted within-community edges plus propagated closures.

    A ``chain_fraction`` share of the budget closes existing two-hop
    chains (u trusts a, a trusts v, therefore u comes to trust v), the
    propagation pattern multi-hop augmentation is meant to recover.
    """
    comm_social: list[np.ndarray] = []
    comm_mass = np.zeros(communities)
    for c in range(communities):
        members = np.flatnonzero((plan.social_comm == c) & plan.social)
        comm_social.append(members)
        comm_mass[c] = plan.out_weight[members].sum()
    if not comm_mass.any():
        raise DataError("trust sampling failed: no user can emit trust")
    comm_p = comm_mass / comm_mass.sum()
    if num_trust > num_users * (num_users - 1):
        raise DataError(
            f"cannot sample {num_trust} trust pairs: {num_users} users have only "
            f"{num_users * (num_users - 1)} ordered pairs"
        )
    cap = 200 * num_trust

    def draw_pairs(edges: set, target: int, noise: float) -> None:
        """Add role-weighted pairs within a community to ``edges`` until it holds ``target``.

        A ``noise`` share of the trustees is any user instead; at 0 no coin is drawn.
        """
        attempts = 0
        while len(edges) < target and attempts < cap:
            attempts += 1
            c = int(rng.choice(communities, p=comm_p))
            members = comm_social[c]
            if members.size < 2:
                continue
            out_w = plan.out_weight[members]
            u = int(rng.choice(members, p=out_w / out_w.sum()))
            if noise and rng.random() < noise:
                v = int(rng.integers(num_users))
            else:
                in_w = plan.in_weight[members]
                v = int(rng.choice(members, p=in_w / in_w.sum()))
            if u != v:
                edges.add((u, v))
        if len(edges) < target:
            raise DataError("trust sampling failed to reach the requested edge count")

    edges: set[tuple[int, int]] = set()
    draw_pairs(edges, num_trust - int(round(chain_fraction * num_trust)), cross_noise)

    edge_list = sorted(edges)
    out_adj: dict[int, list[int]] = {}
    for x, v in edge_list:
        out_adj.setdefault(x, []).append(v)
    attempts = 0
    while len(edges) < num_trust and attempts < cap:
        attempts += 1
        u, node = edge_list[int(rng.integers(len(edge_list)))]
        # walk up to four further hops before closing; the deep closures
        # sit beyond what stacked two-layer views can reach without
        # explicit multi-hop augmentation
        extra = 1 + int(rng.integers(4))
        for _ in range(extra):
            hops = out_adj.get(node)
            if not hops:
                break
            node = hops[int(rng.integers(len(hops)))]
        if node != u and (u, node) not in edges:
            edges.add((u, node))
            edge_list.append((u, node))
            out_adj.setdefault(u, []).append(node)
    # chain closure saturated; top up with ordinary pairs
    draw_pairs(edges, num_trust, 0.0)
    return sorted(edges)


def _pick_object(rng: np.random.Generator, own: np.ndarray, rate: float, popularity: np.ndarray) -> int:
    """An object of ``own`` at ``rate`` (when it has any), else any object; by popularity."""
    if own.size > 0 and rng.random() < rate:
        return int(rng.choice(own, p=popularity[own] / popularity[own].sum()))
    return int(rng.choice(popularity.size, p=popularity / popularity.sum()))


def _sample_interactions(
    rng: np.random.Generator,
    plan: CommunityPlan,
    num_users: int,
    num_objects: int,
    mean_per_user: float,
    communities: int,
) -> list[tuple[int, int]]:
    """Popularity-weighted ratings, 85% of them inside the user's consumption community."""
    popularity = 1.0 + rng.pareto(1.5, size=num_objects)
    comm_objects = [np.flatnonzero(plan.obj_comm == c) for c in range(communities)]
    pairs: set[tuple[int, int]] = set()
    for u in range(num_users):
        count = 1 + rng.poisson(max(mean_per_user - 1.0, 0.0))
        own = comm_objects[plan.consume_comm[u]]
        for _ in range(count):
            pairs.add((u, _pick_object(rng, own, 0.85, popularity)))
    # every object shows up at least once so loaders see the full roster
    rated = {o for _, o in pairs}
    for o in range(num_objects):
        if o not in rated:
            pairs.add((int(rng.integers(num_users)), o))
    return sorted(pairs)


def make_filmtrust_files(
    out_dir,
    seed: int = 0,
    num_users: int = 1508,
    num_objects: int = 2071,
    num_trust: int = 1853,
    communities: int = 12,
    mean_interactions: float = 8.0,
) -> tuple[Path, Path]:
    """Write ratings.txt / trust.txt in the whitespace-separated format.

    Default sizes mirror the public film-review benchmark (1508 users,
    2071 objects, 1853 trust edges). External ids are shuffled 1-based
    integers so loaders must remap.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    plan = _plan_communities(
        rng, num_users, num_objects, communities, social_fraction=0.42, role_split=0.4,
        comm_overlap=0.0, out_flatness=1.6, in_flatness=2.2, role_floor=0.08,
    )
    trust = _sample_trust_edges(
        rng, plan, num_users, num_trust, cross_noise=0.30, communities=communities, chain_fraction=0.0
    )
    interactions = _sample_interactions(rng, plan, num_users, num_objects, mean_interactions, communities)

    ext_user = rng.permutation(num_users) + 1
    ext_obj = rng.permutation(num_objects) + 1

    ratings_path = out_dir / "ratings.txt"
    trust_path = out_dir / "trust.txt"
    lines = []
    for u, o in interactions:
        rating = RATING_LEVELS[rng.integers(len(RATING_LEVELS))]
        lines.append(f"{ext_user[u]} {ext_obj[o]} {rating}")
    rng.shuffle(lines)
    ratings_path.write_text("\n".join(lines) + "\n")
    tlines = [f"{ext_user[a]} {ext_user[b]} 1" for a, b in trust]
    rng.shuffle(tlines)
    trust_path.write_text("\n".join(tlines) + "\n")
    return ratings_path, trust_path


_COMMENT_SHARED = [f"word{i}" for i in range(40)]


def _comment_text(rng: np.random.Generator, community: int, community_share: float) -> str:
    length = int(rng.integers(4, 9))
    toks = []
    for _ in range(length):
        if rng.random() < community_share:
            toks.append(f"c{community}tok{int(rng.integers(25))}")
        else:
            toks.append(_COMMENT_SHARED[int(rng.integers(len(_COMMENT_SHARED)))])
    return " ".join(toks)


def make_siot_files(
    out_dir,
    seed: int = 0,
    num_users: int = 300,
    num_objects: int = 220,
    communities: int = 6,
    num_trust: int = 800,
    mean_comments: float = 22.0,
) -> Path:
    """Write a CSV bundle: trust.csv, interactions.csv, objects.csv, triples.csv.

    Consumption happens in narrow niches (four per trust community): a
    user rates objects of one niche 90% of the time, and 30% of comment
    tokens come from the niche vocabulary. Trust forms at the community
    level, so co-consumption alone cannot relate users of sibling niches;
    the triple file links every object entity to its community-level
    category (and a community brand), which is the only bridge across
    niches. Each category and brand triple names a random community 8% of
    the time, and 8% of objects have no entity. About 8% of users get at
    most 15 comments, so the loader's comment-count threshold drops them,
    exercising the filter.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    plan = _plan_communities(
        rng, num_users, num_objects, communities, social_fraction=0.8, role_split=0.35,
        comm_overlap=0.95, out_flatness=1.6, in_flatness=3.0, role_floor=0.05,
    )
    trust = _sample_trust_edges(
        rng, plan, num_users, num_trust, cross_noise=0.25, communities=communities, chain_fraction=0.45
    )

    # niches partition each community's object pool; users consume inside
    # one niche of their (consumption) community
    niches = 4
    obj_niche = plan.obj_comm * niches + rng.integers(niches, size=num_objects)
    user_niche = plan.consume_comm * niches + rng.integers(niches, size=num_users)
    popularity = 1.0 + rng.pareto(1.5, size=num_objects)
    niche_objects = [np.flatnonzero(obj_niche == nn) for nn in range(communities * niches)]

    inter_rows: list[tuple[str, str, str]] = []
    for u in range(num_users):
        if rng.random() < 0.08:
            count = int(rng.integers(3, 16))  # at most 15 -> filtered out
        else:
            count = int(rng.integers(17, max(18, int(2 * mean_comments - 17))))
        own = niche_objects[user_niche[u]]
        for _ in range(count):
            o = _pick_object(rng, own, 0.9, popularity)
            inter_rows.append((f"u{u}", f"o{o}", _comment_text(rng, int(user_niche[u]), 0.3)))

    entity_names = [f"ent_obj_{o}" for o in range(num_objects)]
    aligned = rng.random(num_objects) >= 0.08

    triples: list[tuple[str, str, str]] = []
    brands_per_comm = 2
    for o in range(num_objects):
        c = plan.obj_comm[o]
        cat = c if rng.random() >= 0.08 else int(rng.integers(communities))
        triples.append((entity_names[o], "category", f"cat_{cat}"))
        brand_comm = c if rng.random() >= 0.08 else int(rng.integers(communities))
        brand = int(rng.integers(brands_per_comm))
        triples.append((entity_names[o], "brand", f"brand_{brand_comm}_{brand}"))

    (out_dir / "trust.csv").write_text(
        "trustor,trustee\n" + "".join(f"u{a},u{b}\n" for a, b in trust)
    )
    (out_dir / "interactions.csv").write_text(
        "user,object,comment\n" + "".join(f"{u},{o},{c}\n" for u, o, c in inter_rows)
    )
    (out_dir / "objects.csv").write_text(
        "object,entity_name\n"
        + "".join(
            f"o{o},{entity_names[o] if aligned[o] else ''}\n" for o in range(num_objects)
        )
    )
    (out_dir / "triples.csv").write_text(
        "head_entity,relation,tail_entity\n" + "".join(f"{h},{r},{t}\n" for h, r, t in triples)
    )
    return out_dir


def make_pipeline_fixture(seed: int = 0) -> PipelineFixture:
    """A hand-sized graph of 5 users and 3 objects: both role views, 4-wide tables, samples."""
    rng = np.random.default_rng(seed)
    graph = HeteroGraph(
        num_users=5,
        num_objects=3,
        trust_edges=[(0, 1), (1, 2), (2, 0), (3, 1), (0, 4)],
        interaction_edges=sorted({(u, 5 + int(rng.integers(3))) for u in range(5)}),
        object_edges=[(5, 6)],
    )
    augmented = topk_augment(graph, k=2, lam=0.15, epsilon=1e-8)
    views = {
        Role.TRUSTOR: build_view(graph, augmented, Role.TRUSTOR),
        Role.TRUSTEE: build_view(graph, augmented, Role.TRUSTEE),
    }
    h0_users = rng.normal(size=(5, 4))
    h0_objects = rng.normal(size=(3, 4))
    # (trustor, trustee, label) rows
    samples = np.array([(0, 1, 1), (1, 2, 1), (2, 1, 0), (3, 4, 0), (0, 3, 0), (3, 1, 1)])
    return PipelineFixture(
        graph=graph,
        views=views,
        h0_users=h0_users,
        h0_objects=h0_objects,
        samples=tuple(samples.T.copy()),
    )
