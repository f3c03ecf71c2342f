"""Byte-level exactness gate: fixture files and run outputs against stored SHA-256s.

A change that keeps outputs identical must leave every digest here as it is.
A change that moves reported numbers on purpose updates the digests in the
same commit and states the before/after values.

The runs use two derived seeds each; ``trace_seed0.csv`` and
``trace_seed1.csv`` are also the first two traces of the three-run settings
(``--runs 3``) that earlier exactness comparisons used.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from trustnet import embed, fixtures, ppr
from trustnet.cli import build_config, build_parser
from trustnet.cli import main as cli_main
from trustnet.experiment import (
    ExperimentConfig,
    TriplesConfig,
    derive_run_seeds,
    load_dataset,
    prepare_run,
)

from test_graph import type_blocks

FIXTURE_DIGESTS = {
    "siot": {
        "interactions.csv": "168346c24d1963fd1c1b05ad8d52c94a04c6ac3ea6e7174fd66015255e6d17c3",
        "objects.csv": "9b6947f420ba5d04d27590dfd8cc937d80bddbd8a02e66989bf5d87845d69432",
        "triples.csv": "2be5bfe16b7259801e3d7ee46cb3dabc03d1f60c06e26939e5c16a2a7d18f852",
        "trust.csv": "6a75591e1e22b46557e2f6a8512b0776c3a1d561883e730fa294283c39da582a",
    },
    "filmtrust": {
        "ratings.txt": "71f6d66d128869b7b6ecb5c5ca64920941f0c6cb38d056004f5244e517328033",
        "trust.txt": "85b9298606ffe6c2e55b84c39b622835863988de81ade35976308c2486b58e7c",
    },
}

RUNS = {
    "siot": ["--kind", "siot_csv", "--triples", "--epochs", "20"],
    "filmtrust": ["--kind", "filmtrust", "--epochs", "10"],
}

OUTPUT_DIGESTS = {
    "siot": {
        "metrics.csv": "c77ee53eac33b50d4b613573b156ddccc0d34a362a432b79860b7ecae5bc2328",
        "trace_seed0.csv": "b36f9d2e5bdd9715c9747212a72e47abcd6f95859d55b7c94e32e94f40b31d27",
        "trace_seed1.csv": "57bb1bd63a37c7d463302c3e20bbd85161ed9d93da5e86600889d5fcba97135f",
    },
    "filmtrust": {
        "metrics.csv": "fccbc11efd467324f79633af3d78f4bb80118adfdbef516e2679de6a2735fc1d",
        "trace_seed0.csv": "957f0e6a7d57b5eab7515ba81017ce1408f61512d722b68a7dec93c8741fc1a3",
        "trace_seed1.csv": "38c66e0e4325e7596df4078510882e6cfa57689cce63e8dd71e59ef64f0bd41c",
    },
}

# Study verbs on the same fixtures, two derived seeds each: ``ablate`` over the default
# variant set of a SIoT config with triples, and a ``sweep`` of ``ppr.k`` on FilmTrust.
STUDIES = {
    "ablate": ("siot", ["--kind", "siot_csv", "--triples"]),
    "sweep": ("filmtrust", ["--kind", "filmtrust", "--param", "ppr_k", "--values", "5,10,20"]),
}

# SHA-256 of every file a study writes: ``metrics.csv`` and each cell's traces under
# ``out/<label>/``. ``metrics.csv`` keeps only the best epoch's test accuracy, which
# ``woTriples`` and ``full`` share on both seeds; the traces tell every epoch's loss apart.
STUDY_DIGESTS = {
    "ablate": {
        "concat/trace_seed0.csv": "e387925d4f074f6b2e3165fdd0f3d12b6a798d1f396ac65743bb039cb576554b",
        "concat/trace_seed1.csv": "f7f58de14e2d555ed1da0b43f3fa638a6d46793c6a4bb5b1e6490a86992db006",
        "full/trace_seed0.csv": "6a54f200fac7cf466e258f0eaa374f2d964d7af1125c0cd0e624958581924fe5",
        "full/trace_seed1.csv": "84b30ca2e38bb72cff235d3f74029bc1cecfcea7c4d00c3f41e9b2be7d865d18",
        "metrics.csv": "4c704b27b8a2a866940ec4980dbc8207eeaf0e527e7a421bad4c2f104c65270a",
        "woPPR/trace_seed0.csv": "0c56839b29e85a89718e086c2b08cbd65a2ad3b2a281eeb9c042c9f490270b8e",
        "woPPR/trace_seed1.csv": "e31a285cb28a4754086470618389dda020953bd2414c2be442652274f66090e8",
        "woTriples/trace_seed0.csv": "0ce597ec3c301ed47a60e9842a7dba92bc13a74fe304613315ecfc0bcede6928",
        "woTriples/trace_seed1.csv": "0d15daf582dbec0396a89479da25be69420a5697d02c4ef1ef18c67f806fee9f",
        "woTrustee/trace_seed0.csv": "174e55433225c0c81e144f7ea4b4ec428dc212aff8b92a43abe9c62a92c3c3f7",
        "woTrustee/trace_seed1.csv": "b59d19cc79a416d417ea7de9e4dfe3bd3fcc34bc74268b8b8c64c3146d7f3012",
        "woTrustor/trace_seed0.csv": "50d31a865c04e6468c85d8b893f0d9f485535fad2badf13ac812fae4ef502300",
        "woTrustor/trace_seed1.csv": "e03722d6ef84bc3e9b260237e9f26fcdae47aa4d9a7cc30000730e1f1e790ee7",
    },
    "sweep": {
        "metrics.csv": "c430af5341923a03e963e1fe956ec41a04c57ec1a0e321d70d6c04516e7da5a2",
        "sweep-ppr_k=10/trace_seed0.csv": "66402c516f0ca037d4d6371a1cd0d82fc1add016a602990591d733661b5ed020",
        "sweep-ppr_k=10/trace_seed1.csv": "f9b1a25e786b40789c11d5833a7d830fafc3b2e9610c3c1e6e9d6ba22bae1acc",
        "sweep-ppr_k=20/trace_seed0.csv": "dc90f12e5dc3921266425893c9fa042170ac4d6aa488b762d7bb1bf173c7f68d",
        "sweep-ppr_k=20/trace_seed1.csv": "0c6156ca26c6648d48e8ced6d0b18f103616ca2c892bbfa0a74dc9d688b71177",
        "sweep-ppr_k=5/trace_seed0.csv": "ad27c7048a57de302e3353e6a4ef87b4916c561778c3120265be52c4c352a856",
        "sweep-ppr_k=5/trace_seed1.csv": "d738750f994e5099d8ae87663edefa5e1499b6bf3c7e33eb2cd7d62881a362a3",
    },
}

# SHA-256 of the set-up tables' float64 bytes for each run seed of the SIoT run above:
# the comment-based user table and the TransE entity and relation tables. The CSVs
# round to 4 and 6 decimals, so a last-bit change in these tables can hide there.
SETUP_DIGESTS = {
    2083679832: {
        "users": "ca69ec2561b7b39ff0d2708e6fe4bdc2edeee8182552707988d88c80cf6b55eb",
        "entities": "0ac0c6bfade7c3f52fc555bf228757bbed1e654f3a008e7007d53c805ac8250b",
        "relations": "1960adcaeb42ad09ccef89799e6bdab614a5d6e8f7a4d944284de8da8538ca71",
    },
    3939563265: {
        "users": "8bc42cb4e636e36675533fde33fd8a526cb141513e5e8902ebb61d5b2b5e770c",
        "entities": "89f1dcad4a7539c487464bd9ecd8d16b4e1bdb9ad0893a56a40b8616f1aea849",
        "relations": "5a0859e89d806597879e09e5ee6c629c380f0f47a2aadc872db38461697a2e64",
    },
}

# SHA-256 of each role view's edge list (``emap.rows`` then ``emap.cols``, int64 bytes)
# for each run seed of the two runs above. A moved PPR pair changes these even where
# the rounded CSVs hide it.
VIEW_DIGESTS = {
    "siot": {
        2083679832: {
            "trustor": "501fbbe61096bb9da4faf037e76bf572d3b8e2164c15e79a7221255d42b66ba8",
            "trustee": "21a9693e6a346291d807464201c38956289a3b5f9e75997b2b60e97fb06afaab",
        },
        3939563265: {
            "trustor": "c1caff91bc40d7363f438c42cbe61b53441e2f4ce2f25f2c242866c690a9ac63",
            "trustee": "78aeb0f62fd09ed93ed7f9b5a994122a637bb0389cdf007dffd861c0d4b2be52",
        },
    },
    "filmtrust": {
        2083679832: {
            "trustor": "755bc0984852760c6834d589aa574f160f8b79cfd2299ed8074f44fa68774127",
            "trustee": "e26af4474f3fb76062bc5da4e6e43ddb81f43161f30bdbeada59e609c0285aeb",
        },
        3939563265: {
            "trustor": "35aecd1710d8af311ec22e3a04456980675a9c85b9c7e994ed73827ff1424075",
            "trustee": "de968b50139a11423a513470bf02d36a3e75826a78662e0d03aff31e3655a06a",
        },
    },
}

# SHA-256 of each role view's normalized adjacency, split by the column's node type, for
# each run seed of the two runs above: the user-column block's float64 ``data``, then the
# object-column block's; both blocks' column ``indices`` (node ids), then their ``indptr``,
# as int64. Recorded from the two per-type CSR matrices that ``GraphView.s_typed`` replaced,
# so these pin that the typed matrix holds their values, in their order.
ADJACENCY_DIGESTS = {
    "siot": {
        2083679832: {
            "trustor": "40fc2dbcbe09a01a6937beda5cc1b3cb97a054d7f1c9c4445615ca25cf5d25e0",
            "trustee": "9e4df7e3e8edf489d4d6a0b5624d15d7eefa7001de68d7daffc4cc00a8b5fbeb",
        },
        3939563265: {
            "trustor": "6a1c9bb982837b0ac9eab8a7234a3cf24e135dc9300837b877050b04f4cfc760",
            "trustee": "38c49e409db5585ea9fa5d8ba7a51cc476299258edb0956d0fc9d68eb7135f15",
        },
    },
    "filmtrust": {
        2083679832: {
            "trustor": "59fb26938c39c0e8790432e60c915196f2d73aa1cd8815db8d9ab52666ff7e6b",
            "trustee": "97ad6717313cc1b1b5420d8997a31cd3e09c9a6a90cdb92430955896d68ca532",
        },
        3939563265: {
            "trustor": "16cbb32bd4fa0a53c626915b33a625591a4a42add612922486a4e996d30b1ed6",
            "trustee": "f1b7d91516e73230065c074625bbe0689144f1910de809a311cc9962e80cf9a9",
        },
    },
}

# SHA-256 of the PPR push's scores for each run seed of the two runs above: ``data``
# (float64), then ``indices`` and ``indptr`` as int64, taken with the push that adds into
# the estimate once per sweep (``oracle_forward_push`` in tests/test_ppr.py). A change to
# any score's bits fails here even where no top-k pair moves.
PUSH_DIGESTS = {
    "siot": {
        2083679832: "a53cc71d1ed780f5b62810be787f6de014eda49f0685bbe2dff98acbf4dfa07a",
        3939563265: "95bd0401adb3ac1ec172d6ecb661d25d9b8cc19c9880ad15ffe7806465a20807",
    },
    "filmtrust": {
        2083679832: "5eae381f5e913de17f2d528492f19f959499064a62ecc122cc3c6cf6ebfe5a3f",
        3939563265: "e9d383f5462bbda9b11fbc93233c178ae8239685f5ee74cc3b51584be280e5c1",
    },
}

# The generators at every other argument set a caller passes: the experiment tests'
# FilmTrust and SIoT datasets, the bench test's SIoT data and a sized CLI call, the path
# the bench's fixtures take. SHA-256 of each file written.
SIZED_FIXTURES = {
    "bench-siot": lambda out: fixtures.make_siot_files(
        out, seed=0, num_users=80, num_objects=40, num_trust=700, mean_comments=3.0
    ),
    "cli-filmtrust": lambda out: cli_main([
        "fixtures", "filmtrust", "--out", str(out), "--seed", "5",
        "--users", "70", "--objects", "50", "--trust", "160",
    ]),
    "experiment-film": lambda out: fixtures.make_filmtrust_files(
        out, seed=3, num_users=90, num_objects=60, num_trust=220, communities=4,
        mean_interactions=5.0,
    ),
    "experiment-siot": lambda out: fixtures.make_siot_files(
        out, seed=3, num_users=60, num_objects=40, num_trust=220, communities=3
    ),
}

SIZED_FIXTURE_DIGESTS = {
    "bench-siot": {
        "interactions.csv": "17da75eb958d765a18a1782180dd5b0e05bcd1bf1100e0f927ea9d5db9b1ddf3",
        "objects.csv": "63b4b327894b19e70ccae4c54fc88b7ca5e24da1f5ff010f6fc1ee970d051409",
        "triples.csv": "46e225a74c69106bcbc13688d8530419eccee400ab31e794a6b13a46a410eb64",
        "trust.csv": "9b592eaf2b240452c0c09eb56d22e6ea622e796ac99f292b9eee0a23ef336d63",
    },
    "cli-filmtrust": {
        "ratings.txt": "1ff901dd140f7ce7f5e56e3c9a6ce65738c22ff93db6587593d557297dd29a3d",
        "trust.txt": "6c36d19395411e09807e7327ab1f62faf86f7199bac4ccef9fb985f8407e7cf7",
    },
    "experiment-film": {
        "ratings.txt": "f0ff5c99d50c0d765de95dc6af7b1518675f7c69e0ba54c99ba848514cb9a9f1",
        "trust.txt": "637654c58208f851c295b0945abb8cb4aa0793996c09e1d7e512e6eef6ccfcdc",
    },
    "experiment-siot": {
        "interactions.csv": "5a2217e2b0b68c3dd4307929315592313273866cfc7bc220521e74725597e070",
        "objects.csv": "fe61d6445d068aff316e225a13c2ee1dc5292dbc01cad406f2f4d3df5d404d9c",
        "triples.csv": "9668e8c8602d8373cc764d7bda6ec1ab8a0695e125a48d07a80a56273badf0ce",
        "trust.csv": "fe5a57b9849202897d07d68adb3207d2322313d4d0041f405a89651adbfc3ae5",
    },
}

# SHA-256 of ``make_pipeline_fixture(seed=1)``'s pieces: the graph's edge arrays, each
# role view's edge list, the two tables' float64 bytes and the sample columns.
PIPELINE_FIXTURE_DIGESTS = {
    "trust_edges": "f11b0dae749d8f62867c4f4d87ef6f3de6c2465b24d894ef6f6ea0d7639a5bc0",
    "interaction_edges": "78bf19ba04a485d5d4d1dae221b5f12c6c98a5ac7005172691ba05c9fc08c391",
    "object_edges": "493630ab4b4b7f42305ac0ec0a28cc67967dc24e9fba10b1c7b058f028a35b45",
    "trustor_view": "0e215ba556dfeb84ebac77706242dc9b1e93f7fc7142f800f5d063ba9c89d708",
    "trustee_view": "30c163577034ad52752c68662f594ab6a7e525e870255be089ee532c9fc9164b",
    "h0_users": "234c3cdf02f2d043ed34d4b13be7d69c5e001a2753f3d712a1b990fbe476aabb",
    "h0_objects": "d19c5903c58be8e81da104d62f7cf9ea8899484377d7580f31f54fb14299eb31",
    "samples": "80a12bcffa182ca3508f84821808227a5ab2a7535019f0cf03712e48f1c51880",
}

HOST_NOTE = (
    "The stored digests were taken on one host. OpenBLAS (DYNAMIC_ARCH) may pick other "
    "kernels on another CPU and change the last bits of a product, so before treating a "
    "mismatch as a regression, run the parent commit's code on the same host and compare "
    "with its output."
)


def digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("kind", ["siot", "filmtrust"])
def test_fixture_and_run_outputs_are_byte_identical(kind, tmp_path):
    data = tmp_path / kind  # metrics.csv names the dataset by its directory
    assert cli_main(["fixtures", kind, "--out", str(data), "--seed", "0"]) == 0
    assert digests(data) == FIXTURE_DIGESTS[kind], f"{kind} fixture files changed. {HOST_NOTE}"

    out = tmp_path / "out"
    args = ["run", "--dataset", str(data), *RUNS[kind], "--runs", "2", "--workers", "1"]
    assert cli_main([*args, "--out", str(out)]) == 0
    assert digests(out) == OUTPUT_DIGESTS[kind], f"{kind} run outputs changed. {HOST_NOTE}"


@pytest.mark.parametrize("verb", sorted(STUDIES))
def test_study_metrics_are_byte_identical(verb, tmp_path):
    kind, flags = STUDIES[verb]
    data = tmp_path / kind
    assert cli_main(["fixtures", kind, "--out", str(data), "--seed", "0"]) == 0
    out = tmp_path / "out"
    args = [verb, "--dataset", str(data), *flags, "--epochs", "5", "--runs", "2", "--workers", "1"]
    assert cli_main([*args, "--out", str(out)]) == 0
    got = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert got == STUDY_DIGESTS[verb], f"{verb} outputs changed. {HOST_NOTE}"


def test_setup_tables_are_byte_identical(tmp_path):
    data = tmp_path / "siot"
    assert cli_main(["fixtures", "siot", "--out", str(data), "--seed", "0"]) == 0
    config = ExperimentConfig(dataset=str(data), kind="siot_csv", triples=TriplesConfig(enabled=True))
    dataset = load_dataset(config)
    ue, kg = config.user_embed, config.triples
    got = {}
    for run_seed in derive_run_seeds(config.seed, 2):
        seeds = prepare_run(dataset, config, run_seed).seeds
        users = embed.embed_users(
            dataset.corpus, config.user_dim, epochs=ue.epochs, seed=seeds["user_embed"], lr=ue.lr
        )
        model = embed.transe_train(
            dataset.triples, dataset.num_entities, dataset.num_relations, dim=config.object_dim,
            epochs=kg.epochs, seed=seeds["transe"],
        )
        tables = {
            "users": users,
            "entities": model.entity_vectors,
            "relations": model.relation_vectors,
        }
        got[run_seed] = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in tables.items()}
    assert got == SETUP_DIGESTS, f"SIoT set-up tables changed. {HOST_NOTE}"


def run_config(kind: str, data: Path) -> ExperimentConfig:
    """The config the exactness run of ``kind`` trains with."""
    return build_config(build_parser().parse_args(["run", "--dataset", str(data), *RUNS[kind], "--runs", "2"]))


@pytest.mark.parametrize("kind", ["siot", "filmtrust"])
def test_role_views_are_byte_identical(kind, tmp_path):
    data = tmp_path / kind
    assert cli_main(["fixtures", kind, "--out", str(data), "--seed", "0"]) == 0
    config = run_config(kind, data)
    dataset = load_dataset(config)
    got = {}
    for run_seed in derive_run_seeds(config.seed, config.runs):
        views = prepare_run(dataset, config, run_seed).views
        got[run_seed] = {
            role.value: hashlib.sha256(view.emap.rows.tobytes() + view.emap.cols.tobytes()).hexdigest()
            for role, view in views.items()
        }
    assert got == VIEW_DIGESTS[kind], f"{kind} role views changed. {HOST_NOTE}"


def adjacency_digest(view) -> str:
    """``ADJACENCY_DIGESTS``' hash of the user-column then object-column block of ``view.s_typed``."""
    blocks = type_blocks(view)
    blob = b"".join(m.data.tobytes() for m in blocks)
    blob += b"".join(m.indices.astype(np.int64).tobytes() for m in blocks)
    blob += b"".join(m.indptr.astype(np.int64).tobytes() for m in blocks)
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("kind", ["siot", "filmtrust"])
def test_typed_adjacency_is_byte_identical(kind, tmp_path):
    data = tmp_path / kind
    assert cli_main(["fixtures", kind, "--out", str(data), "--seed", "0"]) == 0
    config = run_config(kind, data)
    dataset = load_dataset(config)
    got = {}
    for run_seed in derive_run_seeds(config.seed, config.runs):
        views = prepare_run(dataset, config, run_seed).views
        got[run_seed] = {role.value: adjacency_digest(view) for role, view in views.items()}
    assert got == ADJACENCY_DIGESTS[kind], f"{kind} adjacency values changed. {HOST_NOTE}"


@pytest.mark.parametrize("kind", ["siot", "filmtrust"])
def test_push_scores_are_byte_identical(kind, tmp_path, monkeypatch):
    data = tmp_path / kind
    assert cli_main(["fixtures", kind, "--out", str(data), "--seed", "0"]) == 0
    config = run_config(kind, data)
    dataset = load_dataset(config)
    pushed, push = [], ppr.forward_push

    def kept(*args, **kwargs):
        pushed.append(push(*args, **kwargs))
        return pushed[-1]

    monkeypatch.setattr(ppr, "forward_push", kept)
    got = {}
    for run_seed in derive_run_seeds(config.seed, config.runs):
        prepare_run(dataset, config, run_seed)
        (p,) = pushed
        pushed.clear()
        blob = p.data.tobytes() + p.indices.astype(np.int64).tobytes() + p.indptr.astype(np.int64).tobytes()
        got[run_seed] = hashlib.sha256(blob).hexdigest()
    assert got == PUSH_DIGESTS[kind], f"{kind} PPR scores changed. {HOST_NOTE}"


@pytest.mark.parametrize("call", sorted(SIZED_FIXTURES))
def test_sized_fixtures_are_byte_identical(call, tmp_path):
    SIZED_FIXTURES[call](tmp_path)
    assert digests(tmp_path) == SIZED_FIXTURE_DIGESTS[call], f"{call} fixture files changed. {HOST_NOTE}"


def test_pipeline_fixture_is_byte_identical():
    fx = fixtures.make_pipeline_fixture(seed=1)
    g = fx.graph
    pieces = {
        "trust_edges": g.trust_edges,
        "interaction_edges": g.interaction_edges,
        "object_edges": g.object_edges,
        **{f"{role.value}_view": np.concatenate([v.emap.rows, v.emap.cols]) for role, v in fx.views.items()},
        "h0_users": fx.h0_users,
        "h0_objects": fx.h0_objects,
        "samples": np.stack(fx.samples),
    }
    got = {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in pieces.items()}
    assert got == PIPELINE_FIXTURE_DIGESTS, f"pipeline fixture changed. {HOST_NOTE}"
