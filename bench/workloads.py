"""Benchmark workloads, the metric tables, and the fixture cache.

Each workload is one synthetic dataset from ``trustnet.fixtures`` plus the
experiment config that runs on it; ``why`` says which layer it stresses.
PPR at 10x takes minutes today, so no workload runs it. README.md has the
full table.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

FIXTURE_SEED = 0

# per-run totals (seconds or counts) and per-epoch medians, as reported
RUN_METRICS = [
    ("graph.load_s", "s"),
    ("graph.split_s", "s"),
    ("graph.build_view_s", "s"),
    ("graph.view_edges", "count"),
    ("ppr.topk_augment_s", "s"),
    ("ppr.aug_pairs", "count"),
    ("embed.embed_users_s", "s"),
    ("embed.transe_train_s", "s"),
]
EPOCH_METRICS = [
    ("conv.trustor_s", "s/epoch"),
    ("conv.trustee_s", "s/epoch"),
    ("autodiff.edge_matmul_s", "s/epoch"),
    ("autodiff.sparse_matmul_s", "s/epoch"),
    ("autodiff.elu_s", "s/epoch"),
    ("autodiff.gather_s", "s/epoch"),
    ("autodiff.matmul_s", "s/epoch"),
    ("autodiff.tape_records", "count/epoch"),
    ("train.forward_s", "s/epoch"),
    ("train.backward_s", "s/epoch"),
    ("train.adam_step_s", "s/epoch"),
    ("predict.pair_loss_s", "s/epoch"),
    ("predict.eval_s", "s/epoch"),
]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixture_kind: str  # "siot" or "filmtrust", as ``trustnet fixtures`` takes it
    fixture_args: dict  # --users / --objects / --trust; empty = generator defaults
    config: dict  # overrides applied to ``ExperimentConfig`` (nested dicts allowed)

    @property
    def kind(self) -> str:
        return "siot_csv" if self.fixture_kind == "siot" else "filmtrust"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="siot-kg",
            why="SIoT with comments and triples: set-up is the per-token embed_users loop; "
            "small epochs where per-op cost dominates",
            fixture_kind="siot",
            fixture_args={},
            config={"triples": {"enabled": True}, "ppr": {"k": 20}, "epochs": 200},
        ),
        Workload(
            name="filmtrust-3x",
            why="FilmTrust at 3x: set-up is the quadratic dense PPR push; "
            "mid-scale epochs on random trainable tables",
            fixture_kind="filmtrust",
            fixture_args={"users": 4524, "objects": 6213, "trust": 5559},
            config={"ppr": {"k": 20}, "epochs": 12},
        ),
        Workload(
            name="filmtrust-10x-woppr",
            why="FilmTrust at 10x without PPR: sparse autodiff, backward and Adam "
            "on large trainable tables do nearly all the work",
            fixture_kind="filmtrust",
            fixture_args={"users": 15080, "objects": 20710, "trust": 18530},
            config={"ppr": {"enabled": False}, "epochs": 6},
        ),
    )
}


def fixture_key(workload: Workload, fixture_seed: int, generator_source: bytes) -> str:
    """Cache directory name: generator arguments, seed and generator code hash."""
    args = "-".join(f"{k}{v}" for k, v in sorted(workload.fixture_args.items())) or "default"
    digest = hashlib.sha256(generator_source).hexdigest()[:12]
    return f"{workload.fixture_kind}-{args}-seed{fixture_seed}-{digest}"


def ensure_fixture(root: Path, workload: Workload, fixture_seed: int, env: dict) -> Path:
    """Path of the cached fixture, generating it first when absent.

    Generation writes to a temporary directory and renames it into place,
    so an interrupted run leaves no half-written fixture behind.
    """
    source = (root / "src" / "trustnet" / "fixtures.py").read_bytes()
    cache = root / ".bench_cache" / "fixtures"
    target = cache / fixture_key(workload, fixture_seed, source)
    if target.is_dir():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    tmp = cache / f".tmp-{target.name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    cmd = [sys.executable, "-m", "trustnet.cli", "fixtures", workload.fixture_kind,
           "--out", str(tmp), "--seed", str(fixture_seed)]
    for flag, value in workload.fixture_args.items():
        cmd += [f"--{flag}", str(value)]
    subprocess.run(cmd, check=True, env=env, cwd=root, stdout=subprocess.DEVNULL)
    try:
        tmp.rename(target)
    except OSError:  # another run cached it first
        shutil.rmtree(tmp, ignore_errors=True)
    return target
