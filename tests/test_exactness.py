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

import pytest

from trustnet.cli import main as cli_main

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
        "trace_seed0.csv": "41fc0b02df687ea9734eec50c934bf0a19c0d4b362a599514c68c96f9a8e4da6",
        "trace_seed1.csv": "ec145eaf55af2d906d98a454a2b87c346794654f6100d1fbd13473038169e992",
    },
    "filmtrust": {
        "metrics.csv": "dc34c8ed3b790ed5fd5e2550d47912a4b6ebc6ba8a93d0866c701aed60c7f981",
        "trace_seed0.csv": "ed26314ef9a01e9b7d718a4c317fec6ea574ad02d58093f71f1e5f0ceeb52833",
        "trace_seed1.csv": "1165da2d7dc151907172285d286d1fa9efd949db38f4558d5f3da417d1366d41",
    },
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
