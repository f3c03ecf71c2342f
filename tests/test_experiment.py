import csv
import json
import logging

import numpy as np
import pytest

from trustnet.cli import main as cli_main
from trustnet.errors import ConfigError
from trustnet.experiment import (
    ABLATION_VARIANTS,
    ExperimentConfig,
    config_diff,
    derive_run_seeds,
    flatten_config,
    load_dataset,
    make_ablation,
    run,
    run_single,
    sweep,
)
from trustnet.fixtures import make_filmtrust_files, make_siot_files


@pytest.fixture(scope="module")
def film_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("film")
    make_filmtrust_files(
        path, seed=3, num_users=90, num_objects=60, num_trust=220, communities=4,
        mean_interactions=5.0,
    )
    return path


@pytest.fixture(scope="module")
def siot_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("siot")
    make_siot_files(path, seed=3, num_users=60, num_objects=40, num_trust=220, communities=3)
    return path


def small_config(film_dir, **kw):
    cfg = ExperimentConfig(
        dataset=str(film_dir),
        kind="filmtrust",
        runs=1,
        epochs=8,
        latent_dim=6,
        user_dim=6,
        object_dim=6,
        workers=1,
    )
    cfg.ppr.k = 3
    for key, value in kw.items():
        setattr(cfg, key, value)
    return cfg


class TestConfig:
    def test_validate_catches_bad_fields(self, film_dir):
        cfg = small_config(film_dir)
        cfg.train_ratio = 1.5
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = small_config(film_dir)
        cfg.ppr.lam = 0.0
        with pytest.raises(ConfigError):
            cfg.validate()
        cfg = small_config(film_dir)
        cfg.roles.trustor_enabled = False
        cfg.roles.trustee_enabled = False
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize(
        "field,value", [("epochs", -2), ("negatives", -1), ("lr", 0.0), ("min_count", 0)]
    )
    def test_validate_catches_bad_user_embed(self, film_dir, field, value):
        cfg = small_config(film_dir)
        setattr(cfg.user_embed, field, value)
        with pytest.raises(ConfigError, match=f"user_embed.{field}"):
            cfg.validate()

    def test_json_roundtrip(self, film_dir, tmp_path):
        cfg = small_config(film_dir)
        cfg.ppr.k = 17
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert config_diff(cfg, loaded) == []

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"no_such_field": 1})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"ppr": {"bogus": 2}})

    def test_flatten_contains_nested_keys(self, film_dir):
        flat = flatten_config(small_config(film_dir))
        assert "ppr.k" in flat and "optim.lr" in flat and "fusion" in flat


class TestAblations:
    def test_each_variant_changes_exactly_one_field(self, film_dir):
        cfg = small_config(film_dir)
        cfg.triples.enabled = True  # so woTriples applies
        for variant in ABLATION_VARIANTS:
            changed = config_diff(cfg, make_ablation(cfg, variant))
            assert len(changed) == 1, (variant, changed)

    def test_wotriples_requires_triples(self, film_dir):
        with pytest.raises(ConfigError):
            make_ablation(small_config(film_dir), "woTriples")

    def test_unknown_variant(self, film_dir):
        with pytest.raises(ConfigError):
            make_ablation(small_config(film_dir), "noSuchThing")

    def test_wotrustor_equals_single_role_run(self, film_dir):
        cfg = small_config(film_dir)
        dataset = load_dataset(cfg)
        ablated = make_ablation(cfg, "woTrustor")
        a = run(ablated, dataset=dataset)
        direct = small_config(film_dir)
        direct.roles.trustor_enabled = False
        b = run(direct, dataset=dataset)
        assert a.accuracy == b.accuracy
        assert a.f1 == b.f1


class TestRun:
    def test_deterministic_metrics_rows(self, film_dir):
        cfg = small_config(film_dir, runs=2)
        a = run(cfg)
        b = run(cfg)
        assert a.rows() == b.rows()

    def test_seed_derivation_deterministic(self):
        assert derive_run_seeds(7, 3) == derive_run_seeds(7, 3)
        assert derive_run_seeds(7, 3) != derive_run_seeds(8, 3)

    def test_parallel_matches_serial(self, film_dir):
        cfg_serial = small_config(film_dir, runs=2)
        cfg_par = small_config(film_dir, runs=2, workers=2)
        assert run(cfg_serial).rows() == run(cfg_par).rows()

    def test_trace_shape(self, film_dir):
        cfg = small_config(film_dir)
        result = run_single(load_dataset(cfg), cfg, 42)
        assert len(result.trace) == cfg.epochs + 1
        epochs = [row[0] for row in result.trace]
        assert epochs == list(range(cfg.epochs + 1))

    def test_disabled_role_runs(self, film_dir):
        cfg = small_config(film_dir)
        cfg.roles.trustee_enabled = False
        summary = run(cfg)
        assert 0.0 <= summary.accuracy <= 100.0

    def test_siot_with_triples(self, siot_dir):
        cfg = ExperimentConfig(
            dataset=str(siot_dir),
            kind="siot_csv",
            runs=1,
            epochs=6,
            latent_dim=6,
            user_dim=6,
            object_dim=6,
            workers=1,
        )
        cfg.ppr.k = 3
        cfg.triples.enabled = True
        cfg.triples.epochs = 10
        cfg.user_embed.epochs = 2
        summary = run(cfg)
        assert 0.0 <= summary.accuracy <= 100.0


class TestSweep:
    def test_single_value_equals_run(self, film_dir):
        cfg = small_config(film_dir)
        dataset = load_dataset(cfg)
        series = sweep(cfg, "ppr_k", [3], dataset=dataset)
        direct = run(cfg, dataset=dataset)
        assert series[0].accuracy == direct.accuracy

    def test_sweep_row_count(self, film_dir, tmp_path):
        cfg = small_config(film_dir)
        summaries = sweep(cfg, "ppr_k", [2, 3, 4], out_dir=tmp_path)
        assert len(summaries) == 3
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        # header + 3 values x (1 seed row + 1 mean row)
        assert len(lines) == 1 + 3 * 2

    def test_unknown_param(self, film_dir):
        with pytest.raises(ConfigError):
            sweep(small_config(film_dir), "dropout", [0.1])


class TestCli:
    def test_run_writes_metrics(self, film_dir, tmp_path):
        out = tmp_path / "out"
        rc = cli_main(
            [
                "run",
                "--dataset", str(film_dir),
                "--kind", "filmtrust",
                "--runs", "1",
                "--epochs", "5",
                "--latent-dim", "6",
                "--user-dim", "6",
                "--object-dim", "6",
                "--ppr-k", "3",
                "--workers", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = (out / "metrics.csv").read_text()
        assert text.splitlines()[0] == "dataset,ratio,seed,variant,accuracy,f1"
        assert (out / "trace.csv").exists()

    def test_identical_invocations_identical_bytes(self, film_dir, tmp_path):
        args = [
            "run",
            "--dataset", str(film_dir),
            "--kind", "filmtrust",
            "--runs", "2",
            "--epochs", "5",
            "--latent-dim", "6",
            "--user-dim", "6",
            "--object-dim", "6",
            "--ppr-k", "3",
            "--workers", "1",
            "--seed", "9",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        rc = cli_main(["run", "--dataset", str(tmp_path), "--kind", "filmtrust", "--train-ratio", "2.0"])
        assert rc == 1

    def test_bad_user_embed_config_file_exit_code(self, siot_dir, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(
            json.dumps({"dataset": str(siot_dir), "kind": "siot_csv", "user_embed": {"negatives": -1}})
        )
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: user_embed.negatives" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path):
        rc = cli_main(["run", "--dataset", str(tmp_path / "missing"), "--kind", "filmtrust"])
        assert rc == 2

    def test_config_file_with_override(self, film_dir, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg = small_config(film_dir, epochs=4)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli_main(["run", "--config", str(cfg_path), "--epochs", "2", "--out", str(tmp_path / "o")])
        assert rc == 0
        trace = (tmp_path / "o" / "trace.csv").read_text().strip().splitlines()
        assert len(trace) == 1 + 3  # header + epochs 0..2

    def test_fixtures_and_ablate_verbs(self, tmp_path):
        data = tmp_path / "fx"
        rc = cli_main(
            ["fixtures", "filmtrust", "--out", str(data), "--users", "70", "--objects", "50", "--trust", "160", "--seed", "5"]
        )
        assert rc == 0
        rc = cli_main(
            [
                "ablate",
                "--dataset", str(data),
                "--kind", "filmtrust",
                "--runs", "1",
                "--epochs", "4",
                "--latent-dim", "6",
                "--user-dim", "6",
                "--object-dim", "6",
                "--ppr-k", "2",
                "--workers", "1",
                "--variant", "woPPR",
                "--out", str(tmp_path / "ao"),
            ]
        )
        assert rc == 0
        text = (tmp_path / "ao" / "metrics.csv").read_text()
        assert ",woPPR," in text and ",full," in text

    def test_ablate_default_runs_every_applicable_variant(self, film_dir, tmp_path, caplog):
        out = tmp_path / "ab"
        args = [
            "ablate",
            "--dataset", str(film_dir),
            "--kind", "filmtrust",
            "--runs", "1",
            "--epochs", "2",
            "--latent-dim", "6",
            "--user-dim", "6",
            "--object-dim", "6",
            "--ppr-k", "2",
            "--workers", "1",
            "--out", str(out),
        ]
        with caplog.at_level(logging.WARNING, logger="trustnet.cli"):
            assert cli_main(args) == 0
        with (out / "metrics.csv").open(newline="") as fh:
            variants = {row["variant"] for row in csv.DictReader(fh)}
        assert variants == {"full", "woPPR", "woTrustee", "woTrustor", "concat"}
        assert any("woTriples" in rec.getMessage() for rec in caplog.records)

    def test_ablate_inapplicable_variant_is_config_error(self, film_dir, tmp_path):
        rc = cli_main(
            ["ablate", "--dataset", str(film_dir), "--kind", "filmtrust", "--epochs", "2",
             "--variant", "woTriples", "--out", str(tmp_path / "ab")]
        )
        assert rc == 1
        assert not (tmp_path / "ab" / "metrics.csv").exists()

    def test_checkpoint_roundtrip_via_cli(self, film_dir, tmp_path):
        ckpt = tmp_path / "model.npz"
        base = [
            "--dataset", str(film_dir),
            "--kind", "filmtrust",
            "--runs", "1",
            "--epochs", "4",
            "--latent-dim", "6",
            "--user-dim", "6",
            "--object-dim", "6",
            "--ppr-k", "3",
            "--workers", "1",
        ]
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        assert ckpt.exists()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 0

    def test_sweep_verb(self, film_dir, tmp_path):
        rc = cli_main(
            [
                "sweep",
                "--dataset", str(film_dir),
                "--kind", "filmtrust",
                "--runs", "1",
                "--epochs", "3",
                "--latent-dim", "6",
                "--user-dim", "6",
                "--object-dim", "6",
                "--ppr-k", "2",
                "--workers", "1",
                "--param", "train_ratio",
                "--values", "0.5,0.9",
                "--out", str(tmp_path / "sw"),
            ]
        )
        assert rc == 0
