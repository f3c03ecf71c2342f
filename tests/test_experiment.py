import argparse
import contextlib
import csv
import dataclasses
import io
import json
import logging
import types
import typing
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trustnet import experiment, train
from trustnet.cli import _ablation_variants, _add_config_flags, build_config
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
from trustnet.graph import Role


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
    def test_concat_of_both_roles_needs_an_even_latent_dim(self, film_dir):
        cfg = small_config(film_dir, latent_dim=5, fusion="concat")
        with pytest.raises(ConfigError, match="concat fusion of both roles needs an even latent_dim, got 5"):
            cfg.validate()
        cfg.roles.trustee_enabled = False  # one role fills the whole width
        cfg.validate()
        small_config(film_dir, latent_dim=4, fusion="concat").validate()

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

    def test_from_dict_takes_values_its_annotations_allow(self):
        cfg = ExperimentConfig.from_dict(
            {"train_ratio": 1, "workers": None, "train_initial": None, "ppr": {"lam": 0}, "triples": {"path": None}}
        )
        assert cfg.train_ratio == 1.0 and type(cfg.train_ratio) is float
        assert cfg.ppr.lam == 0.0 and type(cfg.ppr.lam) is float
        assert cfg.workers is None and cfg.train_initial is None and cfg.triples.path is None

    @pytest.mark.parametrize(
        "data,field",
        [
            ({"epochs": "3"}, "epochs"),
            ({"epochs": True}, "epochs"),
            ({"epochs": 3.0}, "epochs"),
            ({"train_ratio": False}, "train_ratio"),
            ({"train_ratio": None}, "train_ratio"),
            ({"train_initial": 1}, "train_initial"),
            ({"kind": None}, "kind"),
            ({"workers": "2"}, "workers"),
            ({"ppr": 5}, "ppr"),
            ({"ppr": {"enabled": "yes"}}, "ppr.enabled"),
            ({"optim": {"lr": None}}, "optim.lr"),
            ({"triples": {"path": 3}}, "triples.path"),
            ({"user_embed": []}, "user_embed"),
            ({"optim": {"lr": float("nan")}}, "optim.lr"),
            ({"optim": {"weight_decay": float("nan")}}, "optim.weight_decay"),
            ({"ppr": {"epsilon": float("inf")}}, "ppr.epsilon"),
            ({"optim": {"lr": 10**400}}, "optim.lr"),
        ],
    )
    def test_from_dict_rejects_values_of_another_type(self, data, field):
        with pytest.raises(ConfigError, match=rf"^{field} must be "):
            ExperimentConfig.from_dict(data)

    def test_from_dict_rejects_a_non_object(self):
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            ExperimentConfig.from_dict([1])

    @pytest.mark.parametrize(
        "field,value", [("epochs", -3), ("neg_per_pos", 0), ("lr", 0.0), ("lr", -0.05), ("margin", 0.0)]
    )
    def test_validate_catches_bad_triples_when_enabled(self, film_dir, field, value):
        cfg = small_config(film_dir)
        setattr(cfg.triples, field, value)
        cfg.validate()  # unused while triples are off, as ppr fields are while ppr is off
        cfg.triples.enabled = True
        with pytest.raises(ConfigError, match=f"triples.{field}"):
            cfg.validate()

    def test_flatten_contains_nested_keys(self, film_dir):
        flat = flatten_config(small_config(film_dir))
        assert "ppr.k" in flat and "optim.lr" in flat and "fusion" in flat


# every flag of _add_config_flags but --config, with the fields it sets
FLAG_CASES = [
    (["--dataset", "d"], {"dataset": "d"}),
    (["--kind", "siot_csv"], {"kind": "siot_csv"}),
    (["--train-ratio", "0.5"], {"train_ratio": 0.5}),
    (["--seed", "3"], {"seed": 3}),
    (["--runs", "2"], {"runs": 2}),
    (["--epochs", "5"], {"epochs": 5}),
    (["--latent-dim", "8"], {"latent_dim": 8}),
    (["--user-dim", "9"], {"user_dim": 9}),
    (["--object-dim", "10"], {"object_dim": 10}),
    (["--num-layers", "3"], {"num_layers": 3}),
    (["--fusion", "concat"], {"fusion": "concat"}),
    (["--train-initial", "true"], {"train_initial": True}),
    (["--train-initial", "false"], {"train_initial": False}),
    (["--workers", "2"], {"workers": 2}),
    (["--ppr-k", "5"], {"ppr.k": 5}),
    (["--ppr-lambda", "0.3"], {"ppr.lam": 0.3}),
    (["--ppr-epsilon", "1e-5"], {"ppr.epsilon": 1e-5}),
    (["--no-ppr"], {"ppr.enabled": False}),
    (["--no-trustor"], {"roles.trustor_enabled": False}),
    (["--no-trustee"], {"roles.trustee_enabled": False}),
    (["--triples"], {"triples.enabled": True}),
    (["--triples-path", "t.csv"], {"triples.path": "t.csv", "triples.enabled": True}),
    (["--triples-epochs", "7"], {"triples.epochs": 7}),
    (["--full-kg"], {"triples.full_kg": True}),
    (["--lr", "0.01"], {"optim.lr": 0.01}),
    (["--weight-decay", "0.001"], {"optim.weight_decay": 0.001}),
    (["--user-vectors", "v.txt"], {"user_embed.vectors_path": "v.txt"}),
]


def config_flag_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    return parser


def parse_config_flags(argv) -> argparse.Namespace:
    return config_flag_parser().parse_args(argv)


def changed_fields(config: ExperimentConfig, base: ExperimentConfig) -> dict:
    flat, before = flatten_config(config), flatten_config(base)
    return {key: value for key, value in flat.items() if value != before[key]}


class TestBuildConfig:
    def test_cases_cover_every_flag(self):
        actions = config_flag_parser()._actions
        flags = {opt for action in actions for opt in action.option_strings}
        assert flags - {"-h", "--help", "--config"} == {argv[0] for argv, _ in FLAG_CASES}

    @pytest.mark.parametrize("argv,expected", FLAG_CASES, ids=[" ".join(a) for a, _ in FLAG_CASES])
    def test_flag_sets_exactly_its_fields(self, argv, expected):
        config = build_config(parse_config_flags(argv))
        assert changed_fields(config, ExperimentConfig()) == expected

    def test_flags_override_the_config_file_and_unset_flags_keep_it(self, tmp_path):
        stored = ExperimentConfig(epochs=3, train_initial=True)
        stored.ppr.enabled = False
        stored.triples.enabled = True
        stored.roles.trustee_enabled = False
        path = tmp_path / "c.json"
        path.write_text(json.dumps(stored.to_dict()))

        kept = build_config(parse_config_flags(["--config", str(path)]))
        assert changed_fields(kept, stored) == {}
        overridden = build_config(
            parse_config_flags(["--config", str(path), "--epochs", "9", "--train-initial", "auto"])
        )
        assert changed_fields(overridden, stored) == {"epochs": 9, "train_initial": None}


class TestAblations:
    def test_each_variant_changes_exactly_one_field(self, film_dir):
        cfg = small_config(film_dir)
        cfg.triples.enabled = True  # so woTriples applies
        for variant in ABLATION_VARIANTS:
            changed = config_diff(cfg, make_ablation(cfg, variant))
            assert len(changed) == 1, (variant, changed)

    def test_concat_with_an_odd_latent_dim_is_rejected_or_skipped(self, film_dir, caplog):
        cfg = small_config(film_dir, latent_dim=3)
        cfg.validate()  # gate fusion takes any width
        with pytest.raises(ConfigError, match="even latent_dim, got 3"):
            make_ablation(cfg, "concat")
        with caplog.at_level(logging.WARNING, logger="trustnet.cli"):
            variants = _ablation_variants(cfg, None)
        assert "concat" not in variants and "woTrustor" in variants
        assert any("skipping ablation concat" in rec.getMessage() for rec in caplog.records)

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

    def test_next_forward_holds_nothing_of_the_previous_step(self, film_dir, monkeypatch):
        # weak references to a step's fused output, loss, tape and gradients
        # are dead when the next epoch's fused_users call starts, and the
        # fused output already when the backward returns
        refs, watched, leftovers, z_freed = {}, [], [], []
        fused_users, pair_loss, backward = train.fused_users, experiment.pair_loss, experiment.backward

        def spy_fused_users(*args):
            if refs:
                watched.append(sorted(refs))
                leftovers.append(sorted(key for key, ref in refs.items() if ref() is not None))
                refs.clear()
            z = fused_users(*args)
            refs["z"] = weakref.ref(z.value)
            return z

        def spy_pair_loss(*args):
            loss = pair_loss(*args)
            refs["loss"] = weakref.ref(loss.value)
            return loss

        def spy_backward(tape):
            grads = backward(tape)
            z_freed.append(refs["z"]() is None)
            refs["tape"] = weakref.ref(tape)
            refs.update((f"grad{k}", weakref.ref(g)) for k, g in enumerate(grads.values()))
            return grads

        monkeypatch.setattr(train, "fused_users", spy_fused_users)
        monkeypatch.setattr(experiment, "pair_loss", spy_pair_loss)
        monkeypatch.setattr(experiment, "backward", spy_backward)
        cfg = small_config(film_dir, epochs=3)
        run_single(load_dataset(cfg), cfg, 42)
        assert all({"z", "loss", "tape", "grad0"} <= set(keys) for keys in watched)
        assert len(watched) == cfg.epochs and leftovers == [[]] * cfg.epochs
        assert z_freed == [True] * cfg.epochs

    def test_disabled_role_runs(self, film_dir):
        cfg = small_config(film_dir)
        cfg.roles.trustee_enabled = False
        summary = run(cfg)
        assert 0.0 <= summary.accuracy <= 100.0

    @pytest.mark.parametrize("trustor,trustee", [(True, True), (True, False), (False, True)])
    def test_one_forward_and_score_per_epoch_one_view_per_role(
        self, film_dir, monkeypatch, trustor, trustee
    ):
        # the benchmark wraps these names and times epochs between fused_users calls
        seen = {}

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen.setdefault(name, []).append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(train, "fused_users")
        spy(experiment, "classification_metrics")
        spy(experiment, "build_view")
        cfg = small_config(film_dir, epochs=3)
        cfg.roles.trustor_enabled, cfg.roles.trustee_enabled = trustor, trustee
        run_single(load_dataset(cfg), cfg, 42)
        assert len(seen["fused_users"]) == cfg.epochs + 1
        assert len(seen["classification_metrics"]) == cfg.epochs + 1
        roles = [role for role, on in ((Role.TRUSTOR, trustor), (Role.TRUSTEE, trustee)) if on]
        assert [args[2] for args in seen["build_view"]] == roles

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


def rewrite_meta(ckpt, edit) -> None:
    """Replace a checkpoint's ``__meta__`` record by ``edit`` of it."""
    data = dict(np.load(ckpt))
    meta = edit(json.loads(bytes(data["__meta__"]).decode()))
    data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(ckpt, **data)


def rewrite_provenance(ckpt, edit) -> None:
    """Apply ``edit`` to a checkpoint's stored provenance."""
    rewrite_meta(ckpt, lambda meta: {**meta, "provenance": edit(meta["provenance"])})


def rewrite_stored_config(ckpt, edit) -> None:
    """Apply ``edit`` to the training config stored in a checkpoint's provenance."""
    rewrite_provenance(ckpt, lambda provenance: {**provenance, "config": edit(provenance["config"])})


def npy_bytes(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


MISSING = object()  # a checkpoint __meta__ field left out


BAD_SEED = "run_seed must be a non-negative integer, got "
BAD_GRAPH = "graph_sha256 must be a string, got "


def checkpoint_run_flags(film_dir) -> list[str]:
    return [
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

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"ppr": 5}, "ppr must be a JSON object, got 5"),
            ({"optim": {"lr": None}}, "optim.lr must be float, got None"),
            ({"epochs": "3"}, "epochs must be int, got '3'"),
            ({"triples": {"enabled": True, "epochs": -3}}, "triples.epochs must be >= 0"),
            ({"triples": {"enabled": True, "margin": 0.0}}, "triples.margin must be positive"),
            ({"optim": {"lr": float("nan")}}, "optim.lr must be finite, got nan"),
            ({"optim": {"weight_decay": float("nan")}}, "optim.weight_decay must be finite, got nan"),
            ({"ppr": {"epsilon": float("inf")}}, "ppr.epsilon must be finite, got inf"),
        ],
    )
    def test_malformed_config_file_exits_with_one_line(self, siot_dir, tmp_path, capsys, entry, message):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"dataset": str(siot_dir), "kind": "siot_csv", "epochs": 1, **entry}))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_file_naming_retired_ppr_fields_exit_code(self, film_dir, tmp_path, capsys):
        stored = small_config(film_dir).to_dict()
        stored["ppr"].update(transition="walk", weighted=False)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(stored))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: unknown ppr fields: ['transition', 'weighted']" in capsys.readouterr().err

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

    def test_checkpoint_roundtrip_via_cli(self, film_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        out = tmp_path / "out"
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt), "--out", str(out)]) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 0
        printed = capsys.readouterr().out.split()
        # the checkpoint holds the parameters the last trace row was scored with
        with (out / "trace.csv").open(newline="") as fh:
            last_test_acc = list(csv.DictReader(fh))[-1]["test_acc"]
        assert printed[:3] == ["eval-only:", "accuracy", last_test_acc]

    @pytest.mark.parametrize(
        "train_flags,eval_flags", [([], ["--no-trustee"]), (["--no-trustor"], [])]
    )
    def test_checkpoint_roles_must_match_the_config(
        self, film_dir, tmp_path, capsys, train_flags, eval_flags
    ):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, *train_flags, "--checkpoint-out", str(ckpt)]) == 0
        capsys.readouterr()
        assert cli_main(["run", *base, *eval_flags, "--eval-checkpoint", str(ckpt)]) == 2
        assert "data error: checkpoint encodes roles" in capsys.readouterr().err

    def test_checkpoint_with_a_lone_moment_exits_2(self, film_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        with np.load(ckpt) as stored:
            data = dict(stored)
        del data["moment_v::predictor/weight"]
        np.savez(ckpt, **data)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        assert "predictor/weight" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "eval_flags,fields",
        [
            (["--train-ratio", "0.6"], ["train_ratio=0.9 (config: 0.6)"]),
            (["--seed", "8"], ["seed=7 (config: 8)"]),
            (["--ppr-k", "5", "--no-ppr"], ["ppr.enabled=True (config: False)", "ppr.k=3 (config: 5)"]),
            (["--epochs", "9", "--lr", "0.1"], []),
        ],
        ids=["train_ratio", "seed", "ppr", "not_read_by_prepare_run"],
    )
    def test_checkpoint_split_settings_must_match(self, film_dir, tmp_path, capsys, eval_flags, fields):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        capsys.readouterr()
        code = cli_main(["run", *base, *eval_flags, "--eval-checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == (2 if fields else 0)
        if fields:
            assert err.startswith("data error: checkpoint was trained with ")
            assert all(field in err for field in fields)

    def test_checkpoint_must_be_scored_on_its_dataset(self, film_dir, siot_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        film = checkpoint_run_flags(film_dir)
        siot = ["--dataset", str(siot_dir), "--kind", "siot_csv", *film[4:]]
        assert cli_main(["run", *siot, "--checkpoint-out", str(ckpt)]) == 0
        capsys.readouterr()
        assert cli_main(["run", *film, "--eval-checkpoint", str(ckpt)]) == 2
        assert "data error: checkpoint was trained on another dataset graph" in capsys.readouterr().err

    def test_version_1_checkpoint_is_a_data_error(self, film_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        data = dict(np.load(ckpt))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["version"] = 1
        del meta["provenance"]
        data["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(ckpt, **data)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        assert "data error: unsupported checkpoint version 1" in capsys.readouterr().err

    def test_checkpoint_storing_the_retired_ppr_defaults_still_scores(self, film_dir, tmp_path, capsys):
        # checkpoints written while the transition and weighting options existed
        # store their values; the uniform walk and unweighted pairs still run
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 0
        scored = capsys.readouterr().out

        def add_retired(config):
            config["ppr"].update(transition="walk", weighted=False)
            return config

        rewrite_stored_config(ckpt, add_retired)
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 0
        assert capsys.readouterr().out == scored

    @pytest.mark.parametrize(
        "stored,named",
        [
            ({"transition": "symmetric"}, "ppr.transition='symmetric'"),
            ({"transition": "walk", "weighted": True}, "ppr.weighted=True"),
        ],
        ids=["symmetric", "weighted"],
    )
    def test_checkpoint_storing_a_retired_ppr_mode_is_a_data_error(
        self, film_dir, tmp_path, capsys, stored, named
    ):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0

        def add_retired(config):
            config["ppr"].update(stored)
            return config

        rewrite_stored_config(ckpt, add_retired)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        assert f"data error: checkpoint was trained with {named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda config: {**config, "bogus": 1},
            lambda config: {**config, "ppr": {**config["ppr"], "bogus": 1}},
            lambda config: None,
            lambda config: ["dataset"],
            lambda config: {**config, "optim": {**config["optim"], "lr": float("nan")}},
        ],
        ids=["unknown_field", "unknown_ppr_field", "null", "list", "nan_lr"],
    )
    def test_checkpoint_config_that_does_not_parse_is_a_data_error(self, film_dir, tmp_path, capsys, edit):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        rewrite_stored_config(ckpt, edit)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert "data error: checkpoint stores a training config that does not parse" in err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda p: {k: v for k, v in p.items() if k != "run_seed"}, f"{BAD_SEED}None"),
            (lambda p: {**p, "run_seed": True}, f"{BAD_SEED}True"),
            (lambda p: {**p, "run_seed": -1}, f"{BAD_SEED}-1"),
            (lambda p: {**p, "run_seed": str(p["run_seed"])}, f"{BAD_SEED}'"),
            (lambda p: {**p, "run_seed": float(p["run_seed"])}, BAD_SEED),
            (lambda p: {k: v for k, v in p.items() if k != "graph_sha256"}, f"{BAD_GRAPH}None"),
            (lambda p: {**p, "graph_sha256": 7}, f"{BAD_GRAPH}7"),
            (lambda p: [p], "records no training config, run seed or dataset fingerprint"),
        ],
        ids=[
            "no_run_seed", "bool_run_seed", "negative_run_seed", "str_run_seed", "float_run_seed",
            "no_graph_sha256", "int_graph_sha256", "list",
        ],
    )
    def test_checkpoint_with_bad_provenance_exits_2(self, film_dir, tmp_path, capsys, edit, message):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        rewrite_provenance(ckpt, edit)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: checkpoint {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "write,message",
        [
            (lambda path: None, "cannot read checkpoint"),
            (lambda path: path.write_text("not an archive"), "cannot read checkpoint"),
            (lambda path: path.write_bytes(npy_bytes(np.zeros(3))), "is not an npz archive"),
            (lambda path: np.savez(path, weights=np.zeros(3)), "has no JSON __meta__ record"),
            (
                lambda path: np.savez(path, __meta__=np.frombuffer(b"{version: 2", dtype=np.uint8)),
                "has no JSON __meta__ record",
            ),
            (
                lambda path: np.savez(path, __meta__=np.frombuffer(b"[2]", dtype=np.uint8)),
                "unsupported checkpoint version None",
            ),
        ],
        ids=["missing", "text", "npy", "no_meta", "meta_not_json", "meta_list"],
    )
    def test_unreadable_checkpoint_exits_2(self, film_dir, tmp_path, capsys, write, message):
        ckpt = tmp_path / "model.npz"
        write(ckpt)
        rc = cli_main(["run", *checkpoint_run_flags(film_dir), "--eval-checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("data error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "field,value,want",
        [
            ("latent_dim", MISSING, "an integer >= 1"),
            ("fusion", MISSING, "'gate' or 'concat'"),
            ("step", MISSING, "an integer >= 0"),
            ("has_h0", MISSING, "a boolean"),
            ("num_layers", "2", "an integer >= 1"),
            ("num_layers", 0, "an integer >= 1"),
            ("latent_dim", "3", "an integer >= 1"),
            ("latent_dim", True, "an integer >= 1"),
            ("user_dim", None, "an integer >= 1"),
            ("trustor", "false", "a boolean"),
            ("trustee", 1, "a boolean"),
            ("step", "3", "an integer >= 0"),
            ("step", -1, "an integer >= 0"),
            ("fusion", "sum", "'gate' or 'concat'"),
        ],
        ids=[
            "no_latent_dim", "no_fusion", "no_step", "no_has_h0", "str_num_layers", "zero_num_layers",
            "str_latent_dim", "bool_latent_dim", "null_user_dim", "str_trustor", "int_trustee",
            "str_step", "negative_step", "unknown_fusion",
        ],
    )
    def test_checkpoint_with_mistyped_meta_exits_2(self, film_dir, tmp_path, capsys, field, value, want):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0

        def retype(meta):
            kept = {k: v for k, v in meta.items() if k != field}
            return kept if value is MISSING else {**kept, field: value}

        rewrite_meta(ckpt, retype)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        got = None if value is MISSING else value
        assert err == f"data error: checkpoint {field} must be {want}, got {got!r}\n"

    def test_checkpoint_out_into_a_missing_directory_fails_before_training(
        self, film_dir, tmp_path, capsys, monkeypatch
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(experiment, "run", no_training)
        ckpt = tmp_path / "missing" / "model.npz"
        assert cli_main(["run", *checkpoint_run_flags(film_dir), "--checkpoint-out", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --checkpoint-out directory") and err.count("\n") == 1
        assert str(ckpt.parent) in err and not ckpt.parent.exists()

    @pytest.mark.parametrize(
        "param,values", [("ppr_k", "a,b"), ("latent_dim", "4,2.5"), ("train_ratio", "0.5,x")]
    )
    def test_sweep_values_that_do_not_parse_are_a_config_error(self, film_dir, capsys, param, values):
        flags = checkpoint_run_flags(film_dir)
        assert cli_main(["sweep", *flags, "--param", param, "--values", values]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: --values must list ") and err.count("\n") == 1
        assert param in err and repr(values) in err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["run", "--latent-dim", "1", "--fusion", "concat"], "even latent_dim, got 1"),
            (["ablate", "--variant", "concat", "--latent-dim", "3"], "even latent_dim, got 3"),
            (["sweep", "--param", "ppr_k", "--values", "3,0"], "ppr.k must be >= 1"),
            (["sweep", "--param", "latent_dim", "--values", "4,3", "--fusion", "concat"], "even latent_dim, got 3"),
        ],
    )
    def test_config_mistakes_fail_before_any_data_is_loaded(
        self, film_dir, tmp_path, capsys, monkeypatch, args, message
    ):
        def no_loading(*a, **kw):
            raise AssertionError("data loaded")

        monkeypatch.setattr(experiment, "load_dataset", no_loading)
        out = tmp_path / "o"
        verb, *rest = args
        assert cli_main([verb, *checkpoint_run_flags(film_dir), *rest, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and message in err
        assert not (out / "metrics.csv").exists()

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


# ---------------------------------------------------------------------------
# malformed input ends in one documented line, never a traceback

# one value of each JSON type
JSON_VALUES = {"null": None, "bool": True, "int": 3, "float": 0.5, "str": "x", "list": [1], "object": {"k": 1}}


def json_kind(value) -> str:
    return next(kind for kind, example in JSON_VALUES.items() if type(value) is type(example))


def accepted_kinds(annotation) -> set[str]:
    """The JSON types a config field of this annotation takes."""
    allowed = typing.get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    kinds = set()
    for t in allowed:
        if dataclasses.is_dataclass(t):
            kinds.add("object")
        else:
            kinds |= {type(None): {"null"}, bool: {"bool"}, int: {"int"}, float: {"int", "float"}, str: {"str"}}[t]
    return kinds


def config_fields(cls, prefix="") -> list[tuple[str, set[str]]]:
    """(dotted name, JSON types it takes) of every config field, sub-configs and their fields."""
    fields = []
    for name, annotation in typing.get_type_hints(cls).items():
        fields.append((prefix + name, accepted_kinds(annotation)))
        if dataclasses.is_dataclass(annotation):
            fields += config_fields(annotation, f"{prefix}{name}.")
    return fields


CONFIG_FIELDS = config_fields(ExperimentConfig)


def run_cli(argv) -> tuple[int, str]:
    """The exit code and the standard error of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.fixture(scope="module")
def trained_checkpoint(film_dir, workdir):
    path = workdir / "trained.npz"
    assert cli_main(["run", *checkpoint_run_flags(film_dir), "--checkpoint-out", str(path)]) == 0
    return path


class TestMalformedInput:
    @given(data=st.data())
    def test_config_field_of_another_type_is_one_config_error(self, film_dir, workdir, data):
        name, kinds = data.draw(st.sampled_from(CONFIG_FIELDS), label="field")
        kind = data.draw(st.sampled_from(sorted(set(JSON_VALUES) - kinds)), label="kind")
        stored = small_config(film_dir, epochs=1).to_dict()
        *path, leaf = name.split(".")
        owner = stored
        for part in path:
            owner = owner[part]
        owner[leaf] = JSON_VALUES[kind]
        cfg_path = workdir / "c.json"
        cfg_path.write_text(json.dumps(stored))
        rc, err = run_cli(["run", "--config", str(cfg_path), "--out", str(workdir / "o")])
        assert rc == 1 and err.startswith("config error: ") and err.count("\n") == 1
        assert name in err and not (workdir / "o").exists()

    @given(data=st.data())
    def test_checkpoint_meta_with_a_key_dropped_or_retyped_is_one_data_error(
        self, film_dir, workdir, trained_checkpoint, data
    ):
        meta = json.loads(bytes(np.load(trained_checkpoint)["__meta__"]).decode())
        key = data.draw(st.sampled_from(sorted(meta)), label="key")
        edits = ["drop", *sorted(set(JSON_VALUES) - {json_kind(meta[key])})]
        edit = data.draw(st.sampled_from(edits), label="edit")

        def edited(meta):
            kept = {k: v for k, v in meta.items() if k != key}
            return kept if edit == "drop" else {**kept, key: JSON_VALUES[edit]}

        ckpt = workdir / "edited.npz"
        ckpt.write_bytes(trained_checkpoint.read_bytes())
        rewrite_meta(ckpt, edited)
        rc, err = run_cli(["run", *checkpoint_run_flags(film_dir), "--eval-checkpoint", str(ckpt)])
        assert rc == 2 and err.startswith("data error: ") and err.count("\n") == 1 and "checkpoint" in err
