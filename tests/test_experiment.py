import argparse
import contextlib
import csv
import ctypes
import dataclasses
import gc
import hashlib
import io
import json
import logging
import re
import shutil
import subprocess
import sys
import types
import typing
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.sparse import _base as sparse_base

from trustnet import experiment, train
from trustnet.cli import CONFIG_FLAGS, _ablation_variants, _add_config_flags, build_config
from trustnet.cli import main as cli_main
from trustnet.errors import ConfigError, DataError
from trustnet.experiment import (
    ABLATION_VARIANTS,
    ExperimentConfig,
    derive_run_seeds,
    flatten_config,
    load_dataset,
    make_ablation,
    run,
    run_single,
    sweep,
    with_fields,
)
from trustnet.fixtures import CommunityPlan, _sample_trust_edges, make_filmtrust_files, make_siot_files
from trustnet.graph import Role, load_siot_csv

from test_autodiff import REPO


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


class FieldReads:
    """A config stand-in that records the dotted name of each field read through it."""

    def __init__(self, config, reads: set, prefix: str = ""):
        self._config, self._reads, self._prefix = config, reads, prefix

    def __getattr__(self, name):
        value = getattr(self._config, name)
        dotted = self._prefix + name
        if dataclasses.is_dataclass(value):
            return FieldReads(value, self._reads, dotted + ".")
        self._reads.add(dotted)
        return value


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
        if field in ("negatives", "min_count"):  # embed_users' defaults, which a config cannot set
            with pytest.raises(ConfigError, match=rf"^unknown user_embed fields: \['{field}'\]$"):
                with_fields(cfg, {f"user_embed.{field}": value})
            return
        setattr(cfg.user_embed, field, value)
        with pytest.raises(ConfigError, match=f"user_embed.{field}"):
            cfg.validate()

    def test_json_roundtrip(self, film_dir, tmp_path):
        cfg = small_config(film_dir)
        cfg.ppr.k = 17
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = ExperimentConfig.from_json(path)
        assert changed_fields(loaded, cfg) == {}

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
        if field != "epochs":  # transe_train's constants, which a config cannot set
            with pytest.raises(ConfigError, match=rf"^unknown triples fields: \['{field}'\]$"):
                with_fields(cfg, {"triples.enabled": True, f"triples.{field}": value})
            return
        setattr(cfg.triples, field, value)
        cfg.validate()  # unused while triples are off, as ppr fields are while ppr is off
        cfg.triples.enabled = True
        with pytest.raises(ConfigError, match=f"triples.{field}"):
            cfg.validate()

    def test_triples_need_the_siot_kind(self, film_dir, siot_dir):
        # a FilmTrust dataset loads no triples, so with them on the auto
        # train_initial would freeze random tables
        cfg = small_config(film_dir)
        cfg.triples.enabled = True
        with pytest.raises(ConfigError, match="^triples need kind 'siot_csv', got 'filmtrust'$"):
            cfg.validate()
        cfg = small_config(siot_dir, kind="siot_csv")
        cfg.triples.enabled = True
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
    def test_each_variant_changes_exactly_one_field(self, siot_dir):
        cfg = small_config(siot_dir, kind="siot_csv")
        cfg.triples.enabled = True  # so woTriples applies
        for variant in ABLATION_VARIANTS:
            changed = changed_fields(make_ablation(cfg, variant), cfg)
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

    @pytest.mark.skipif(sys.platform != "linux" or not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="needs Linux page-fault counts and a libc with mallopt")
    def test_stepping_epochs_after_the_first_fault_in_no_memory(self, tmp_path):
        # a fresh process, so neither the allocator policy nor the heap comes
        # from earlier tests; the minor page faults of each stepping epoch of
        # one 1x FilmTrust run. Without the policy, glibc trims the freed step
        # off the heap and every epoch faults it back in (about 2k faults)
        make_filmtrust_files(tmp_path, seed=0)
        probe = (
            "import resource, sys\n"
            "from trustnet import experiment\n"
            "epoch, faults = experiment._epoch, []\n"
            "def counted(*args, step):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    out = epoch(*args, step=step)\n"
            "    if step:\n"
            "        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "    return out\n"
            "experiment._epoch = counted\n"
            "experiment.run(experiment.ExperimentConfig(dataset=sys.argv[1], epochs=6, runs=1))\n"
            "print(*faults)\n"
        )
        env = {"PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env, capture_output=True,
                             text=True, check=True, timeout=300)
        faults = [int(f) for f in out.stdout.split()]
        assert len(faults) == 6 and max(faults[1:]) <= 64, faults

    def test_a_run_packs_its_weight_buffer_once(self, film_dir, monkeypatch):
        # the model is built with its initial tables, so nothing packs it again
        packed, pack = [], train.WeightBuffer.pack
        monkeypatch.setattr(train.WeightBuffer, "pack",
                            staticmethod(lambda weights: packed.append([w[0] for w in weights]) or pack(weights)))
        cfg = small_config(film_dir, epochs=2)
        run_single(load_dataset(cfg), cfg, 42)
        assert len(packed) == 1
        assert {"h0/users", "h0/objects", "proj_user", "gate/raw"} <= set(packed[0])

    @pytest.mark.parametrize("kind", ["filmtrust", "siot"])
    def test_no_set_up_table_outlives_the_start_of_training(self, film_dir, siot_dir, monkeypatch, kind):
        # the params keep a copy of each initial table; the tables that
        # _initial_tables returned are freed before the first epoch
        refs, alive = [], []
        initial_tables, train_loop = experiment._initial_tables, experiment._train_loop

        def spy_initial_tables(*args):
            tables = initial_tables(*args)
            refs.extend(weakref.ref(table) for table in tables)
            return tables

        def spy_train_loop(*args):
            gc.collect()
            alive.append([ref() is not None for ref in refs])
            return train_loop(*args)

        monkeypatch.setattr(experiment, "_initial_tables", spy_initial_tables)
        monkeypatch.setattr(experiment, "_train_loop", spy_train_loop)
        if kind == "siot":
            cfg = small_config(siot_dir, kind="siot_csv", epochs=1)
            cfg.user_embed.epochs = 1
        else:
            cfg = small_config(film_dir, epochs=1)
        run_single(load_dataset(cfg), cfg, 42)
        assert len(refs) == 2 and alive == [[False] * 2]

    @pytest.mark.parametrize("kind", ["siot", "filmtrust"])
    def test_no_epoch_after_the_first_builds_a_sparse_matrix(self, tmp_path, monkeypatch, kind):
        # the views' matrices, each view's two edge maps and their containers,
        # and the train pairs' scatter matrices are built once per run; every
        # scipy sparse constructor runs _spbase.__init__, so this counts them all
        data = tmp_path / kind
        assert cli_main(["fixtures", kind, "--out", str(data), "--seed", "0"]) == 0
        cfg = ExperimentConfig(dataset=str(data), kind="siot_csv" if kind == "siot" else "filmtrust", epochs=3)
        cfg.triples.enabled = kind == "siot"
        built, per_epoch = [], []
        init, epoch = sparse_base._spbase.__init__, experiment._epoch

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)

        def spy_epoch(*args, **kwargs):
            before = len(built)
            out = epoch(*args, **kwargs)
            per_epoch.append(built[before:])
            return out

        monkeypatch.setattr(sparse_base._spbase, "__init__", counted)
        monkeypatch.setattr(experiment, "_epoch", spy_epoch)
        run_single(load_dataset(cfg), cfg, 42)
        assert len(built) > sum(map(len, per_epoch)), "the counter saw no set-up construction"
        assert len(per_epoch) == cfg.epochs + 1
        assert per_epoch[1:] == [[]] * cfg.epochs, per_epoch

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

    @pytest.mark.parametrize("ppr", [True, False], ids=["ppr_on", "ppr_off"])
    def test_prepare_run_reads_only_fields_the_checkpoint_check_compares(self, film_dir, ppr):
        # evaluate_checkpoint rebuilds the split from the fields it compares;
        # a field prepare_run read but the check skipped would let a
        # checkpoint be scored on another run's split
        cfg = small_config(film_dir)
        cfg.ppr.enabled = ppr
        reads = set()
        prep = experiment.prepare_run(load_dataset(cfg), FieldReads(cfg, reads), 11)
        assert len(prep.views) == 2
        assert reads <= set(flatten_config(cfg))
        assert {"train_ratio", "ppr.enabled", "roles.trustor_enabled", "roles.trustee_enabled"} <= reads
        assert {"ppr.k", "ppr.lam", "ppr.epsilon"} <= reads if ppr else "ppr.k" not in reads
        assert sorted(f for f in reads if not experiment._read_by_prepare_run(f)) == []

    def test_a_loaded_checkpoint_is_views_into_its_buffer_bit_for_bit(self, film_dir, tmp_path):
        cfg = small_config(film_dir, epochs=3)
        dataset = load_dataset(cfg)
        summary = run(cfg, keep_params=True, dataset=dataset)
        path = tmp_path / "model.npz"
        experiment.save_checkpoint(summary, dataset, path)
        trained = summary.results[0].params
        saved = {name: view for name, _, view in trained.buffer.layout}
        assert {"h0/users", "h0/objects"} <= set(saved)  # FilmTrust trains its tables
        params, _ = train.load_params(
            path,
            lambda provenance, tables: experiment.init_model(
                experiment._trained_config(provenance, cfg), 0, tables, False),
        )
        # read before the buffer is, which must find the load's values already its views
        bound = {name: tensor.value for name, tensor, _ in params.named()}
        buffer = params.buffer
        assert sorted(bound) == sorted(name for name, *_ in buffer.layout)
        assert sorted(bound) == sorted(set(saved) - {"h0/users", "h0/objects"})
        for name, tensor, view in buffer.layout:
            assert bound[name] is view and tensor.value is view, name
            assert np.array_equal(view.view(np.int64), saved[name].view(np.int64)), name
        # the tables come back frozen, outside the buffer, bit for bit
        for table, name in ((params.h0_users, "h0/users"), (params.h0_objects, "h0/objects")):
            assert not table.requires_grad
            assert np.array_equal(table.value.view(np.int64), saved[name].view(np.int64))
        # no Adam state is stored: a loaded model scores, it does not resume
        assert params.step == 0 and not buffer.m.any() and not buffer.v.any()

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

    @pytest.mark.parametrize("param,value,field", [("ppr_k", 2.5, "ppr.k"), ("latent_dim", True, "latent_dim")])
    def test_a_value_of_another_type_than_its_field_is_a_config_error(
        self, film_dir, tmp_path, param, value, field
    ):
        with pytest.raises(ConfigError, match=rf"^{field} must be int, got {value!r}$"):
            sweep(small_config(film_dir), param, [3, value], out_dir=tmp_path)
        assert not (tmp_path / "metrics.csv").exists()


    def test_float_values_get_distinct_labels_and_trace_directories(self, film_dir, tmp_path):
        cfg = small_config(film_dir, epochs=1)
        summaries = sweep(cfg, "train_ratio", [0.8000001, 0.8000002, 0.9], out_dir=tmp_path)
        labels = ["sweep:train_ratio=0.8000001", "sweep:train_ratio=0.8000002", "sweep:train_ratio=0.9"]
        assert [s.variant for s in summaries] == labels
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [label.replace(":", "-") for label in labels]
        with (tmp_path / "metrics.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1] for row in rows] == ["0.8000001"] * 2 + ["0.8000002"] * 2 + ["0.9"] * 2

    @pytest.mark.parametrize("param,values", [("ppr_k", "5,5"), ("train_ratio", "0.5,0.50")])
    def test_two_cells_with_one_label_are_a_config_error_before_data_loads(
        self, film_dir, tmp_path, capsys, monkeypatch, param, values
    ):
        def no_loading(*a, **kw):
            raise AssertionError("data loaded")

        monkeypatch.setattr(experiment, "load_dataset", no_loading)
        out = tmp_path / "o"
        argv = ["sweep", *checkpoint_run_flags(film_dir), "--param", param, "--values", values, "--out", str(out)]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"config error: study cells must have distinct labels; repeated: sweep:{param}={values.split(',')[0]}\n"
        assert not out.exists()


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


MISSING = object()  # a stored config field left out


def config_edit(field, value):
    """A checkpoint edit that drops (``MISSING``) or replaces one field of the stored training config."""
    *path, leaf = field.split(".")

    def edit(config):
        owner = config
        for part in path:
            owner = owner[part]
        del owner[leaf]
        if value is not MISSING:
            owner[leaf] = value
        return config

    return lambda ckpt: rewrite_stored_config(ckpt, edit)


def drop_array(key):
    """A checkpoint edit that removes one stored array."""

    def edit(ckpt):
        with np.load(ckpt) as stored:
            data = dict(stored)
        del data[key]
        np.savez(ckpt, **data)

    return edit


INVALID = "checkpoint stores an invalid training config: "


BAD_SEED = "run_seed must be a non-negative integer, got "
BAD_GRAPH = "graph_sha256 must be a string, got "


def digests(directory, pattern="*") -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.glob(pattern)}


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
            json.dumps({"dataset": str(siot_dir), "kind": "siot_csv", "user_embed": {"epochs": -1}})
        )
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "config error: user_embed.epochs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry,message",
        [
            ({"ppr": 5}, "ppr must be a JSON object, got 5"),
            ({"optim": {"lr": None}}, "optim.lr must be float, got None"),
            ({"epochs": "3"}, "epochs must be int, got '3'"),
            ({"triples": {"enabled": True, "epochs": -3}}, "triples.epochs must be >= 0"),
            ({"triples": {"enabled": True, "margin": 0.0}}, "unknown triples fields: ['margin']"),
            ({"optim": {"lr": float("nan")}}, "optim.lr must be finite, got nan"),
            ({"optim": {"weight_decay": float("nan")}}, "optim.weight_decay must be finite, got nan"),
            ({"ppr": {"epsilon": float("inf")}}, "ppr.epsilon must be finite, got inf"),
            ({"optim": {"beta1": 0.9}}, "unknown optim fields: ['beta1']"),
        ],
    )
    def test_malformed_config_file_exits_with_one_line(self, siot_dir, tmp_path, capsys, entry, message):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"dataset": str(siot_dir), "kind": "siot_csv", "epochs": 1, **entry}))
        rc = cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flag,value,field", [("--lr", "nan", "optim.lr"), ("--ppr-lambda", "inf", "ppr.lam"),
                             ("--train-ratio", "nan", "train_ratio")]
    )
    def test_a_flag_gets_the_type_checks_of_its_config_field(self, film_dir, tmp_path, capsys, flag, value, field):
        rc = cli_main(["run", *checkpoint_run_flags(film_dir), flag, value, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"config error: {field} must be finite, got {value}\n"
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

    @staticmethod
    def run_siot(data, tmp_path, *flags):
        return cli_main(["run", "--dataset", str(data), "--kind", "siot_csv", "--runs", "1", "--epochs", "1",
                         "--workers", "1", "--out", str(tmp_path / "o"), *flags])

    def test_non_finite_user_vector_names_its_line(self, siot_dir, tmp_path, capsys):
        rows = [f"{u} 0.5 -0.5" for u in range(load_siot_csv(siot_dir)[0].num_users)]
        rows[3] = "3 0.5 nan"
        vectors = tmp_path / "v.txt"
        vectors.write_text("\n".join(rows) + "\n")
        rc = self.run_siot(siot_dir, tmp_path, "--user-vectors", str(vectors), "--user-dim", "2")
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("data error: ") and err.count("\n") == 1
        assert "v.txt:4:" in err

    @pytest.mark.parametrize(
        "edit,flags",
        [("blank_names", []), ("blank_names", ["--full-kg"]), ("swap_heads_and_tails", [])],
    )
    def test_triples_that_reach_no_object_exit_2(self, siot_dir, tmp_path, capsys, edit, flags):
        # blank names align no object; swapped rows keep the alignment but
        # leave no triple whose head is an object's entity
        data = tmp_path / "data"
        shutil.copytree(siot_dir, data)
        name = "objects.csv" if edit == "blank_names" else "triples.csv"
        header, *rows = (data / name).read_text().splitlines()
        if edit == "blank_names":
            rows = [row.split(",")[0] + "," for row in rows]
        else:
            rows = [",".join(row.split(",")[::-1]) for row in rows]
        (data / name).write_text("\n".join([header, *rows]) + "\n")
        rc = self.run_siot(data, tmp_path, "--triples", *flags)
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: no triple in {data / 'triples.csv'} reaches an object of {data / 'objects.csv'}\n"
        )

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

    @pytest.mark.parametrize(
        "study,cells",
        [
            (
                ["ablate"],
                {"full": [], "woPPR": ["--no-ppr"], "woTrustee": ["--no-trustee"],
                 "woTrustor": ["--no-trustor"], "concat": ["--fusion", "concat"]},
            ),
            (
                ["sweep", "--param", "ppr_k", "--values", "2,4"],
                {"sweep-ppr_k=2": ["--ppr-k", "2"], "sweep-ppr_k=4": ["--ppr-k", "4"]},
            ),
        ],
        ids=["ablate", "sweep"],
    )
    def test_each_study_cell_keeps_the_traces_of_its_own_run(self, film_dir, tmp_path, study, cells):
        flags = [*checkpoint_run_flags(film_dir), "--runs", "2", "--epochs", "2"]
        verb, *rest = study
        assert cli_main([verb, *flags, *rest, "--out", str(tmp_path / "study")]) == 0
        assert sorted(p.name for p in (tmp_path / "study").iterdir()) == sorted([*cells, "metrics.csv"])
        for cell, extra in cells.items():
            alone = tmp_path / "alone" / cell
            assert cli_main(["run", *flags, *extra, "--out", str(alone)]) == 0
            assert digests(tmp_path / "study" / cell) == digests(alone, "trace_seed*.csv"), cell

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
        "train_flags,eval_flags,field",
        [
            ([], ["--no-trustee"], "roles.trustee_enabled=True (config: False)"),
            (["--no-trustor"], [], "roles.trustor_enabled=False (config: True)"),
        ],
        ids=["train_flags0-eval_flags0", "train_flags1-eval_flags1"],
    )
    def test_checkpoint_roles_must_match_the_config(
        self, film_dir, tmp_path, capsys, train_flags, eval_flags, field
    ):
        # the roles are among the fields prepare_run reads, so the field check names them
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, *train_flags, "--checkpoint-out", str(ckpt)]) == 0
        capsys.readouterr()
        assert cli_main(["run", *base, *eval_flags, "--eval-checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"data error: checkpoint was trained with {field}\n"

    def test_checkpoint_with_a_lone_moment_exits_2(self, film_dir, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        with np.load(ckpt) as stored:
            data = dict(stored)
        data["moment_v::predictor/weight"] = np.zeros_like(data["param::predictor/weight"])
        np.savez(ckpt, **data)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err == "data error: checkpoint has arrays ['moment_v::predictor/weight'] that the model does not read\n"

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

    def test_checkpoint_meta_holds_only_version_and_provenance(self, film_dir, tmp_path):
        ckpt = tmp_path / "model.npz"
        assert cli_main(["run", *checkpoint_run_flags(film_dir), "--checkpoint-out", str(ckpt)]) == 0
        with np.load(ckpt) as stored:
            meta = json.loads(bytes(stored["__meta__"]).decode())
            assert not [key for key in stored.files if key.startswith("moment_")]
        assert sorted(meta) == ["provenance", "version"]
        assert meta["version"] == 5
        assert sorted(meta["provenance"]) == ["config", "graph_sha256", "run_seed"]

    def test_checkpoint_model_comes_from_its_stored_config(self, film_dir, tmp_path, capsys):
        # scored with a config of another model shape, the checkpoint still
        # builds the model it was trained as
        ckpt, out = tmp_path / "model.npz", tmp_path / "out"
        base = checkpoint_run_flags(film_dir)
        shape = ["--fusion", "concat", "--num-layers", "1", "--latent-dim", "4", "--user-dim", "5"]
        assert cli_main(["run", *base, *shape, "--checkpoint-out", str(ckpt), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 0
        with (out / "trace.csv").open(newline="") as fh:
            last_test_acc = list(csv.DictReader(fh))[-1]["test_acc"]
        assert capsys.readouterr().out.split()[:3] == ["eval-only:", "accuracy", last_test_acc]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: data.update({"table::h0/users": data["table::h0/users"][:-1]}),
            lambda data: data.update({"table::h0/objects": np.vstack([data["table::h0/objects"]] * 2)}),
            lambda data: data.update({"table::h0/users": np.hstack([data["table::h0/users"]] * 2)}),
            lambda data: [data.pop("table::h0/users"), data.pop("table::h0/objects")],
        ],
        ids=["user_row_short", "object_rows_doubled", "user_columns_doubled", "no_tables"],
    )
    def test_checkpoint_initial_tables_must_fit_the_model_and_graph(self, siot_dir, tmp_path, capsys, edit):
        ckpt = tmp_path / "model.npz"
        flags = ["--dataset", str(siot_dir), "--kind", "siot_csv", *checkpoint_run_flags(siot_dir)[4:]]
        assert cli_main(["run", *flags, "--checkpoint-out", str(ckpt)]) == 0
        with np.load(ckpt) as stored:
            data = dict(stored)
        edit(data)
        np.savez(ckpt, **data)
        capsys.readouterr()
        assert cli_main(["run", *flags, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        # without tables nothing is built, so there is no shape to compare
        want = "missing initial tables [" if "table::h0/users" not in data else "initial tables have shapes "
        assert err.startswith(f"data error: checkpoint {want}") and err.count("\n") == 1

    @pytest.mark.parametrize("version", [2, 3, 4])
    def test_version_2_checkpoint_is_a_data_error(self, film_dir, tmp_path, capsys, version):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        rewrite_meta(ckpt, lambda meta: {**meta, "version": version})
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        assert capsys.readouterr().err == f"data error: unsupported checkpoint version {version}\n"

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

    @pytest.mark.parametrize(
        "stored,named",
        [
            ({"transition": "symmetric"}, "['transition']"),
            ({"transition": "walk", "weighted": True}, "['transition', 'weighted']"),
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
        assert capsys.readouterr().err == f"data error: {INVALID}unknown ppr fields: {named}\n"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda config: {**config, "bogus": 1},
            lambda config: {**config, "ppr": {**config["ppr"], "bogus": 1}},
            lambda config: None,
            lambda config: ["dataset"],
            lambda config: {**config, "optim": {**config["optim"], "lr": float("nan")}},
            # the fields older checkpoints stored with the values that still run
            lambda config: {**config, "ppr": {**config["ppr"], "transition": "walk", "weighted": False}},
            # parses, but fails validate()
            lambda config: {**config, "latent_dim": 0},
            lambda config: {**config, "kind": "filmtrust", "triples": {**config["triples"], "enabled": True}},
        ],
        ids=[
            "unknown_field", "unknown_ppr_field", "null", "list", "nan_lr", "retired_ppr_defaults",
            "zero_latent_dim", "filmtrust_triples",
        ],
    )
    def test_checkpoint_config_that_does_not_parse_is_a_data_error(self, film_dir, tmp_path, capsys, edit):
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--checkpoint-out", str(ckpt)]) == 0
        rewrite_stored_config(ckpt, edit)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {INVALID}") and err.count("\n") == 1

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
        "edit,want",
        [
            (config_edit("latent_dim", MISSING), "checkpoint shape mismatch for proj_user"),
            (config_edit("fusion", MISSING), "checkpoint shape mismatch for proj_user"),
            (drop_array("table::h0/objects"), "checkpoint missing initial tables"),
            (config_edit("num_layers", "2"), f"{INVALID}num_layers must be int, got '2'"),
            (config_edit("num_layers", 0), f"{INVALID}num_layers must be >= 1"),
            (config_edit("latent_dim", "3"), f"{INVALID}latent_dim must be int, got '3'"),
            (config_edit("latent_dim", True), f"{INVALID}latent_dim must be int, got True"),
            (config_edit("user_dim", None), f"{INVALID}user_dim must be int, got None"),
            (config_edit("roles.trustor_enabled", "false"), f"{INVALID}roles.trustor_enabled must be bool"),
            (config_edit("roles.trustee_enabled", 1), f"{INVALID}roles.trustee_enabled must be bool, got 1"),
            (config_edit("fusion", "sum"), f"{INVALID}unknown fusion mode 'sum'"),
        ],
        ids=[
            "no_latent_dim", "no_fusion", "no_has_h0", "str_num_layers", "zero_num_layers",
            "str_latent_dim", "bool_latent_dim", "null_user_dim", "str_trustor", "int_trustee",
            "unknown_fusion",
        ],
    )
    def test_checkpoint_with_mistyped_meta_exits_2(self, film_dir, tmp_path, capsys, edit, want):
        # __meta__ describes the model by its stored training config, so a
        # mistyped or missing model field is one there; a missing one takes
        # its default, which is not the concat model trained here
        ckpt = tmp_path / "model.npz"
        base = checkpoint_run_flags(film_dir)
        assert cli_main(["run", *base, "--fusion", "concat", "--checkpoint-out", str(ckpt)]) == 0
        edit(ckpt)
        capsys.readouterr()
        assert cli_main(["run", *base, "--eval-checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {want}") and err.count("\n") == 1

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
            (["run", "--triples"], "triples need kind 'siot_csv', got 'filmtrust'"),
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


class TestCliSurface:
    @pytest.mark.parametrize("verb", ["run", "ablate", "sweep", "gradcheck", "fixtures"])
    def test_help_exits_0_and_the_config_verbs_list_every_table_flag(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main([verb, "--help"])
        assert exit_.value.code == 0
        listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        if verb in ("run", "ablate", "sweep"):
            assert {flag for flag, _, _ in CONFIG_FLAGS} <= listed

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["--train-initial", "maybe"],
                "--train-initial: invalid choice: 'maybe' (choose from 'auto', 'true', 'false')",
            ),
            (["--kind", "x"], "--kind: invalid choice: 'x' (choose from 'filmtrust', 'siot_csv')"),
        ],
    )
    def test_a_value_outside_a_flags_choices_is_a_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", *argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: trustnet run ") and err.endswith(f"trustnet run: error: argument {message}\n")


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


# (dataset kind, file) of every file the two fixture bundles hold
DATASET_FILES = [
    ("filmtrust", "ratings.txt"),
    ("filmtrust", "trust.txt"),
    *(("siot_csv", name) for name in ("trust.csv", "interactions.csv", "objects.csv", "triples.csv")),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("malformed")


@pytest.fixture(scope="module")
def trained_checkpoint(film_dir, workdir):
    path = workdir / "trained.npz"
    assert cli_main(["run", *checkpoint_run_flags(film_dir), "--checkpoint-out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def frozen_checkpoint(film_dir, workdir):
    path = workdir / "frozen.npz"
    flags = [*checkpoint_run_flags(film_dir), "--train-initial", "false"]
    assert cli_main(["run", *flags, "--checkpoint-out", str(path)]) == 0
    return path


# each corruption of a stored array, given the array and a draw of an entry
ARRAY_CORRUPTIONS = {
    "nan": lambda a, i: np.where(np.arange(a.size).reshape(a.shape) == i, np.nan, a),
    "inf": lambda a, i: np.where(np.arange(a.size).reshape(a.shape) == i, -np.inf if i % 2 else np.inf, a),
    "string": lambda a, i: a.astype(str),
    "complex": lambda a, i: a + 0.5j,
    "object": lambda a, i: a.astype(object),
}


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

    @pytest.mark.parametrize("flag", ["--out", "--checkpoint-out"])
    def test_eval_only_run_rejects_a_flag_it_would_ignore(self, film_dir, tmp_path, trained_checkpoint, flag):
        target = tmp_path / "target"
        rc, err = run_cli([
            "run", *checkpoint_run_flags(film_dir), "--eval-checkpoint", str(trained_checkpoint), flag, str(target)
        ])
        assert rc == 1 and err == f"config error: {flag} writes nothing with --eval-checkpoint, which only scores\n"
        assert not target.exists()

    @given(data=st.data())
    def test_checkpoint_array_of_a_wrong_kind_or_not_finite_is_one_data_error(
        self, film_dir, workdir, trained_checkpoint, frozen_checkpoint, data
    ):
        kind = data.draw(st.sampled_from(["trainable", "frozen"]), label="kind")
        source = frozen_checkpoint if kind == "frozen" else trained_checkpoint
        with np.load(source) as stored:
            arrays = dict(stored)
        key = data.draw(st.sampled_from(sorted(k for k in arrays if k != "__meta__")), label="key")
        corruption = data.draw(st.sampled_from(sorted(ARRAY_CORRUPTIONS)), label="corruption")
        entry = data.draw(st.integers(0, arrays[key].size - 1), label="entry")
        arrays[key] = ARRAY_CORRUPTIONS[corruption](arrays[key], entry)
        ckpt = workdir / "corrupted.npz"
        np.savez(ckpt, **arrays)
        rc, err = run_cli(["run", *checkpoint_run_flags(film_dir), "--eval-checkpoint", str(ckpt)])
        assert rc == 2 and err.startswith("data error: ") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize(
        "extra",
        [
            {"junk::x": np.array([np.nan])},
            {"moment_x::proj_user": np.array(["string"])},
            {"frozen::h0/users": np.zeros((2, 2)), "frozen::h0/objects": np.zeros((2, 2))},
        ],
        ids=["junk_nan", "misspelt_moment_string", "version_4_frozen_tables"],
    )
    def test_a_checkpoint_array_the_model_does_not_read_is_one_data_error(
        self, film_dir, workdir, trained_checkpoint, extra
    ):
        with np.load(trained_checkpoint) as stored:
            arrays = dict(stored)
        assert "table::h0/users" in arrays and not set(extra) & set(arrays)
        ckpt = workdir / "extra.npz"
        np.savez(ckpt, **arrays, **extra)
        rc, err = run_cli(["run", *checkpoint_run_flags(film_dir), "--eval-checkpoint", str(ckpt)])
        assert rc == 2 and err.startswith("data error: ") and err.count("\n") == 1
        assert next(iter(extra)) in err

    @given(data=st.data())
    def test_dataset_file_cut_at_any_byte_exits_0_or_2(self, film_dir, siot_dir, workdir, data):
        kind, name = data.draw(st.sampled_from(DATASET_FILES), label="file")
        source = siot_dir if kind == "siot_csv" else film_dir
        content = (source / name).read_bytes()
        cut = data.draw(st.integers(0, len(content)), label="cut")
        dataset = workdir / "cut"
        shutil.rmtree(dataset, ignore_errors=True)
        shutil.copytree(source, dataset)
        (dataset / name).write_bytes(content[:cut])
        config = workdir / "fast.json"
        config.write_text(json.dumps({"user_embed": {"epochs": 1}, "triples": {"epochs": 2}}))
        flags = [*checkpoint_run_flags(film_dir)[4:], "--config", str(config), "--epochs", "1"]
        flags += ["--dataset", str(dataset), "--kind", kind, *(["--triples"] if kind == "siot_csv" else [])]
        rc, err = run_cli(["run", *flags])
        assert rc in (0, 2) and err.count("\n") <= 1
        assert err == "" if rc == 0 else err.startswith("data error: ")

    @pytest.mark.parametrize("target", ["config", "ratings.txt", "interactions.csv", "user_vectors"])
    def test_text_cut_inside_a_multibyte_character_is_one_line(self, film_dir, siot_dir, tmp_path, target):
        cut = "caf\u00e9".encode()[:-1]  # ends inside the two bytes of the e-acute
        flags = checkpoint_run_flags(film_dir)
        if target == "config":
            (tmp_path / "c.json").write_bytes(b'{"dataset": "' + cut)
            flags = ["--config", str(tmp_path / "c.json")]
        elif target == "user_vectors":
            (tmp_path / "v.txt").write_bytes(b"0 " + cut)
            flags += ["--user-vectors", str(tmp_path / "v.txt")]
        else:
            kind, source = ("filmtrust", film_dir) if target == "ratings.txt" else ("siot_csv", siot_dir)
            dataset = tmp_path / "data"
            shutil.copytree(source, dataset)
            (dataset / target).write_bytes((dataset / target).read_bytes() + cut)
            flags = ["--dataset", str(dataset), "--kind", kind, *flags[4:]]
        rc, err = run_cli(["run", *flags])
        want = 1 if target == "config" else 2
        assert rc == want and err.count("\n") == 1 and "can't decode byte 0xc3" in err
        assert err.startswith("config error: cannot read config file" if want == 1 else "data error: cannot read")

    @pytest.mark.parametrize(
        "argv",
        [
            ["gradcheck", "--latent-dim", "-1"],
            ["gradcheck", "--latent-dim", "0"],
            ["fixtures", "filmtrust", "--users", "-5"],
            ["fixtures", "filmtrust", "--users", "0"],
            ["fixtures", "siot", "--objects", "0"],
            ["fixtures", "siot", "--trust", "0"],
        ],
        ids=lambda argv: "_".join(argv).replace("-", ""),
    )
    def test_cli_sizes_below_one_are_one_config_error(self, tmp_path, argv):
        out = tmp_path / "fx"
        *_, flag, value = argv
        rc, err = run_cli([*argv, *(["--out", str(out)] if argv[0] == "fixtures" else [])])
        assert rc == 1 and err == f"config error: {flag} must be >= 1, got {value}\n"
        assert not out.exists()

    def test_fixture_of_one_user_is_one_data_error(self, tmp_path):
        rc, err = run_cli(["fixtures", "filmtrust", "--users", "1", "--out", str(tmp_path / "fx")])
        assert rc == 2 and err == "data error: trust sampling failed: no user can emit trust\n"

    @pytest.mark.parametrize("kind", ["filmtrust", "siot"])
    def test_fixture_of_more_trust_pairs_than_exist_is_one_data_error(self, tmp_path, kind):
        # 20 users have 20 * 19 = 380 ordered pairs; the sampler would spin before failing
        rc, err = run_cli(["fixtures", kind, "--users", "20", "--trust", "381", "--out", str(tmp_path / "fx")])
        assert rc == 2 and err == "data error: cannot sample 381 trust pairs: 20 users have only 380 ordered pairs\n"

    @pytest.mark.parametrize("kind, reach", [("filmtrust", 76), ("siot", 285)])
    def test_fixture_of_more_trust_pairs_than_its_pools_reach_is_one_data_error(self, tmp_path, kind, reach):
        # 380 is every ordered pair of 20 users, but trustors are only the
        # social members of communities with at least two of them
        rc, err = run_cli(["fixtures", kind, "--users", "20", "--trust", "380", "--out", str(tmp_path / "fx")])
        assert rc == 2 and err == (
            "data error: cannot sample 380 trust pairs: the social communities' trust pools "
            f"reach only {reach} ordered pairs\n"
        )

    @pytest.mark.parametrize("noise, reach", [(0.0, 6), (0.5, 12)])
    def test_trust_sampling_reaches_every_pair_its_pools_hold(self, noise, reach):
        # community 0 has three social users, community 1 one (too few to
        # pair), user 4 is not social; noise lets a trustee be any user
        plan = CommunityPlan(
            social_comm=np.array([0, 0, 0, 1, 0]), consume_comm=np.zeros(5, dtype=int),
            obj_comm=np.zeros(1, dtype=int), social=np.array([True, True, True, True, False]),
            out_weight=np.array([1.0, 2.0, 3.0, 1.0, 0.0]), in_weight=np.array([3.0, 2.0, 1.0, 1.0, 0.0]),
        )

        def sample(num_trust):
            rng = np.random.default_rng(0)
            return _sample_trust_edges(rng, plan, 5, num_trust, noise, communities=2, chain_fraction=0.0)

        pairs = sample(reach)
        assert len(pairs) == reach and {u for u, _ in pairs} == {0, 1, 2}
        with pytest.raises(DataError, match=f"trust pools reach only {reach} ordered pairs"):
            sample(reach + 1)

    def test_adam_overflow_is_one_numerical_failure(self, siot_dir, tmp_path):
        # user vectors near 1e150 give projection gradients whose square
        # overflows Adam's second moment, which would freeze the weights
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"user_embed": {"lr": 1e150}}))
        argv = ["run", "--config", str(cfg), "--dataset", str(siot_dir), "--kind", "siot_csv", "--epochs", "2"]
        rc, err = run_cli([*argv, "--runs", "1", "--out", str(tmp_path / "out")])
        assert rc == 3 and err == "numerical failure: Adam update of proj_user overflows float64\n"
