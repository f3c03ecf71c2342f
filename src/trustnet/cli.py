"""The ``trustnet`` command: run / ablate / sweep / gradcheck / fixtures.

Every config field can come from a JSON file (--config) and be overridden
by a command-line flag. Exit codes: 0 success, 1 config error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import experiment, fixtures
from .errors import ConfigError, DataError, NumericalError
from .experiment import ABLATION_VARIANTS, SWEEP_PARAMS, ExperimentConfig

logger = logging.getLogger(__name__)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags below override it")
    p.add_argument("--dataset", help="dataset directory")
    p.add_argument("--kind", choices=["filmtrust", "siot_csv"])
    p.add_argument("--train-ratio", type=float, dest="train_ratio")
    p.add_argument("--seed", type=int, help="master seed; per-run seeds derive from it")
    p.add_argument("--runs", type=int, help="repeat-and-average over this many derived seeds")
    p.add_argument("--epochs", type=int)
    p.add_argument("--latent-dim", type=int, dest="latent_dim")
    p.add_argument("--user-dim", type=int, dest="user_dim")
    p.add_argument("--object-dim", type=int, dest="object_dim")
    p.add_argument("--num-layers", type=int, dest="num_layers")
    p.add_argument("--fusion", choices=["gate", "concat"])
    p.add_argument(
        "--train-initial",
        choices=["auto", "true", "false"],
        dest="train_initial",
        help="train the initial embedding tables (auto: only for random-init datasets)",
    )
    p.add_argument("--workers", type=int)
    p.add_argument("--ppr-k", type=int, dest="ppr_k")
    p.add_argument("--ppr-lambda", type=float, dest="ppr_lambda")
    p.add_argument("--ppr-epsilon", type=float, dest="ppr_epsilon")
    p.add_argument("--no-ppr", action="store_false", default=None, help="disable PPR trust augmentation")
    p.add_argument("--no-trustor", action="store_false", default=None, help="disable the trustor role")
    p.add_argument("--no-trustee", action="store_false", default=None, help="disable the trustee role")
    p.add_argument("--triples", action="store_true", default=None, help="enable triple-based object init")
    p.add_argument("--triples-path", dest="triples_path")
    p.add_argument("--triples-epochs", type=int, dest="triples_epochs")
    p.add_argument("--full-kg", action="store_true", default=None, dest="full_kg")
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", type=float, dest="weight_decay")
    p.add_argument("--user-vectors", dest="user_vectors", help="precomputed user-vector file")


# argparse dest -> dotted config field, with a converter where the flag's
# value is not the field's. Flags left unset (None) keep the --config value;
# store_true/store_false flags default to None, so they set their field only
# when given. A dest may set several fields.
_FLAG_FIELDS = [
    ("dataset", "dataset", None),
    ("kind", "kind", None),
    ("train_ratio", "train_ratio", None),
    ("seed", "seed", None),
    ("runs", "runs", None),
    ("epochs", "epochs", None),
    ("latent_dim", "latent_dim", None),
    ("user_dim", "user_dim", None),
    ("object_dim", "object_dim", None),
    ("num_layers", "num_layers", None),
    ("fusion", "fusion", None),
    ("workers", "workers", None),
    ("train_initial", "train_initial", {"auto": None, "true": True, "false": False}.get),
    ("ppr_k", "ppr.k", None),
    ("ppr_lambda", "ppr.lam", None),
    ("ppr_epsilon", "ppr.epsilon", None),
    ("no_ppr", "ppr.enabled", None),
    ("no_trustor", "roles.trustor_enabled", None),
    ("no_trustee", "roles.trustee_enabled", None),
    ("triples", "triples.enabled", None),
    ("triples_path", "triples.path", None),
    ("triples_path", "triples.enabled", lambda path: True),
    ("triples_epochs", "triples.epochs", None),
    ("full_kg", "triples.full_kg", None),
    ("lr", "optim.lr", None),
    ("weight_decay", "optim.weight_decay", None),
    ("user_vectors", "user_embed.vectors_path", None),
]


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    for dest, dotted, convert in _FLAG_FIELDS:
        value = getattr(args, dest)
        if value is None:
            continue
        section, _, name = dotted.rpartition(".")
        owner = getattr(config, section) if section else config
        setattr(owner, name, convert(value) if convert else value)
    return config


def _cmd_run(args) -> int:
    config = build_config(args)
    config.validate()
    if args.eval_checkpoint:
        acc, f1 = experiment.evaluate_checkpoint(config, args.eval_checkpoint)
        print(f"eval-only: accuracy {acc:.4f}  f1 {f1:.4f}")
        return 0
    keep = args.checkpoint_out is not None
    if keep and config.runs != 1:
        raise ConfigError("--checkpoint-out needs --runs 1")
    if keep and not Path(args.checkpoint_out).parent.is_dir():
        raise ConfigError(f"--checkpoint-out directory {Path(args.checkpoint_out).parent} does not exist")
    dataset = experiment.load_dataset(config)
    summary = experiment.run(config, out_dir=args.out, keep_params=keep, dataset=dataset)
    if keep:
        experiment.save_checkpoint(summary, dataset, args.checkpoint_out)
        print(f"checkpoint written to {args.checkpoint_out}")
    print(
        f"{summary.dataset_name} ratio={config.train_ratio:g} runs={config.runs}: "
        f"accuracy {summary.accuracy:.4f}  f1 {summary.f1:.4f}"
    )
    return 0


def _ablation_variants(config: ExperimentConfig, requested) -> list[str]:
    """The requested variants, or every variant that applies to ``config``.

    A requested variant that does not apply raises ConfigError before any
    training starts; the default skips it and logs why.
    """
    if requested:
        for variant in requested:
            experiment.make_ablation(config, variant)
        return requested
    variants = []
    for variant in ABLATION_VARIANTS:
        try:
            experiment.make_ablation(config, variant)
        except ConfigError as exc:
            logger.warning("skipping ablation %s: %s", variant, exc)
        else:
            variants.append(variant)
    return variants


def _cmd_ablate(args) -> int:
    config = build_config(args)
    config.validate()
    variants = _ablation_variants(config, args.variant)
    dataset = experiment.load_dataset(config)
    base = experiment.run(config, out_dir=args.out, dataset=dataset)
    print(f"full: accuracy {base.accuracy:.4f}  f1 {base.f1:.4f}")
    for variant in variants:
        summary = experiment.ablate(config, variant, out_dir=args.out, dataset=dataset)
        print(f"{variant}: accuracy {summary.accuracy:.4f}  f1 {summary.f1:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    config = build_config(args)
    config.validate()
    kind = float if args.param == "train_ratio" else int
    try:
        values = [kind(tok) for tok in map(str.strip, args.values.split(",")) if tok]
    except ValueError:
        raise ConfigError(f"--values must list {kind.__name__}s for {args.param}, got {args.values!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    summaries = experiment.sweep(config, args.param, values, out_dir=args.out)
    for value, summary in zip(values, summaries):
        print(f"{args.param}={value:g}: accuracy {summary.accuracy:.4f}  f1 {summary.f1:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .fixtures import make_pipeline_fixture
    from .train import grad_check, init_params

    latent_dim = 3 if args.latent_dim is None else args.latent_dim
    if latent_dim < 1:
        raise ConfigError(f"--latent-dim must be >= 1, got {latent_dim}")
    fixture = make_pipeline_fixture(seed=args.seed if args.seed is not None else 1)
    params = init_params(
        seed=11,
        user_dim=fixture.h0_users.shape[1],
        object_dim=fixture.h0_objects.shape[1],
        latent_dim=latent_dim,
    )
    report = grad_check(params, fixture, tolerance=args.tolerance)
    print(report)
    return 0 if report.passed else 3


def _cmd_fixtures(args) -> int:
    out = Path(args.out)
    seed = args.seed if args.seed is not None else 0
    make = fixtures.make_filmtrust_files if args.fixture_kind == "filmtrust" else fixtures.make_siot_files
    sizes = {}
    for flag in ("users", "objects", "trust"):
        value = getattr(args, flag)
        if value is None:
            continue
        if value < 1:
            raise ConfigError(f"--{flag} must be >= 1, got {value}")
        sizes[f"num_{flag}"] = value
    make(out, seed=seed, **sizes)
    print(f"wrote {args.fixture_kind} fixture to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trustnet",
        description="Trust evaluation on heterogeneous social-IoT graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train and evaluate one configuration")
    _add_config_flags(p_run)
    p_run.add_argument("--out", help="directory for metrics.csv / trace.csv")
    p_run.add_argument("--checkpoint-out", dest="checkpoint_out", help="save trained parameters (runs=1)")
    p_run.add_argument(
        "--eval-checkpoint",
        dest="eval_checkpoint",
        help="score a saved checkpoint without training: the model its stored config describes, "
        "on the split and augmentation it was trained with",
    )
    p_run.set_defaults(func=_cmd_run)

    p_ab = sub.add_parser("ablate", help="run the base config and named variants")
    _add_config_flags(p_ab)
    p_ab.add_argument("--out")
    p_ab.add_argument(
        "--variant",
        action="append",
        choices=list(ABLATION_VARIANTS),
        help="repeatable; default runs all applicable variants",
    )
    p_ab.set_defaults(func=_cmd_ablate)

    p_sw = sub.add_parser("sweep", help="vary one parameter over a value list")
    _add_config_flags(p_sw)
    p_sw.add_argument("--out")
    p_sw.add_argument("--param", required=True, choices=list(SWEEP_PARAMS))
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.set_defaults(func=_cmd_sweep)

    p_gc = sub.add_parser("gradcheck", help="verify analytic gradients on a small fixture")
    p_gc.add_argument("--tolerance", type=float, default=1e-4)
    p_gc.add_argument("--seed", type=int)
    p_gc.add_argument("--latent-dim", type=int, dest="latent_dim")
    p_gc.set_defaults(func=_cmd_gradcheck)

    p_fx = sub.add_parser("fixtures", help="generate synthetic desk-scale datasets")
    p_fx.add_argument("fixture_kind", choices=["filmtrust", "siot"])
    p_fx.add_argument("--out", required=True)
    p_fx.add_argument("--seed", type=int)
    p_fx.add_argument("--users", type=int)
    p_fx.add_argument("--objects", type=int)
    p_fx.add_argument("--trust", type=int)
    p_fx.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
