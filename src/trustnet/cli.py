"""The ``trustnet`` command: run / ablate / sweep / gradcheck / fixtures.

Every config field can come from a JSON file (--config). The config verbs
(run, ablate, sweep) take the flags of ``CONFIG_FLAGS``; a flag sets its
dotted config field over the file's value (``--ppr-k`` sets ``ppr.k``, and
``--triples-path`` also sets ``triples.enabled``). ``ablate`` and ``sweep``
then run a study of cells derived from that config. Exit codes: 0 success,
1 config error, 2 data error, 3 numerical failure.
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


def _train_initial(text: str) -> bool | None:
    values = {"auto": None, "true": True, "false": False}
    if text not in values:
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from 'auto', 'true', 'false')")
    return values[text]


# flag, the dotted config field it sets, add_argument keywords. A flag that
# is not given leaves its field as --config (or the default) has it.
CONFIG_FLAGS = [
    ("--dataset", "dataset", {"help": "dataset directory"}),
    ("--kind", "kind", {"choices": ["filmtrust", "siot_csv"]}),
    ("--train-ratio", "train_ratio", {"type": float}),
    ("--seed", "seed", {"type": int, "help": "master seed; per-run seeds derive from it"}),
    ("--runs", "runs", {"type": int, "help": "repeat-and-average over this many derived seeds"}),
    ("--epochs", "epochs", {"type": int}),
    ("--latent-dim", "latent_dim", {"type": int}),
    ("--user-dim", "user_dim", {"type": int}),
    ("--object-dim", "object_dim", {"type": int}),
    ("--num-layers", "num_layers", {"type": int}),
    ("--fusion", "fusion", {"choices": ["gate", "concat"]}),
    ("--train-initial", "train_initial", {
        "type": _train_initial, "metavar": "{auto,true,false}",
        "help": "train the initial embedding tables (auto: only for random-init datasets)"}),
    ("--workers", "workers", {"type": int}),
    ("--ppr-k", "ppr.k", {"type": int}),
    ("--ppr-lambda", "ppr.lam", {"type": float}),
    ("--ppr-epsilon", "ppr.epsilon", {"type": float}),
    ("--no-ppr", "ppr.enabled", {"action": "store_false", "help": "disable PPR trust augmentation"}),
    ("--no-trustor", "roles.trustor_enabled", {"action": "store_false", "help": "disable the trustor role"}),
    ("--no-trustee", "roles.trustee_enabled", {"action": "store_false", "help": "disable the trustee role"}),
    ("--triples", "triples.enabled", {"action": "store_true", "help": "enable triple-based object init"}),
    ("--triples-path", "triples.path", {"help": "triples file; turns --triples on"}),
    ("--triples-epochs", "triples.epochs", {"type": int}),
    ("--full-kg", "triples.full_kg", {"action": "store_true"}),
    ("--lr", "optim.lr", {"type": float}),
    ("--weight-decay", "optim.weight_decay", {"type": float}),
    ("--user-vectors", "user_embed.vectors_path", {"help": "precomputed user-vector file"}),
]


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags below override it")
    for flag, dotted, kwargs in CONFIG_FLAGS:
        p.add_argument(flag, dest=dotted, default=argparse.SUPPRESS, **kwargs)


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The --config file's config, or the defaults, with the given flags' fields set."""
    config = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    fields = {dotted: getattr(args, dotted) for _, dotted, _ in CONFIG_FLAGS if hasattr(args, dotted)}
    if "triples.path" in fields:
        fields["triples.enabled"] = True
    return experiment.with_fields(config, fields)


def _cmd_run(args) -> int:
    config = build_config(args)
    config.validate()
    if args.eval_checkpoint:
        for flag, value in (("--out", args.out), ("--checkpoint-out", args.checkpoint_out)):
            if value is not None:
                raise ConfigError(f"{flag} writes nothing with --eval-checkpoint, which only scores")
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
    """The requested variants, or every variant that applies to ``config``, logging why one does not.

    A requested variant that does not apply is a ConfigError when its cell is built.
    """
    if requested:
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
    cells = [("full", config), *((v, experiment.make_ablation(config, v)) for v in variants)]
    for summary in experiment.run_study(cells, out_dir=args.out):
        print(f"{summary.variant}: accuracy {summary.accuracy:.4f}  f1 {summary.f1:.4f}")
    return 0


def _cmd_sweep(args) -> int:
    config = build_config(args)
    config.validate()
    kind = experiment.field_type(SWEEP_PARAMS[args.param][0])
    try:
        values = [kind(tok) for tok in map(str.strip, args.values.split(",")) if tok]
    except ValueError:
        raise ConfigError(f"--values must list {kind.__name__}s for {args.param}, got {args.values!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    summaries = experiment.sweep(config, args.param, values, out_dir=args.out)
    for summary in summaries:
        print(f"{summary.variant.partition(':')[2]}: accuracy {summary.accuracy:.4f}  f1 {summary.f1:.4f}")
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
