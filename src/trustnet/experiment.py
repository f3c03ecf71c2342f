"""Config-driven experiment harness: single runs, repeat-and-average,
and studies (ablations and hyperparameter sweeps).

A run resamples the split, the negative pairs, and all parameter
initializations per derived seed, trains full-batch, evaluates the test
split every epoch, and reports the best-accuracy snapshot. Metrics are
emitted as CSV rows ``dataset,ratio,seed,variant,accuracy,f1`` with
accuracy/F1 in percent.

A study is a list of labelled cells, ``(label, config)``: each config is
the base with the dotted fields of an ``ABLATION_VARIANTS`` or
``SWEEP_PARAMS`` row set by ``with_fields``. ``run_study`` validates every
cell, loads the dataset once and runs the cells in order.

A checkpoint stores its run's config, the only description of its model.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import functools
import json
import numbers
import os
import sys
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import embed as embed_mod
from . import train as train_mod
from .autodiff import Tape
from .errors import ConfigError, DataError, NumericalError
from .graph import (
    HeteroGraph,
    Role,
    build_view,
    load_filmtrust,
    load_siot_csv,
    split_samples,
)
from .ppr import topk_augment
from .predict import PairScatter, pair_loss, pair_scatter, predict_scores, metrics as classification_metrics
from .train import ModelParams, adam_step, backward, init_params

METRICS_HEADER = ["dataset", "ratio", "seed", "variant", "accuracy", "f1"]
# ablation variant -> (dotted field, the value the base config needs, the value the variant sets)
ABLATION_VARIANTS = {
    "woTriples": ("triples.enabled", True, False),
    "woPPR": ("ppr.enabled", True, False),
    "woTrustee": ("roles.trustee_enabled", True, False),
    "woTrustor": ("roles.trustor_enabled", True, False),
    "concat": ("fusion", "gate", "concat"),
}
# sweep parameter -> the dotted fields each of its values sets
SWEEP_PARAMS = {
    "ppr_k": ("ppr.k",),
    "latent_dim": ("latent_dim", "user_dim", "object_dim"),
    "train_ratio": ("train_ratio",),
}


@dataclass
class PprConfig:
    enabled: bool = True
    k: int = 20
    lam: float = 0.15
    epsilon: float = 1e-6


@dataclass
class RolesConfig:
    trustor_enabled: bool = True
    trustee_enabled: bool = True


@dataclass
class TriplesConfig:
    enabled: bool = False
    path: str | None = None
    epochs: int = 120
    full_kg: bool = False


@dataclass
class OptimConfig:
    lr: float = 0.005
    weight_decay: float = 5e-4


@dataclass
class UserEmbedConfig:
    epochs: int = 10
    lr: float = 0.05
    vectors_path: str | None = None


@dataclass
class ExperimentConfig:
    dataset: str = ""
    kind: str = "filmtrust"
    train_ratio: float = 0.9
    seed: int = 7
    runs: int = 1
    epochs: int = 200
    latent_dim: int = 32
    user_dim: int = 32
    object_dim: int = 32
    num_layers: int = 2
    fusion: str = "gate"
    train_initial: bool | None = None  # None resolves per dataset semantics
    ppr: PprConfig = field(default_factory=PprConfig)
    roles: RolesConfig = field(default_factory=RolesConfig)
    triples: TriplesConfig = field(default_factory=TriplesConfig)
    optim: OptimConfig = field(default_factory=OptimConfig)
    user_embed: UserEmbedConfig = field(default_factory=UserEmbedConfig)
    workers: int | None = None

    def validate(self) -> None:
        if not self.dataset:
            raise ConfigError("dataset path is required")
        if self.kind not in ("filmtrust", "siot_csv"):
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if not 0.0 < self.train_ratio < 1.0:
            raise ConfigError(f"train_ratio must lie in (0, 1), got {self.train_ratio}")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        for name in ("latent_dim", "user_dim", "object_dim", "num_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.fusion not in ("gate", "concat"):
            raise ConfigError(f"unknown fusion mode {self.fusion!r}")
        if not (self.roles.trustor_enabled or self.roles.trustee_enabled):
            raise ConfigError("at least one role must be enabled")
        both = self.roles.trustor_enabled and self.roles.trustee_enabled
        if self.fusion == "concat" and both and self.latent_dim % 2:
            raise ConfigError(f"concat fusion of both roles needs an even latent_dim, got {self.latent_dim}")
        if self.ppr.enabled:
            if self.ppr.k < 1:
                raise ConfigError("ppr.k must be >= 1")
            if not 0.0 < self.ppr.lam < 1.0:
                raise ConfigError("ppr.lam must lie in (0, 1)")
            if self.ppr.epsilon <= 0:
                raise ConfigError("ppr.epsilon must be positive")
        if self.triples.enabled:
            if self.triples.epochs < 0:
                raise ConfigError("triples.epochs must be >= 0")
            if self.kind != "siot_csv":
                raise ConfigError(f"triples need kind 'siot_csv', got {self.kind!r}")
        if self.optim.lr <= 0:
            raise ConfigError("optim.lr must be positive")
        if self.optim.weight_decay < 0:
            raise ConfigError("optim.weight_decay must be >= 0")
        if self.user_embed.epochs < 0:
            raise ConfigError("user_embed.epochs must be >= 0")
        if self.user_embed.lr <= 0:
            raise ConfigError("user_embed.lr must be positive")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """A config from parsed JSON; a ``ConfigError`` names the first bad field.

        Each value must match its field's annotation: a bool is not an int,
        an int is accepted (as a float) for a float, ``None`` only where the
        annotation allows it, and a sub-config must be an object.
        """
        return _config_from(cls, data, "")

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        return cls.from_dict(data)


def _config_from(cls, data, prefix: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix or 'config'} must be a JSON object, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {prefix or 'config'} fields: {sorted(unknown)}")
    dotted = f"{prefix}." if prefix else ""
    return cls(**{name: _checked(dotted + name, value, hints[name]) for name, value in data.items()})


def _checked(name: str, value, annotation):
    """``value`` if it matches ``annotation``; a float field takes a finite int or float, as a float."""
    if dataclasses.is_dataclass(annotation):
        return _config_from(annotation, value, name)
    allowed = typing.get_args(annotation) if isinstance(annotation, types.UnionType) else (annotation,)
    if value is None and type(None) in allowed:
        return value
    if isinstance(value, bool):
        if bool in allowed:
            return value
    elif int in allowed and isinstance(value, numbers.Integral):
        return value
    elif float in allowed and isinstance(value, numbers.Real):
        if abs(value) <= sys.float_info.max:  # not for NaN, infinities or ints no float holds
            return float(value)
        raise ConfigError(f"{name} must be finite, got {value!r}")
    elif str in allowed and isinstance(value, str):
        return value
    names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
    raise ConfigError(f"{name} must be {names}, got {value!r}")


def flatten_config(config: ExperimentConfig) -> dict:
    flat = {}

    def walk(prefix, obj):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            key = f"{prefix}{f.name}"
            if dataclasses.is_dataclass(v):
                walk(key + ".", v)
            else:
                flat[key] = v

    walk("", config)
    return flat


def with_fields(config: ExperimentConfig, fields: dict) -> ExperimentConfig:
    """A copy of ``config`` with each dotted field of ``fields`` set, e.g. ``{"ppr.k": 5}``.

    The copy is parsed by ``from_dict``, so a value of another type than its
    field's is a ``ConfigError`` naming the field.
    """
    data = config.to_dict()
    for dotted, value in fields.items():
        section, _, name = dotted.rpartition(".")
        (data[section] if section else data)[name] = value
    return ExperimentConfig.from_dict(data)


def field_type(dotted: str):
    """The annotation of a dotted config field: ``int`` for ``"ppr.k"``."""
    owner = ExperimentConfig
    for name in dotted.split("."):
        owner = typing.get_type_hints(owner)[name]
    return owner


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    name: str
    graph: HeteroGraph
    corpus: list | None = None
    alignment: dict | None = None  # object local id -> entity id
    triples: list | None = None
    num_entities: int = 0
    num_relations: int = 0


def load_dataset(config: ExperimentConfig) -> Dataset:
    path = Path(config.dataset)
    name = path.name or str(path)
    if config.kind == "filmtrust":
        graph = load_filmtrust(path / "ratings.txt", path / "trust.txt")
        return Dataset(name=name, graph=graph)
    graph, corpus, name_alignment = load_siot_csv(path)
    dataset = Dataset(name=name, graph=graph, corpus=corpus)
    if config.triples.enabled:
        triple_path = Path(config.triples.path) if config.triples.path else path / "triples.csv"
        triples, entities, relations = embed_mod.load_triples(triple_path)
        alignment = {
            obj: entities[ent] for obj, ent in name_alignment.items() if ent in entities
        }
        if not config.triples.full_kg:
            triples = embed_mod.filter_object_head_triples(triples, set(alignment.values()))
        if not alignment or not triples:
            raise DataError(f"no triple in {triple_path} reaches an object of {path / 'objects.csv'}")
        dataset.alignment = alignment
        dataset.triples = triples
        dataset.num_entities = len(entities)
        dataset.num_relations = len(relations)
    return dataset


def derive_run_seeds(master_seed: int, runs: int) -> list[int]:
    """Deterministic child seeds for repeat-and-average runs."""
    return [int(s) for s in np.random.SeedSequence(master_seed).generate_state(runs)]


# ---------------------------------------------------------------------------
# one run


@dataclass
class RunResult:
    seed: int
    accuracy: float  # percent, best epoch
    f1: float  # percent, at the best-accuracy epoch
    best_epoch: int
    trace: list  # (epoch, train loss, test accuracy percent)
    params: ModelParams | None = None


def _initial_tables(dataset: Dataset, config: ExperimentConfig, seeds: dict):
    nu, no = dataset.graph.num_users, dataset.graph.num_objects
    if config.user_embed.vectors_path:
        h0_users = embed_mod.load_user_vectors(
            config.user_embed.vectors_path, nu, config.user_dim
        )
    elif dataset.corpus is not None:
        h0_users = embed_mod.embed_users(
            dataset.corpus,
            config.user_dim,
            epochs=config.user_embed.epochs,
            seed=seeds["user_embed"],
            lr=config.user_embed.lr,
        )
    else:
        h0_users = embed_mod.random_table(nu, config.user_dim, seeds["user_embed"])

    if config.triples.enabled:
        model = embed_mod.transe_train(
            dataset.triples,
            dataset.num_entities,
            dataset.num_relations,
            dim=config.object_dim,
            epochs=config.triples.epochs,
            seed=seeds["transe"],
        )
        h0_objects = embed_mod.init_objects(
            dataset.graph, dataset.alignment, model, config.object_dim, seeds["obj_init"]
        )
    else:
        h0_objects = embed_mod.random_table(no, config.object_dim, seeds["obj_init"])
    return h0_users, h0_objects


@dataclass
class PreparedRun:
    """A seeded run up to the model: derived seeds, split pairs, role views.

    ``train_scatter`` is the train pairs' ``PairScatter``, built once: every
    step's loss reads it in place of checking the pairs and building its
    gradient's two scatter matrices again.
    """

    seeds: dict  # split, user_embed, transe, obj_init, params
    train: tuple  # (trustor, trustee, label) arrays
    test: tuple
    views: dict  # Role -> GraphView, one per enabled role
    train_scatter: PairScatter


def prepare_run(dataset: Dataset, config: ExperimentConfig, run_seed: int) -> PreparedRun:
    """Split, augment the train graph and build the views, seeded by ``run_seed``.

    Training and checkpoint scoring both start here, so a checkpoint is
    scored on the split and augmentation its run was trained with.
    """
    seeds = dict(zip(("split", "user_embed", "transe", "obj_init", "params"), derive_run_seeds(run_seed, 5)))

    train, test = split_samples(
        dataset.graph.trust_edges, config.train_ratio, seeds["split"], num_users=dataset.graph.num_users
    )
    if train[0].size == 0:
        raise DataError("empty training split")
    if test[0].size == 0:
        raise DataError("empty test split")
    i, j, y = train
    train_graph = dataclasses.replace(dataset.graph, trust_edges=np.stack([i[y == 1], j[y == 1]], axis=1))

    ppr, aug_pairs = config.ppr, np.zeros((0, 2), dtype=np.int64)
    if ppr.enabled:
        # by keyword: the benchmark wraps this name and reads k, lam and epsilon by name
        aug_pairs = topk_augment(train_graph, k=ppr.k, lam=ppr.lam, epsilon=ppr.epsilon)
    roles = config.roles
    flags = ((Role.TRUSTOR, roles.trustor_enabled), (Role.TRUSTEE, roles.trustee_enabled))
    views = {role: build_view(train_graph, aug_pairs, role) for role, enabled in flags if enabled}
    return PreparedRun(
        seeds=seeds, train=train, test=test, views=views,
        train_scatter=pair_scatter(dataset.graph.num_users, *train),
    )


def init_model(config: ExperimentConfig, seed: int, tables, trainable: bool) -> ModelParams:
    """The untrained model a validated ``config`` describes, built with its initial ``tables``.

    Training builds its model here, and so does checkpoint scoring, from
    the stored config and the file's frozen tables, before the file's other
    arrays fill it.
    """
    roles = config.roles
    return init_params(seed, config.user_dim, config.object_dim, config.latent_dim, config.fusion,
                       roles.trustor_enabled, roles.trustee_enabled, config.num_layers, tables, trainable)


# glibc ``mallopt`` parameters (malloc.h)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_heap_mapped() -> None:
    """Keep a training step's freed arrays in the heap, mapped, for the next step.

    By default glibc maps each block above 128 KiB on its own and trims a
    free heap top above 128 KiB, raising the first to the largest mapped
    block freed so far and the second to twice that. So a FilmTrust step
    faulted its arrays in again every epoch, as often as set-up's frees
    allowed. Fixing the mmap threshold at 32 MiB (glibc's 64-bit ceiling)
    and the trim threshold at 1 GiB (above the 70 MB a 10x step frees)
    ends that; setting either alone turns the dynamic rule off and leaves
    the other at its start value. Once per process, so each pool worker
    sets it too; without ``mallopt``, or if libc refuses the mmap
    threshold, it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle (Windows)
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(M_MMAP_THRESHOLD, 32 << 20):
        mallopt(M_TRIM_THRESHOLD, 1 << 30)


def run_single(dataset: Dataset, config: ExperimentConfig, run_seed: int) -> RunResult:
    """Train once with every stochastic choice derived from ``run_seed``."""
    _keep_heap_mapped()
    prep = prepare_run(dataset, config, run_seed)
    if config.train_initial is None:  # auto: only a dataset without comments (FilmTrust) trains them
        trainable = dataset.corpus is None
    else:
        trainable = config.train_initial
    # the params copy each table, so no name here keeps the set-up
    # tables alive through training
    params = init_model(config, prep.seeds["params"], _initial_tables(dataset, config, prep.seeds), trainable)
    return _train_loop(config, prep, params, run_seed)


def _score(z_values: np.ndarray, params: ModelParams, pairs: tuple) -> tuple[float, float]:
    """Accuracy and F1, in percent, of the predictions on ``(trustor, trustee, label)``."""
    i, j, y = pairs
    acc, f1 = classification_metrics(predict_scores(z_values, i, j, params.predictor), y)
    return 100.0 * acc, 100.0 * f1


def _train_loop(config, prep: PreparedRun, params, run_seed) -> RunResult:
    """Score epochs 0..E, with an Adam step after each but the last.

    Epoch k's loss and accuracy are those of the parameters after k steps.
    """
    best_acc, best_f1, best_epoch = -1.0, 0.0, 0
    trace = []
    for epoch in range(config.epochs + 1):
        loss_value, acc, f1 = _epoch(config, prep, params, epoch, step=epoch < config.epochs)
        trace.append((epoch, loss_value, acc))
        if acc > best_acc:
            best_acc, best_f1, best_epoch = acc, f1, epoch
    return RunResult(
        seed=run_seed,
        accuracy=best_acc,
        f1=best_f1,
        best_epoch=best_epoch,
        trace=trace,
        params=params,
    )


def _epoch(config, prep: PreparedRun, params, epoch: int, step: bool) -> tuple[float, float, float]:
    """The training loss and the test accuracy and F1 of ``params``, then an Adam step if ``step``.

    A function of its own, so the step's tape, fused output, loss and
    gradients are freed when it returns, before the next epoch's forward.
    The fused output goes before the backward, which reads only what the
    tape keeps of it.
    """
    i_tr, j_tr, y_tr = prep.train
    with (Tape() if step else nullcontext()) as tape:
        z = train_mod.fused_users(prep.views, params, None, None)
        loss = pair_loss(z, i_tr, j_tr, y_tr, params.predictor, prep.train_scatter)
    loss_value = loss.item()
    if not np.isfinite(loss_value):
        raise NumericalError(f"non-finite training loss at epoch {epoch}")
    acc, f1 = _score(z.value, params, prep.test)
    if step:
        del z
        tape.mark_output(loss)
        adam_step(params, backward(tape), **dataclasses.asdict(config.optim))
        params.assert_finite()
    return loss_value, acc, f1


# ---------------------------------------------------------------------------
# repeat-and-average, studies


@dataclass
class Summary:
    variant: str
    config: ExperimentConfig
    results: list
    dataset_name: str

    @property
    def accuracy(self) -> float:
        return float(np.mean([r.accuracy for r in self.results]))

    @property
    def f1(self) -> float:
        return float(np.mean([r.f1 for r in self.results]))

    def rows(self) -> list[list[str]]:
        """One metrics row per run, then the row of their mean."""
        ratio = repr(float(self.config.train_ratio))
        scores = [(str(r.seed), r.accuracy, r.f1) for r in self.results] + [("mean", self.accuracy, self.f1)]
        return [[self.dataset_name, ratio, seed, self.variant, f"{acc:.4f}", f"{f1:.4f}"]
                for seed, acc, f1 in scores]


_WORKER_STATE: dict = {}


def _worker_init(dataset, config_dict):
    _WORKER_STATE["dataset"] = dataset
    _WORKER_STATE["config"] = ExperimentConfig.from_dict(config_dict)


def _worker_run(seed: int) -> RunResult:
    result = run_single(_WORKER_STATE["dataset"], _WORKER_STATE["config"], seed)
    result.params = None  # keep the pickled payload small
    return result


def run(
    config: ExperimentConfig,
    out_dir=None,
    variant: str = "full",
    dataset: Dataset | None = None,
    keep_params: bool = False,
) -> Summary:
    """Execute ``config.runs`` seeded runs and aggregate.

    Parallelizes across seeds with worker processes when configured;
    result order (and therefore CSV output) is by seed index either way.
    """
    config.validate()
    if dataset is None:
        dataset = load_dataset(config)
    seeds = derive_run_seeds(config.seed, config.runs)
    workers = config.workers if config.workers is not None else min(os.cpu_count() or 1, len(seeds))
    if workers > 1 and len(seeds) > 1 and not keep_params:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(seeds)),
            initializer=_worker_init,
            initargs=(dataset, config.to_dict()),
        ) as pool:
            results = list(pool.map(_worker_run, seeds))
    else:
        results = []
        for s in seeds:
            r = run_single(dataset, config, s)
            if not keep_params:
                r.params = None
            results.append(r)
    summary = Summary(variant=variant, config=config, results=results, dataset_name=dataset.name)
    if out_dir is not None:
        write_metrics(summary, out_dir)
        write_traces(summary, out_dir)
    return summary


def write_metrics(summary: Summary, out_dir) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "metrics.csv"
    fresh = not path.exists()
    with path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(METRICS_HEADER)
        writer.writerows(summary.rows())
    return path


def write_traces(summary: Summary, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    single = len(summary.results) == 1
    for idx, result in enumerate(summary.results):
        name = "trace.csv" if single else f"trace_seed{idx}.csv"
        with (out_dir / name).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "test_acc"])
            for epoch, loss, acc in result.trace:
                writer.writerow([epoch, f"{loss:.6f}", f"{acc:.4f}"])


def make_ablation(config: ExperimentConfig, variant: str) -> ExperimentConfig:
    """Base config with the one field of ``variant`` changed, validated."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(f"unknown ablation variant {variant!r}; choose from {tuple(ABLATION_VARIANTS)}")
    dotted, need, value = ABLATION_VARIANTS[variant]
    if flatten_config(config)[dotted] != need:
        raise ConfigError(f"{variant} needs {dotted}={need!r} in the base config")
    new = with_fields(config, {dotted: value})
    new.validate()  # e.g. concat cannot split an odd latent_dim between the two roles
    return new


def sweep(
    config: ExperimentConfig, param: str, values, out_dir=None, dataset: Dataset | None = None
) -> list[Summary]:
    """One repeat-and-average summary per value; rows tagged sweep:param=value.

    A float value is written as its ``repr``, the shortest string that
    reads back as it, so distinct values get distinct labels.

    A value sets every field ``SWEEP_PARAMS[param]`` names, so it must be
    of their type: ``ppr_k=2.5`` is a ``ConfigError``, not a run of k=2.
    """
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep parameter {param!r}; choose from {tuple(SWEEP_PARAMS)}")
    cells = [
        (f"sweep:{param}={float(value)!r}" if isinstance(value, float) else f"sweep:{param}={value}",
         with_fields(config, dict.fromkeys(SWEEP_PARAMS[param], value)))
        for value in values
    ]
    return list(run_study(cells, out_dir=out_dir, dataset=dataset))


def run_study(cells, out_dir=None, dataset: Dataset | None = None):
    """Run ``(label, config)`` cells in order on one dataset, yielding each summary as its cell ends.

    Every cell validates before the first cell's config loads the dataset,
    and two cells with one label are a ``ConfigError``: the second would
    overwrite the first's traces. A cell appends its rows, tagged ``label``,
    to ``out_dir/metrics.csv`` and writes its traces to ``out_dir/<label>``
    (':' written as '-').
    """
    labels = [label for label, _ in cells]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ConfigError(f"study cells must have distinct labels; repeated: {', '.join(repeated)}")
    for _, cell in cells:
        cell.validate()
    for label, cell in cells:
        if dataset is None:
            dataset = load_dataset(cell)
        summary = run(cell, variant=label, dataset=dataset)
        if out_dir is not None:
            write_metrics(summary, out_dir)
            write_traces(summary, Path(out_dir) / label.replace(":", "-"))
        yield summary


def save_checkpoint(summary: Summary, dataset: Dataset, path) -> None:
    """Save a one-run summary's parameters with the config, run seed and graph they came from."""
    (result,) = summary.results
    provenance = {
        "config": summary.config.to_dict(),
        "run_seed": result.seed,
        "graph_sha256": dataset.graph.fingerprint(),
    }
    train_mod.save_params(result.params, path, provenance)


def _read_by_prepare_run(field: str) -> bool:
    return field in ("train_ratio", "seed") or field.startswith(("ppr.", "roles."))


def _trained_config(provenance, config: ExperimentConfig) -> ExperimentConfig:
    """The training config a checkpoint's provenance stores, parsed and validated.

    A ``DataError`` unless the provenance holds a run seed, a dataset
    fingerprint and a valid config whose fields ``prepare_run`` reads
    equal ``config``'s.
    """
    if not isinstance(provenance, dict):
        raise DataError("checkpoint records no training config, run seed or dataset fingerprint")
    seed = provenance.get("run_seed")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise DataError(f"checkpoint run_seed must be a non-negative integer, got {seed!r}")
    fingerprint = provenance.get("graph_sha256")
    if not isinstance(fingerprint, str):
        raise DataError(f"checkpoint graph_sha256 must be a string, got {fingerprint!r}")
    try:
        trained = ExperimentConfig.from_dict(provenance.get("config"))
        trained.validate()
    except ConfigError as exc:
        raise DataError(f"checkpoint stores an invalid training config: {exc}") from exc
    stored, given = flatten_config(trained), flatten_config(config)
    changed = [
        f"{k}={stored[k]!r} (config: {given[k]!r})"
        for k in stored
        if _read_by_prepare_run(k) and stored[k] != given[k]
    ]
    if changed:
        raise DataError(f"checkpoint was trained with {', '.join(changed)}")
    return trained


def evaluate_checkpoint(config: ExperimentConfig, checkpoint_path):
    """Score a saved model on the test split of the run it was trained in.

    Nothing is trained: ``init_model`` builds the model the checkpoint's
    stored config describes with the file's tables, frozen, the file's
    other arrays fill it and ``prepare_run`` gives the split, augmentation
    and views. The stored config must validate, the fields ``prepare_run``
    reads must equal ``config``'s and the dataset graph must be the one it
    was trained on, or the test split would not be that run's; the tables
    need a row per node and the model's input width. Each failure is a
    ``DataError``.
    """
    config.validate()
    params, provenance = train_mod.load_params(
        checkpoint_path,
        lambda provenance, tables: init_model(_trained_config(provenance, config), 0, tables, False),
    )
    dataset = load_dataset(config)
    graph = dataset.graph
    if graph.fingerprint() != provenance["graph_sha256"]:
        raise DataError(f"checkpoint was trained on another dataset graph than {dataset.name}")
    shapes = [table.value.shape for table in (params.h0_users, params.h0_objects)]
    need = [(graph.num_users, len(params.proj_user.value)), (graph.num_objects, len(params.proj_obj.value))]
    if shapes != need:
        raise DataError(f"checkpoint initial tables have shapes {shapes}, the model and graph need {need}")
    prep = prepare_run(dataset, config, provenance["run_seed"])
    z = train_mod.fused_users(prep.views, params, None, None)
    return _score(z.value, params, prep.test)
