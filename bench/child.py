"""One pipeline run in its own process: ``python3 bench/child.py SPEC_JSON``.

Runs ``trustnet.experiment.run`` once, times it in process CPU seconds
(user + sys), checks its outputs, and writes ``result.json`` into the
spec's ``out`` directory. Times come from wrappers installed from here on
the program's public functions; nothing inside ``src/`` changes.

The untraced run wraps only ``train.fused_users`` (one call per epoch marks
the epoch boundaries) and the calls whose outputs the checks read. The
traced run also wraps every layer function named in ``LAYERS``.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from workloads import EPOCH_METRICS, RUN_METRICS

from trustnet import autodiff, embed, experiment, train
from trustnet.autodiff import Tape
from trustnet.experiment import ExperimentConfig

PPR_SAMPLE = 24  # sources whose top-k pairs are checked against exact PPR

# (module, attribute, span name). Several are wrapped where ``experiment``
# or ``train`` bound them with ``from ... import``, since that is the name
# the pipeline calls.
LAYERS = [
    (experiment, "split_samples", "graph.split"),
    (experiment, "build_view", "graph.build_view"),
    (train, "layer_forward", "conv"),
    (autodiff, "edge_matmul", "autodiff.edge_matmul"),
    (autodiff, "sparse_matmul", "autodiff.sparse_matmul"),
    (autodiff, "elu", "autodiff.elu"),
    (autodiff, "gather", "autodiff.gather"),
    (autodiff, "matmul", "autodiff.matmul"),
    (experiment, "backward", "train.backward"),
    (experiment, "adam_step", "train.adam_step"),
    (experiment, "pair_loss", "predict.pair_loss"),
    (experiment, "predict_scores", "predict.eval"),
]


class Recorder:
    """Installs timing wrappers and keeps what they record in memory.

    An event is (name, at, value) in process CPU seconds: a call records its
    start and duration, a work count (view edges, augmented pairs, tape
    records) its time and size.
    """

    def __init__(self):
        self.events: list[tuple[str, float, float]] = []
        self.captured: dict = {}
        self._installed: list = []

    def wrap(self, owner, attr: str, name: str, on_call=None) -> None:
        original = getattr(owner, attr)  # AttributeError: the public name is gone
        events, clock = self.events, time.process_time

        def wrapper(*args, **kwargs):
            start = clock()
            out = original(*args, **kwargs)
            end = clock()
            span = name if on_call is None else on_call(args, kwargs, out) or name
            events.append((span, start, end - start))
            return out

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def count(self, name: str, value: float) -> None:
        self.events.append((name, time.process_time(), float(value)))


def build_config(spec: dict) -> ExperimentConfig:
    base = ExperimentConfig(dataset=spec["dataset"], kind=spec["kind"], seed=spec["seed"]).to_dict()
    for key, value in spec["config"].items():
        if isinstance(value, dict):
            base[key].update(value)
        else:
            base[key] = value
    return ExperimentConfig.from_dict(base)


def install(rec: Recorder, config: ExperimentConfig, traced: bool) -> list[str]:
    """Wrap the pipeline's calls; returns the span names that must occur."""
    capture = rec.captured

    def on_forward(args, kwargs, out):
        capture.setdefault("views", args[0])
        capture["params"] = args[1]

    def on_eval(args, kwargs, out):
        capture["test_size"] = len(args[1])

    rec.wrap(train, "fused_users", "train.forward", on_forward)
    rec.wrap(experiment, "classification_metrics", "predict.eval", on_eval)
    expected = ["train.forward", "predict.eval"]

    if config.ppr.enabled:
        def on_ppr(args, kwargs, out):
            capture["ppr"] = (args[0], kwargs, out)
            rec.count("ppr.aug_pairs", len(out))

        rec.wrap(experiment, "topk_augment", "ppr.topk_augment", on_ppr)
        expected.append("ppr.topk_augment")
    if config.triples.enabled:
        def on_transe(args, kwargs, out):
            capture["transe"] = (args[0], out)

        rec.wrap(embed, "transe_train", "embed.transe_train", on_transe)
        expected.append("embed.transe_train")
    if not traced:
        return expected

    loader = "load_filmtrust" if config.kind == "filmtrust" else "load_siot_csv"
    rec.wrap(experiment, loader, "graph.load")
    expected.append("graph.load")
    if config.kind == "siot_csv" and not config.user_embed.vectors_path:
        rec.wrap(embed, "embed_users", "embed.embed_users")
        expected.append("embed.embed_users")

    def on_view(args, kwargs, out):
        rec.count("graph.view_edges", out.emap.rows.size)

    def on_layer(args, kwargs, out):
        return f"conv.{args[1].role.value}"

    def on_backward(args, kwargs, out):
        rec.count("autodiff.tape_records", args[0].num_records)

    hooks = {"graph.build_view": on_view, "conv": on_layer, "train.backward": on_backward}
    for owner, attr, name in LAYERS:
        rec.wrap(owner, attr, name, hooks.get(name))
    expected += [name for _, _, name in LAYERS if name != "conv"]
    expected += [f"conv.{role}" for role, on in (
        ("trustor", config.roles.trustor_enabled), ("trustee", config.roles.trustee_enabled)) if on]
    return expected


def epoch_bounds(rec: Recorder) -> list[float]:
    """Start of every ``fused_users`` call: epoch k runs from bound k to k+1."""
    return [at for name, at, _ in rec.events if name == "train.forward"]


def layer_metrics(rec: Recorder, bounds: list[float]) -> dict:
    """Run totals (first value for counts) and per-epoch medians; 0 if absent."""
    epochs = len(bounds) - 1
    per_run: dict[str, list] = {}
    per_epoch: dict[str, np.ndarray] = {}
    for name, at, value in rec.events:
        per_run.setdefault(name, []).append(value)
        k = np.searchsorted(bounds, at, side="right") - 1
        if 0 <= k < epochs:
            per_epoch.setdefault(name, np.zeros(epochs))[k] += value
    out = {}
    for metric, unit in RUN_METRICS:
        values = per_run.get(metric.removesuffix("_s"), [0.0])
        out[metric] = sum(values) if unit == "s" else values[0]
    for metric, _ in EPOCH_METRICS:
        out[metric] = float(np.median(per_epoch.get(metric.removesuffix("_s"), 0.0)))
    return out


def run_checks(config: ExperimentConfig, rec: Recorder, out_dir: Path, rng) -> tuple[list, dict]:
    failures, info = [], {}
    with (out_dir / "trace.csv").open(newline="") as fh:
        rows = [(int(r["epoch"]), float(r["loss"]), float(r["test_acc"])) for r in csv.DictReader(fh)]
    failures += checks.check_trace(rows, rec.captured["test_size"])
    info["last_test_acc"] = rows[-1][2]

    if config.ppr.enabled:
        graph, kwargs, pairs = rec.captured["ppr"]
        if kwargs.get("transition", "walk") != "walk" or kwargs.get("weighted"):
            failures.append("PPR check covers only unweighted walk transitions")
        else:
            failures += checks.check_ppr_pairs(
                graph.num_users, graph.trust_edges, pairs, kwargs["k"], kwargs["lam"],
                kwargs["epsilon"], PPR_SAMPLE, rng,
            )
    if config.triples.enabled:
        triples, model = rec.captured["transe"]
        h, r, t = (np.array([getattr(x, f) for x in triples]) for f in ("head", "relation", "tail"))
        failures += checks.check_transe(model.entity_vectors, model.relation_vectors, h, r, t, rng)

    views, params = rec.captured["views"], rec.captured["params"]
    num_users = next(iter(views.values())).num_users
    pairs = rng.integers(num_users, size=(256, 2))
    labels = rng.integers(2, size=256)
    tensors = [tensor for _, tensor, _ in params.named()]

    def loss():
        z = train.fused_users(views, params, None, None)
        return experiment.pair_loss(z, pairs[:, 0], pairs[:, 1], labels, params.predictor).item()

    with checks.HeldKinks(autodiff) as kinks:
        with Tape() as tape:
            z = train.fused_users(views, params, None, None)
            value = experiment.pair_loss(z, pairs[:, 0], pairs[:, 1], labels, params.predictor)
            tape.mark_output(value)
        grads = train.backward(tape)
        gradients = [grads.get(t, np.zeros_like(t.value)) for t in tensors]
        kinks.hold()
        grad_failures, info["grad_rel_err"] = checks.check_directional_derivative(
            loss, gradients, tensors, rng)
    info["kinks_held"] = kinks.held
    failures += grad_failures
    return failures, info


def main(spec: dict) -> dict:
    out_dir = Path(spec["out"])
    config = build_config(spec)
    rec = Recorder()
    expected = install(rec, config, spec["traced"])

    start = time.process_time()
    summary = experiment.run(config, out_dir=out_dir, keep_params=True)
    end = time.process_time()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rec.uninstall()

    called = {name for name, _, _ in rec.events}
    missing = [name for name in expected if name not in called]
    bounds = epoch_bounds(rec)
    result = {
        "seed": spec["seed"],
        "traced": spec["traced"],
        "setup_s": bounds[0] - start,
        "epoch_s": float(np.median(np.diff(bounds))),
        "train_s": end - bounds[0],
        "run_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "accuracy": summary.accuracy,
        "f1": summary.f1,
    }
    if spec["traced"]:
        result["layers"] = layer_metrics(rec, bounds)
    failures = [f"wrapped name never called: {name}" for name in missing]
    rng = np.random.default_rng([spec["seed"], 1])
    check_failures, info = run_checks(config, rec, out_dir, rng)
    result.update(info, failures=failures + check_failures)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    try:
        result = main(spec)
    except Exception:  # the parent counts this run as failed and shows why
        result = {"crashed": traceback.format_exc()}
    (Path(spec["out"]) / "result.json").write_text(json.dumps(result))
