"""Tests of the benchmark itself, on tiny fixtures.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from workloads import EPOCH_METRICS, RUN_METRICS, WORKLOADS

from trustnet import autodiff, fixtures
from trustnet.graph import HeteroGraph
from trustnet.ppr import topk_augment
from trustnet.train import backward, forward, init_params

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def child_results(tmp_path_factory):
    """One untraced and one traced child run on a tiny SIoT fixture with triples and PPR."""
    data = fixtures.make_siot_files(
        tmp_path_factory.mktemp("siot"), seed=0, num_users=80, num_objects=40, num_trust=700,
        mean_comments=3.0,
    )
    config = {"triples": {"enabled": True, "epochs": 20}, "ppr": {"k": 5}, "epochs": 40,
              "user_embed": {"epochs": 3}}
    outs, procs = [], []
    for traced in (False, True):
        out = tmp_path_factory.mktemp(f"child{int(traced)}")
        spec = {"dataset": str(data), "kind": "siot_csv", "seed": 3, "traced": traced,
                "config": config, "out": str(out)}
        procs.append(subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                                      env=run.child_env()))
        outs.append(out)
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    return [json.loads((out / "result.json").read_text()) for out in outs]


def test_benchmark_json_lists_what_the_runner_emits():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == (
        RUN_METRICS + EPOCH_METRICS + [("trace.overhead_pct", "%")]
    )


def test_every_metric_is_emitted_with_its_unit(child_results):
    for result in child_results:
        assert "crashed" not in result, result.get("crashed")
        assert result["failures"] == []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        report = run.summarize(child_results, trace)
        assert report["correct"] and report["attempted"] == 2 and report["failed"] == 0
        emitted = {name: m["unit"] for name, m in report["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(np.isfinite(m["value"]) for m in report["metrics"].values())


def test_traced_run_sees_every_layer(child_results):
    layers = child_results[1]["layers"]
    for name in ("ppr.topk_augment_s", "embed.embed_users_s", "conv.trustor_s", "train.backward_s"):
        assert layers[name] > 0.0, name
    assert layers["graph.view_edges"] > 0 and layers["autodiff.tape_records"] > 0


def test_failed_check_marks_the_run_failed_and_incorrect(child_results):
    bad = dict(child_results[0], failures=["loss did not fall"])
    report = run.summarize([bad, child_results[0]], trace=False)
    assert report == dict(report, correct=False, attempted=2, failed=1)
    assert run.summarize([bad], trace=False) is None


def _ppr_case():
    rng = np.random.default_rng(5)
    n = 60
    edges = {(int(a), int(b)) for a, b in rng.integers(n, size=(150, 2)) if a != b}
    graph = HeteroGraph(num_users=n, num_objects=1, trust_edges=sorted(edges),
                        interaction_edges=[(0, n)], object_edges=[])
    pairs = topk_augment(graph, k=4, lam=0.15, epsilon=1e-7)
    return graph, pairs


def _check_ppr(graph, pairs):
    return checks.check_ppr_pairs(
        graph.num_users, graph.trust_edges, pairs, k=4, lam=0.15, epsilon=1e-7, sample=60,
        rng=np.random.default_rng(0),
    )


def test_ppr_check_passes_the_program_output():
    graph, pairs = _ppr_case()
    assert len(pairs) > 0
    assert _check_ppr(graph, pairs) == []


@pytest.mark.parametrize("corruption", ["self_pair", "low_target", "extra_pair"])
def test_ppr_check_catches_corrupted_lists(corruption):
    graph, pairs = _ppr_case()
    pairs = pairs.copy()
    source = int(pairs[0, 0])
    exact = checks.exact_ppr(graph.num_users, graph.trust_edges, [source], 0.15)[0]
    exact[source] = np.inf
    worst = int(np.argmin(exact))
    if corruption == "self_pair":
        pairs[0, 1] = source
    elif corruption == "low_target":
        pairs[0, 1] = worst
    else:
        pairs = np.concatenate([pairs, [[source, worst]] * 4])
    assert _check_ppr(graph, pairs) != []


def test_exact_ppr_matches_power_iteration():
    graph, _ = _ppr_case()
    n, edges, lam, s = graph.num_users, graph.trust_edges, 0.15, 3
    deg = np.bincount(edges[:, 0], minlength=n)
    walk = np.zeros((n, n))
    walk[edges[:, 0], edges[:, 1]] = 1.0 / deg[edges[:, 0]]
    walk[deg == 0, s] = 1.0
    p = np.full(n, 1.0 / n)
    for _ in range(2000):
        p = lam * np.eye(n)[s] + (1.0 - lam) * walk.T @ p
    np.testing.assert_allclose(checks.exact_ppr(n, edges, [s], lam)[0], p, atol=1e-12)


@pytest.mark.parametrize("flip", [False, True])
def test_gradient_check_catches_a_sign_flip(flip):
    fixture = fixtures.make_pipeline_fixture(seed=1)
    params = init_params(seed=11, user_dim=4, object_dim=4, latent_dim=3)
    tensors = [t for _, t, _ in params.named()]

    def loss():
        return forward(fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects,
                       params, fixture.samples)[0]

    _, tape = forward(fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects,
                      params, fixture.samples)
    grads = backward(tape)
    gradients = [(-1.0 if flip else 1.0) * grads.get(t, np.zeros_like(t.value)) for t in tensors]
    failures, err = checks.check_directional_derivative(loss, gradients, tensors, np.random.default_rng(2))
    assert (failures != []) == flip
    assert err < checks.GRAD_TOLERANCE or flip


@pytest.mark.parametrize("hold", [False, True])
def test_gradient_check_holds_leaky_relu_kinks(hold):
    """Inputs within the step of zero cross the kink; held, they stay on their piece."""
    w = autodiff.Tensor(np.random.default_rng(4).normal(scale=1e-7, size=64), requires_grad=True)

    def loss():
        return float(autodiff.leaky_relu(w, 0.2).value.sum())

    with checks.HeldKinks(autodiff) as kinks:
        with autodiff.Tape() as tape:
            tape.mark_output(autodiff.reduce_sum(autodiff.leaky_relu(w, 0.2)))
        gradients = [backward(tape)[w]]
        if hold:
            kinks.hold()
        failures, err = checks.check_directional_derivative(loss, gradients, [w], np.random.default_rng(5))
    assert (failures == []) == hold
    assert (kinks.held > 0) == hold
    assert autodiff.leaky_relu is kinks._original


def test_trace_check_catches_rising_loss_and_chance_accuracy():
    good = [(0, 0.69, 50.0), (10, 0.40, 80.0)]
    assert checks.check_trace(good, test_size=400) == []
    assert checks.check_trace([(0, 0.40, 50.0), (10, 0.69, 80.0)], test_size=400) != []
    assert checks.check_trace([(0, 0.69, 50.0), (10, 0.40, 56.0)], test_size=400) != []


def test_without_sources_the_runner_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "siot-kg", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
