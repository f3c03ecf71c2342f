import ast
import dataclasses
import json
import re
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from trustnet.autodiff import Tape, TapeError, Tensor, record
from trustnet.predict import PredictorParams
from trustnet.errors import DataError, NumericalError
from trustnet.experiment import OptimConfig
from trustnet import train as train_mod
from trustnet.fixtures import make_pipeline_fixture
from trustnet.train import (
    ModelParams,
    adam_step,
    backward,
    forward,
    grad_check,
    init_params,
    load_params,
    save_params,
)

# Adam's step size and decay as a run sets them
OPTIM = dataclasses.asdict(OptimConfig())


@pytest.fixture(scope="module")
def fixture():
    return make_pipeline_fixture(seed=1)


def fresh_params(fixture, seed=0, latent_dim=3, **kw):
    return init_params(
        seed=seed,
        user_dim=fixture.h0_users.shape[1],
        object_dim=fixture.h0_objects.shape[1],
        latent_dim=latent_dim,
        **kw,
    )


def builder(fixture, **kw):
    """A ``load_params`` build: the provenances it is given, and fresh parameters of ``fresh_params``."""
    seen = []

    def build(provenance):
        seen.append(provenance)
        return fresh_params(fixture, seed=99, **kw)

    build.seen = seen
    return build


def named_moments(params) -> dict:
    """(m, v) by name: each trainable's slices of the buffer's moments, at its offset and shape."""
    buffer, moments, start = params.buffer, {}, 0
    for name, _, view in buffer.layout:
        end = start + view.size
        moments[name] = tuple(a[start:end].reshape(view.shape) for a in (buffer.m, buffer.v))
        start = end
    return moments


class TestForwardBackward:
    def test_empty_samples_rejected(self, fixture):
        params = fresh_params(fixture)
        empty = np.zeros(0, dtype=np.int64)
        with pytest.raises(DataError):
            forward(fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, (empty,) * 3)

    def test_deterministic_loss(self, fixture):
        params = fresh_params(fixture, seed=3)
        loss1, _ = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        loss2, _ = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        assert loss1 == loss2

    def test_loss_composes_component_oracles(self, fixture):
        # recompute through the public inference surfaces and compare
        from test_conv import encode_role, fuse
        from test_embed import project
        from trustnet.graph import Role
        from test_predict import batch_loss

        params = fresh_params(fixture, seed=5)
        hu = project(fixture.h0_users, params.proj_user.value)
        ho = project(fixture.h0_objects, params.proj_obj.value)
        h0 = np.vstack([hu, ho])
        tor = encode_role(fixture.views[Role.TRUSTOR], h0, params.trustor)
        tee = encode_role(fixture.views[Role.TRUSTEE], h0, params.trustee)
        nu = fixture.graph.num_users
        z = fuse(tor[:nu], tee[:nu], params.gate)
        expected = batch_loss(fixture.samples, z, params.predictor)
        got, _ = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_tape_reuse_rejected(self, fixture):
        params = fresh_params(fixture)
        _, tape = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        backward(tape)
        with pytest.raises(TapeError):
            backward(tape)

    def test_constant_loss_zero_gradients(self, fixture):
        # detach everything: plain-array initial tables and a frozen model
        params = fresh_params(fixture, seed=7)
        for _, tensor, _ in params.named():
            tensor.requires_grad = False
        loss, tape = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        grads = backward(tape)
        for _, tensor, _ in params.named():
            assert tensor not in grads

    @staticmethod
    def planted_tape(grads: dict):
        """A tape whose backward hands each named leaf the gradient given for it."""
        leaves = {name: Tensor(np.zeros(np.shape(g)), name=name) for name, g in grads.items()}
        with Tape() as tape:
            out = Tensor(0.0)
            record("plant", out, lambda _: [(leaves[n], np.array(g, dtype=float)) for n, g in grads.items()])
            tape.mark_output(out)
        return tape, leaves

    @pytest.mark.parametrize(
        "bad", [[1.0, np.nan], [np.inf, 2.0], [-np.inf, np.inf], [np.nan, -np.inf]],
        ids=["nan", "inf", "inf_minus_inf", "nan_and_inf"],
    )
    def test_a_non_finite_gradient_is_named(self, bad):
        tape, _ = self.planted_tape(
            {"w_first": np.ones((2, 3)), "w_bad": np.reshape([0.5, *bad, 3.0], (2, 2)), "w_last": 4.0}
        )
        with pytest.raises(NumericalError, match=r"^non-finite gradient for Tensor\(w_bad, shape=\(2, 2\)"):
            backward(tape)

    @pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
    def test_every_trainable_carries_its_checkpoint_key(self, fixture, trainable):
        params = fresh_params(fixture, seed=3)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=trainable)
        assert [tensor.name for _, tensor, _ in params.named()] == [name for name, _, _ in params.named()]

    def test_a_diverged_model_names_its_parameter(self):
        fixture = make_pipeline_fixture(1)
        params = init_params(seed=11, user_dim=4, object_dim=4, latent_dim=3)
        params.predictor.weight.value[0, 0] = np.inf
        _, tape = forward(fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects,
                          params, fixture.samples)
        keys = "|".join(re.escape(name) for name, _, _ in params.named())
        with pytest.raises(NumericalError, match=rf"^non-finite gradient for Tensor\(({keys}), "):
            backward(tape)

    def test_finite_gradients_whose_sum_overflows_pass(self):
        big = np.full(3, np.finfo(np.float64).max)
        tape, leaves = self.planted_tape({"a": big, "b": big, "c": -big[:1]})
        grads = backward(tape)
        assert np.array_equal(grads[leaves["a"]], big) and np.array_equal(grads[leaves["b"]], big)


class TestAdam:
    def test_zero_grads_zero_decay_no_move(self, fixture):
        params = fresh_params(fixture, seed=2)
        before = {n: t.value.copy() for n, t, _ in params.named()}
        adam_step(params, {}, lr=OptimConfig.lr, weight_decay=0.0)
        for name, tensor, _ in params.named():
            assert np.array_equal(tensor.value, before[name])
        assert params.step == 1

    def test_first_step_scalar_analytic(self):
        # one scalar parameter, gradient 1: first Adam step is ~ -lr
        w = Tensor(np.array(0.0))
        params = ModelParams(
            fusion="gate",
            proj_user=w,
            proj_obj=Tensor(np.array(0.0)),
            trustor=None,
            trustee=None,
            gate=Tensor(np.zeros(1)),
            predictor=PredictorParams(Tensor(np.zeros((2, 2))), Tensor(np.zeros(2))),
        )
        adam_step(params, {w: np.array(1.0)}, lr=0.005, weight_decay=0.0)
        expected = -0.005 * 1.0 / (1.0 + 1e-8)
        assert float(w.value) == pytest.approx(expected, rel=1e-9)

    def test_quadratic_bowl_descends(self):
        w = Tensor(np.array([3.0, -2.0]))
        params = ModelParams(
            fusion="gate",
            proj_user=w,
            proj_obj=Tensor(np.zeros(1)),
            trustor=None,
            trustee=None,
            gate=Tensor(np.zeros(1)),
            predictor=PredictorParams(Tensor(np.zeros((2, 2))), Tensor(np.zeros(2))),
        )
        losses = []
        for _ in range(10):
            losses.append(float(np.sum(w.value**2)))
            adam_step(params, {w: 2.0 * w.value}, lr=0.1, weight_decay=0.0)
        losses.append(float(np.sum(w.value**2)))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_weight_decay_spares_gate_and_bias(self, fixture):
        params = fresh_params(fixture, seed=4)
        params.gate.value[:] = 1.0
        params.predictor.bias.value[:] = 1.0
        gate_before = params.gate.value.copy()
        bias_before = params.predictor.bias.value.copy()
        proj_before = params.proj_user.value.copy()
        adam_step(params, {}, lr=OptimConfig.lr, weight_decay=5e-4)
        assert np.array_equal(params.gate.value, gate_before)
        assert np.array_equal(params.predictor.bias.value, bias_before)
        assert not np.array_equal(params.proj_user.value, proj_before)

    @pytest.mark.parametrize(
        "name, value, grad, lr, weight_decay",
        [
            ("trustee/layer0/w_obj", 0.0, 1e160, 0.005, 0.0),  # g * g
            ("predictor/weight", 1e300, 0.0, 0.005, 1e10),  # the decay term
            ("gate/raw", 0.0, 1e10, 1e300, 0.0),  # the step times lr
        ],
    )
    def test_overflow_names_the_tensor(self, fixture, name, value, grad, lr, weight_decay):
        params = fresh_params(fixture, seed=8)
        tensor = {n: t for n, t, _ in params.named()}[name]
        tensor.value[...] = value
        with pytest.raises(NumericalError, match=f"^Adam update of {name} overflows float64$"):
            adam_step(params, {tensor: np.full(tensor.shape, grad)}, lr=lr, weight_decay=weight_decay)

    def test_moment_shapes_mirror_params(self, fixture):
        params = fresh_params(fixture, seed=6)
        _, tape = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        adam_step(params, backward(tape), **OPTIM)
        for name, tensor, _ in params.named():
            m, v = named_moments(params)[name]
            assert m.shape == tensor.value.shape
            assert v.shape == tensor.value.shape


def oracle_adam_step(values, moments, step, grads, lr, weight_decay, decays,
                     beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam on plain arrays in whole-array expressions, every intermediate a new array."""
    for name, value in values.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(value)
        if decays[name] and weight_decay:
            g = g + weight_decay * value
        m, v = moments.get(name, (np.zeros_like(value), np.zeros_like(value)))
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        moments[name] = (m, v)
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        values[name] = value - lr * m_hat / (np.sqrt(v_hat) + eps)


def random_grads(rng, params, step):
    """Gradients of mixed scales; two tensors share one array, as ``add``'s
    operands do, and every other step one tensor gets none."""
    grads = {
        t: rng.normal(size=t.value.shape) * 10.0 ** rng.integers(-6, 2) for _, t, _ in params.named()
    }
    layer = params.trustor[0]
    grads[layer.w_obj] = grads[layer.w_user]
    if step % 2:
        del grads[params.proj_obj]
    return grads


def bits(array) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.int64)


def scalar_params():
    """A model whose projections are 0-d weights and that has no role encoder."""
    return ModelParams(
        fusion="gate",
        proj_user=Tensor(np.array(0.5)),
        proj_obj=Tensor(np.array(-2.0)),
        trustor=None,
        trustee=None,
        gate=Tensor(np.array([1.0, -1.0])),
        predictor=PredictorParams(Tensor(np.arange(4.0).reshape(2, 2)), Tensor(np.zeros(2))),
    )


def styled_params(fixture, style):
    """SIoT-style parameters (frozen tables), FilmTrust-style (trainable tables), or 0-d weights."""
    if style == "scalars":
        return scalar_params()
    params = fresh_params(fixture, seed=41)
    params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=style == "filmtrust")
    return params


def drawn_grads(rng, params, step):
    """Gradients of mixed scales for every trainable but one, a different one each step."""
    named = params.named()
    grads = {t: rng.normal(size=t.value.shape) * 10.0 ** rng.integers(-6, 2) for _, t, _ in named}
    del grads[named[step % len(named)][1]]
    return grads


class TestAdamMatchesWholeArrayFormula:
    @pytest.mark.parametrize("weight_decay", [5e-4, 0.0], ids=["decay", "no_decay"])
    def test_twenty_steps_bitwise(self, fixture, weight_decay):
        rng = np.random.default_rng(31)
        params = fresh_params(fixture, seed=7)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=True)
        names = {id(t): n for n, t, _ in params.named()}
        decays = {n: d for n, _, d in params.named()}
        values = {n: t.value.copy() for n, t, _ in params.named()}
        moments = {}
        for step in range(1, 21):
            grads = random_grads(rng, params, step)
            kept = {id(g): g.copy() for g in grads.values()}
            adam_step(params, grads, lr=0.01, weight_decay=weight_decay)
            oracle_adam_step(values, moments, step, {names[id(t)]: g for t, g in grads.items()},
                             lr=0.01, weight_decay=weight_decay, decays=decays)
            for g in grads.values():
                assert np.array_equal(g, kept[id(g)])  # gradients are only read
        for name, tensor, _ in params.named():
            assert np.array_equal(bits(tensor.value), bits(values[name])), name
            for got, want in zip(named_moments(params)[name], moments[name]):
                assert np.array_equal(bits(got), bits(want)), name

class TestFlatWeightBuffer:
    def test_weights_are_views_into_one_buffer_decay_flagged_first(self, fixture):
        params = styled_params(fixture, "filmtrust")
        buffer = params.buffer
        weights = params.named()
        assert {"h0/users", "h0/objects"} <= {name for name, *_ in weights}
        assert [name for name, *_ in buffer.layout] == [n for n, _, d in weights if d] + [
            n for n, _, d in weights if not d
        ]
        start = 0
        for name, tensor, view in buffer.layout:
            end = start + tensor.value.size
            assert tensor.value is view
            assert np.shares_memory(view, buffer.values[start:end]) and view.size == end - start
            start = end
        assert start == buffer.values.size == buffer.m.size == buffer.v.size
        assert buffer.num_decay == sum(t.value.size for _, t, d in weights if d)

    @pytest.mark.parametrize("weight_decay", [5e-4, 0.0], ids=["decay", "no_decay"])
    @pytest.mark.parametrize("style", ["siot", "filmtrust", "scalars"])
    def test_steps_are_bitwise_the_whole_array_formula(self, fixture, style, weight_decay):
        rng = np.random.default_rng(43)
        params = styled_params(fixture, style)
        tables = [t.value.copy() for t in (params.h0_users, params.h0_objects) if t is not None]
        names = {id(t): n for n, t, _ in params.named()}
        decays = {n: d for n, _, d in params.named()}
        values = {n: t.value.copy() for n, t, _ in params.named()}
        moments = {}
        for step in range(1, 5):
            grads = drawn_grads(rng, params, step)
            adam_step(params, grads, lr=0.01, weight_decay=weight_decay)
            oracle_adam_step(values, moments, step, {names[id(t)]: g for t, g in grads.items()},
                             lr=0.01, weight_decay=weight_decay, decays=decays)
            for name, tensor, _ in params.named():
                assert np.array_equal(bits(tensor.value), bits(values[name])), (step, name)
                for got, want in zip(named_moments(params)[name], moments[name]):
                    assert np.array_equal(bits(got), bits(want)), (step, name)
        if style == "siot":
            assert np.array_equal(params.h0_users.value, tables[0])
            assert np.array_equal(params.h0_objects.value, tables[1])

    # every trainable is a view into the buffer for life, so one check of the buffer covers it
    @pytest.mark.parametrize(
        "target", ["trustee/layer1/gamma", "predictor/bias", "h0/users"], ids=lambda x: f"in_place-{x}"
    )
    def test_a_non_finite_value_is_named(self, fixture, target):
        params = styled_params(fixture, "filmtrust")
        params.assert_finite()
        tensor = {n: t for n, t, _ in params.named()}[target]
        tensor.value.reshape(-1)[-1] = np.inf
        with pytest.raises(NumericalError, match=f"^parameter {target} contains non-finite values$"):
            params.assert_finite()


class ValueBindings(ast.NodeVisitor):
    """(enclosing class and function names, line) of each binding of a ``.value`` attribute."""

    def __init__(self):
        self.scope, self.found = [], []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Attribute(self, node):
        if node.attr == "value" and isinstance(node.ctx, (ast.Store, ast.Del)):
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)

    def visit_Call(self, node):
        name = node.args[1] if len(node.args) > 1 else None
        if getattr(node.func, "id", None) == "setattr" and getattr(name, "value", None) == "value":
            self.found.append((".".join(self.scope), node.lineno))
        self.generic_visit(node)


def value_bindings(source: str) -> list:
    visitor = ValueBindings()
    visitor.visit(ast.parse(source))
    return visitor.found


class TestValueBindingGuard:
    ALLOWED = {("autodiff.py", "Tensor.__init__"), ("train.py", "WeightBuffer.pack")}

    def test_only_construction_and_packing_bind_a_value(self):
        # a weight is a view into the buffer for life: a rebound value would train apart from it
        found = {
            (path.name, scope, line)
            for path in sorted(Path(train_mod.__file__).parent.glob("*.py"))
            for scope, line in value_bindings(path.read_text())
        }
        assert {(name, scope) for name, scope, _ in found} >= self.ALLOWED
        assert sorted(f for f in found if f[:2] not in self.ALLOWED) == []

    def test_every_form_of_binding_is_seen(self):
        source = """
t.value = 1
a, t.value = 1, 2
t.value += 1
t.value: float = 1
for t.value in []: pass
with f() as t.value: pass
del t.value
setattr(t, "value", 1)
class C:
    def f(self):
        self.value = 1
t.value[0] = 1
t.value.shape = (1,)
t.values = 1
"""
        assert value_bindings(source) == [("", line) for line in range(2, 10)] + [("C.f", 12)]


class TestGradCheck:
    def test_full_pipeline_gradients(self, fixture):
        params = fresh_params(fixture, seed=11)
        report = grad_check(params, fixture, tolerance=1e-4)
        assert report.passed, str(report)

    def test_every_group_covered(self, fixture):
        params = fresh_params(fixture, seed=11)
        report = grad_check(params, fixture, tolerance=1e-4)
        names = set(report.errors)
        for expected in (
            "proj_user",
            "proj_obj",
            "trustor/layer0/w_user",
            "trustor/layer1/eta_obj",
            "trustee/layer0/gamma",
            "gate/raw",
            "predictor/weight",
            "predictor/bias",
        ):
            assert expected in names

    def test_concat_fusion_gradients(self, fixture):
        # concat halves the per-role width, so the latent dim must be even
        params = init_params(
            seed=13,
            user_dim=fixture.h0_users.shape[1],
            object_dim=fixture.h0_objects.shape[1],
            latent_dim=4,
            fusion="concat",
        )
        report = grad_check(params, fixture, tolerance=1e-4)
        assert report.passed, str(report)

    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_other_depths_gradients(self, fixture, num_layers):
        # the last layer computes only the user rows, whatever the depth
        params = fresh_params(fixture, seed=23, num_layers=num_layers)
        report = grad_check(params, fixture, tolerance=1e-4)
        assert f"trustee/layer{num_layers - 1}/gamma" in report.errors
        assert report.passed, str(report)

    def test_single_role_gradients(self, fixture):
        params = fresh_params(fixture, seed=15, trustee_enabled=False)
        report = grad_check(params, fixture, tolerance=1e-4)
        assert report.passed, str(report)

    def test_trainable_initial_tables_gradients(self, fixture):
        params = fresh_params(fixture, seed=17)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=True)
        from trustnet.train import PipelineFixture

        fix = PipelineFixture(
            graph=fixture.graph,
            views=fixture.views,
            h0_users=None,
            h0_objects=None,
            samples=fixture.samples,
        )
        report = grad_check(params, fix, tolerance=1e-4)
        assert "h0/users" in report.errors
        assert report.passed, str(report)

    def test_corrupted_gradient_fails(self, fixture, monkeypatch):
        params = fresh_params(fixture, seed=11)
        target = params.trustor[0].w_user
        exact = train_mod.backward

        def corrupted(tape):
            grads = exact(tape)
            bad = grads[target].copy()
            bad.reshape(-1)[0] += 10.0 * (np.abs(bad).mean() + 1.0)
            grads[target] = bad
            return grads

        monkeypatch.setattr(train_mod, "backward", corrupted)
        report = grad_check(params, fixture, tolerance=1e-4)
        assert not report.passed
        assert report.errors["trustor/layer0/w_user"] >= 1e-4
        assert all(err < 1e-4 for name, err in report.errors.items() if name != "trustor/layer0/w_user")

    def test_linear_model_near_exact(self, fixture):
        # predictor-only gradients on a fixed embedding are exact for the
        # affine part; tolerance far below the pipeline threshold
        params = fresh_params(fixture, seed=19)
        report = grad_check(params, fixture, tolerance=1e-4)
        assert report.errors["predictor/bias"] < 1e-6


class TestCheckpoint:
    def test_roundtrip(self, fixture, tmp_path):
        params = fresh_params(fixture, seed=21)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=True)
        _, tape = forward(fixture.graph, fixture.views, None, None, params, fixture.samples)
        adam_step(params, backward(tape), **OPTIM)
        path = tmp_path / "model.npz"
        save_params(params, path, {"run_seed": 5, "config": {"train_ratio": 0.8}})
        build = builder(fixture)
        loaded, provenance = load_params(path, build)
        assert provenance == {"run_seed": 5, "config": {"train_ratio": 0.8}}
        assert build.seen == [provenance]
        assert loaded.h0_users.requires_grad and loaded.h0_objects.requires_grad
        for (name_a, t_a, _), (name_b, t_b, _) in zip(params.named(), loaded.named()):
            assert name_a == name_b
            assert np.array_equal(t_a.value, t_b.value)
        loss_a, _ = forward(fixture.graph, fixture.views, None, None, params, fixture.samples)
        loss_b, _ = forward(fixture.graph, fixture.views, None, None, loaded, fixture.samples)
        assert loss_a == loss_b

    @staticmethod
    def trained_checkpoint(fixture, path, edit) -> None:
        """A checkpoint after one Adam step, its arrays rewritten by ``edit``."""
        params = fresh_params(fixture, seed=22)
        _, tape = forward(fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects,
                          params, fixture.samples)
        adam_step(params, backward(tape), **OPTIM)
        save_params(params, path)
        with np.load(path) as stored:
            data = dict(stored)
        edit(data)
        np.savez(path, **data)

    def test_moment_of_an_unknown_parameter_is_a_data_error(self, fixture, tmp_path):
        # checkpoints keep no Adam state, so a moment of any parameter is an array nothing reads
        path = tmp_path / "model.npz"

        def add_unknown(data):
            data["moment_m::extra/weight"] = data["param::predictor/weight"]
            data["moment_v::predictor/weight"] = np.zeros_like(data["param::predictor/weight"])

        self.trained_checkpoint(fixture, path, add_unknown)
        with pytest.raises(
            DataError, match=r"\['moment_m::extra/weight', 'moment_v::predictor/weight'\] that the model does not read"
        ):
            load_params(path, builder(fixture))

    def test_integer_arrays_load_as_float(self, fixture, tmp_path):
        path = tmp_path / "model.npz"
        ints = {"param::proj_user": np.int32, "param::gate/raw": np.int64, "param::predictor/bias": np.uint8}

        def to_integers(data):
            for key, dtype in ints.items():
                data[key] = np.round(100.0 * data[key]).astype(dtype)

        self.trained_checkpoint(fixture, path, to_integers)
        loaded, _ = load_params(path, builder(fixture))
        with np.load(path) as stored:
            for got, key in ((loaded.proj_user, "param::proj_user"), (loaded.gate, "param::gate/raw"),
                             (loaded.predictor.bias, "param::predictor/bias")):
                assert got.value.dtype == np.float64 and np.array_equal(got.value, stored[key])

    @pytest.mark.parametrize("key", ["__meta__", "param::proj_obj", "param::gate/raw"])
    def test_a_damaged_member_is_a_data_error(self, fixture, tmp_path, key):
        path = tmp_path / "model.npz"
        self.trained_checkpoint(fixture, path, lambda data: None)
        with zipfile.ZipFile(path) as archive:
            member = archive.getinfo(f"{key}.npy")
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack("<HH", raw[member.header_offset + 26 : member.header_offset + 30])
        raw[member.header_offset + 30 + name_len + extra_len + member.compress_size - 1] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(DataError, match=f"{key}.*Bad CRC-32"):
            load_params(path, builder(fixture))

    def test_version_check(self, fixture, tmp_path):
        params = fresh_params(fixture)
        path = tmp_path / "model.npz"
        save_params(params, path)
        import json

        import numpy as np2

        data = dict(np2.load(path))
        meta = json.loads(bytes(data["__meta__"]).decode())
        meta["version"] = 99
        data["__meta__"] = np2.frombuffer(json.dumps(meta).encode(), dtype=np2.uint8)
        np2.savez(path, **data)
        with pytest.raises(DataError):
            load_params(path, builder(fixture))

    def test_meta_holds_only_version_and_provenance(self, fixture, tmp_path):
        path = tmp_path / "model.npz"
        self.trained_checkpoint(fixture, path, lambda data: None)
        with np.load(path) as stored:
            meta = json.loads(bytes(stored["__meta__"]).decode())
            assert not [key for key in stored.files if key.startswith("moment_")]
        assert meta == {"version": 4, "provenance": None}

    @pytest.mark.parametrize("version", [2, 3])
    def test_version_2_is_unsupported(self, fixture, tmp_path, version):
        path = tmp_path / "model.npz"

        def older(data):
            meta = json.loads(bytes(data["__meta__"]).decode())
            data["__meta__"] = np.frombuffer(json.dumps({**meta, "version": version}).encode(), dtype=np.uint8)

        self.trained_checkpoint(fixture, path, older)
        with pytest.raises(DataError, match=f"^unsupported checkpoint version {version}$"):
            load_params(path, builder(fixture))

    @pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
    def test_initial_tables_come_back_as_stored(self, fixture, tmp_path, trainable):
        params = fresh_params(fixture, seed=24)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=trainable)
        path = tmp_path / "model.npz"
        save_params(params, path)
        kind = "param" if trainable else "frozen"
        with np.load(path) as stored:
            assert {f"{kind}::h0/users", f"{kind}::h0/objects"} <= set(stored.files)
        loaded, _ = load_params(path, builder(fixture))
        for got, want in ((loaded.h0_users, fixture.h0_users), (loaded.h0_objects, fixture.h0_objects)):
            assert got.requires_grad is trainable
            assert np.array_equal(got.value, want)

    @pytest.mark.parametrize("trainable", [True, False], ids=["trainable", "frozen"])
    def test_each_stored_array_is_read_once(self, fixture, tmp_path, monkeypatch, trainable):
        params = fresh_params(fixture, seed=27)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=trainable)
        adam_step(params, {}, **OPTIM)
        path = tmp_path / "model.npz"
        save_params(params, path)
        reads, exact = [], train_mod._stored_array
        monkeypatch.setattr(train_mod, "_stored_array", lambda data, key: reads.append(key) or exact(data, key))
        load_params(path, builder(fixture))
        with np.load(path) as stored:
            assert sorted(reads) == sorted(key for key in stored.files if key != "__meta__")
        assert {f"{'param' if trainable else 'frozen'}::h0/users", "param::gate/raw"} <= set(reads)

    @pytest.mark.parametrize("kind", ["param", "frozen"])
    def test_one_initial_table_without_the_other_is_a_data_error(self, fixture, tmp_path, kind):
        params = fresh_params(fixture, seed=25)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=kind == "param")
        path = tmp_path / "model.npz"
        save_params(params, path)
        with np.load(path) as stored:
            data = dict(stored)
        del data[f"{kind}::h0/objects"]
        np.savez(path, **data)
        with pytest.raises(DataError, match="missing initial tables"):
            load_params(path, builder(fixture))

    def test_a_build_of_another_model_is_a_shape_mismatch(self, fixture, tmp_path):
        path = tmp_path / "model.npz"
        self.trained_checkpoint(fixture, path, lambda data: None)
        with pytest.raises(DataError, match="shape mismatch for proj_user"):
            load_params(path, builder(fixture, latent_dim=4))
        with pytest.raises(DataError, match="missing parameter trustor/layer2/w_user"):
            load_params(path, builder(fixture, num_layers=3))
        with pytest.raises(DataError, match=r"\['param::trustor/layer1/w_user'.* the model does not"):
            load_params(path, builder(fixture, num_layers=1))

    def test_parameters_the_model_lacks_are_a_data_error_without_moments(self, fixture, tmp_path):
        params = fresh_params(fixture, seed=26)
        path = tmp_path / "model.npz"
        save_params(params, path)
        with pytest.raises(DataError, match="trustee/layer1/gamma"):
            load_params(path, builder(fixture, trustee_enabled=False))

    def test_a_build_error_is_raised_as_it_is(self, fixture, tmp_path):
        path = tmp_path / "model.npz"
        self.trained_checkpoint(fixture, path, lambda data: None)

        def reject(provenance):
            raise DataError(f"no model for {provenance!r}")

        with pytest.raises(DataError, match="^no model for None$"):
            load_params(path, reject)
