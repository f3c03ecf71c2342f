import numpy as np
import pytest

from trustnet.autodiff import TapeError, Tensor
from trustnet.conv import GateParams
from trustnet.predict import PredictorParams
from trustnet.errors import DataError
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


@pytest.fixture(scope="module")
def fixture():
    return make_pipeline_fixture(seed=1)


def fresh_params(fixture, seed=0, **kw):
    return init_params(
        seed=seed,
        user_dim=fixture.h0_users.shape[1],
        object_dim=fixture.h0_objects.shape[1],
        latent_dim=3,
        **kw,
    )


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
        from trustnet.embed import EmbeddingTable
        from trustnet.graph import Role
        from test_predict import batch_loss

        params = fresh_params(fixture, seed=5)
        hu = project(EmbeddingTable(fixture.h0_users), params.proj_user.value)
        ho = project(EmbeddingTable(fixture.h0_objects), params.proj_obj.value)
        h0 = np.vstack([hu.vectors, ho.vectors])
        tor = encode_role(fixture.graph, fixture.views[Role.TRUSTOR], h0, params.trustor)
        tee = encode_role(fixture.graph, fixture.views[Role.TRUSTEE], h0, params.trustee)
        nu = fixture.graph.num_users
        z = fuse(tor.vectors[:nu], tee.vectors[:nu], params.gate)
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


class TestAdam:
    def test_zero_grads_zero_decay_no_move(self, fixture):
        params = fresh_params(fixture, seed=2)
        before = {n: t.value.copy() for n, t, _ in params.named()}
        adam_step(params, {}, weight_decay=0.0)
        for name, tensor, _ in params.named():
            assert np.array_equal(tensor.value, before[name])
        assert params.step == 1

    def test_first_step_scalar_analytic(self):
        # one scalar parameter, gradient 1: first Adam step is ~ -lr
        w = Tensor(np.array(0.0))
        params = ModelParams(
            latent_dim=1,
            user_dim=1,
            object_dim=1,
            fusion="gate",
            role_dim=1,
            proj_user=w,
            proj_obj=Tensor(np.array(0.0)),
            trustor=None,
            trustee=None,
            gate=GateParams(Tensor(np.zeros(1))),
            predictor=PredictorParams(Tensor(np.zeros((2, 2))), Tensor(np.zeros(2))),
        )
        adam_step(params, {w: np.array(1.0)}, lr=0.005, weight_decay=0.0)
        expected = -0.005 * 1.0 / (1.0 + 1e-8)
        assert float(w.value) == pytest.approx(expected, rel=1e-9)

    def test_quadratic_bowl_descends(self):
        w = Tensor(np.array([3.0, -2.0]))
        params = ModelParams(
            latent_dim=1,
            user_dim=1,
            object_dim=1,
            fusion="gate",
            role_dim=1,
            proj_user=w,
            proj_obj=Tensor(np.zeros(1)),
            trustor=None,
            trustee=None,
            gate=GateParams(Tensor(np.zeros(1))),
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
        params.gate.raw_gate.value[:] = 1.0
        params.predictor.bias.value[:] = 1.0
        gate_before = params.gate.raw_gate.value.copy()
        bias_before = params.predictor.bias.value.copy()
        proj_before = params.proj_user.value.copy()
        adam_step(params, {}, weight_decay=5e-4)
        assert np.array_equal(params.gate.raw_gate.value, gate_before)
        assert np.array_equal(params.predictor.bias.value, bias_before)
        assert not np.array_equal(params.proj_user.value, proj_before)

    def test_moment_shapes_mirror_params(self, fixture):
        params = fresh_params(fixture, seed=6)
        _, tape = forward(
            fixture.graph, fixture.views, fixture.h0_users, fixture.h0_objects, params, fixture.samples
        )
        adam_step(params, backward(tape))
        for name, tensor, _ in params.named():
            m, v = params.moments[name]
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
    layer = params.trustor.layers[0]
    grads[layer.w_obj] = grads[layer.w_user]
    if step % 2:
        del grads[params.proj_obj]
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
            assert np.array_equal(tensor.value, values[name]), name
            for got, want in zip(params.moments[name], moments[name]):
                assert np.array_equal(got, want), name

    def test_checkpoint_round_trip_continues_identically(self, fixture, tmp_path):
        rng = np.random.default_rng(32)
        params = fresh_params(fixture, seed=8)
        params.set_initial_tables(fixture.h0_users, fixture.h0_objects, trainable=True)
        for step in range(1, 4):
            adam_step(params, random_grads(rng, params, step))
        save_params(params, tmp_path / "ckpt.npz")
        loaded, _ = load_params(tmp_path / "ckpt.npz")
        for step in range(4, 8):
            grads = random_grads(rng, params, step)
            by_name = {n: grads.get(t) for n, t, _ in params.named()}
            adam_step(params, grads)
            adam_step(loaded, {t: by_name[n] for n, t, _ in loaded.named() if by_name[n] is not None})
        assert loaded.step == params.step == 7
        for (name, a, _), (_, b, _) in zip(params.named(), loaded.named()):
            assert np.array_equal(a.value, b.value), name
            for x, y in zip(params.moments[name], loaded.moments[name]):
                assert np.array_equal(x, y), name


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
        target = params.trustor.layers[0].w_user
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
        adam_step(params, backward(tape))
        path = tmp_path / "model.npz"
        save_params(params, path, {"run_seed": 5, "config": {"train_ratio": 0.8}})
        loaded, provenance = load_params(path)
        assert provenance == {"run_seed": 5, "config": {"train_ratio": 0.8}}
        assert loaded.step == params.step
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
        adam_step(params, backward(tape))
        save_params(params, path)
        with np.load(path) as stored:
            data = dict(stored)
        edit(data)
        np.savez(path, **data)

    def test_moment_without_its_pair_is_a_data_error(self, fixture, tmp_path):
        path = tmp_path / "model.npz"
        self.trained_checkpoint(fixture, path, lambda data: data.pop("moment_v::predictor/weight"))
        with pytest.raises(DataError, match="predictor/weight"):
            load_params(path)

    def test_moment_of_the_wrong_shape_is_a_data_error(self, fixture, tmp_path):
        path = tmp_path / "model.npz"

        def transpose(data):
            data["moment_m::predictor/weight"] = data["moment_m::predictor/weight"].T

        self.trained_checkpoint(fixture, path, transpose)
        with pytest.raises(DataError, match="predictor/weight"):
            load_params(path)

    def test_moment_of_an_unknown_parameter_is_a_data_error(self, fixture, tmp_path):
        path = tmp_path / "model.npz"

        def add_unknown(data):
            data["moment_m::extra/weight"] = data["moment_m::predictor/weight"]
            data["moment_v::extra/weight"] = data["moment_v::predictor/weight"]

        self.trained_checkpoint(fixture, path, add_unknown)
        with pytest.raises(DataError, match="extra/weight"):
            load_params(path)

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
            load_params(path)
