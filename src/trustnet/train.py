"""Training machinery: parameter container, full-pipeline forward and
backward passes on the autodiff tape, Adam with L2 weight decay, and a
central-difference gradient checker.

Everything runs in float64 so finite-difference verification at
perturbation 1e-5 is meaningful.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .conv import GateParams, LayerParams, RoleEncoder, layer_forward
from .errors import DataError, NumericalError
from .graph import HeteroGraph, Role
from .predict import PredictorParams, pair_loss

CHECKPOINT_VERSION = 2


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass
class ModelParams:
    """All trainable tensors plus Adam state.

    ``latent_dim`` is the dimension of the final fused embedding;
    concat fusion therefore runs each role encoder at half width so the
    fusion modes compare at an equal representation budget. Weight decay
    applies to weight matrices, attention vectors, and trainable
    embedding tables; never to the fusion gate or biases.
    """

    latent_dim: int
    user_dim: int
    object_dim: int
    fusion: str
    role_dim: int
    proj_user: Tensor
    proj_obj: Tensor
    trustor: RoleEncoder | None
    trustee: RoleEncoder | None
    gate: GateParams
    predictor: PredictorParams
    h0_users: Tensor | None = None
    h0_objects: Tensor | None = None
    step: int = 0
    moments: dict = field(default_factory=dict)

    def named(self):
        """Stable (name, tensor, decay) iteration over all trainables."""
        out = [
            ("proj_user", self.proj_user, True),
            ("proj_obj", self.proj_obj, True),
        ]
        for role_name, enc in (("trustor", self.trustor), ("trustee", self.trustee)):
            if enc is None:
                continue
            for li, lp in enumerate(enc.layers):
                base = f"{role_name}/layer{li}"
                out += [
                    (f"{base}/w_user", lp.w_user, True),
                    (f"{base}/w_obj", lp.w_obj, True),
                    (f"{base}/eta_user", lp.eta_user, True),
                    (f"{base}/eta_obj", lp.eta_obj, True),
                    (f"{base}/gamma", lp.gamma, True),
                ]
        out.append(("gate/raw", self.gate.raw_gate, False))
        out.append(("predictor/weight", self.predictor.weight, True))
        out.append(("predictor/bias", self.predictor.bias, False))
        if self.h0_users is not None and self.h0_users.requires_grad:
            out.append(("h0/users", self.h0_users, True))
        if self.h0_objects is not None and self.h0_objects.requires_grad:
            out.append(("h0/objects", self.h0_objects, True))
        return out

    def assert_finite(self) -> None:
        for name, tensor, _ in self.named():
            if not np.all(np.isfinite(tensor.value)):
                raise NumericalError(f"parameter {name} contains non-finite values")

    def set_initial_tables(self, h0_users, h0_objects, trainable: bool) -> None:
        """Attach initial embedding tables; trainable tables join the tape."""
        hu = np.asarray(h0_users.vectors if hasattr(h0_users, "vectors") else h0_users)
        ho = np.asarray(h0_objects.vectors if hasattr(h0_objects, "vectors") else h0_objects)
        self.h0_users = Tensor(hu.copy(), requires_grad=trainable, name="h0/users")
        self.h0_objects = Tensor(ho.copy(), requires_grad=trainable, name="h0/objects")


def _init_layer(rng, dim: int) -> LayerParams:
    return LayerParams(
        w_user=Tensor(_glorot(rng, dim, dim, (dim, dim))),
        w_obj=Tensor(_glorot(rng, dim, dim, (dim, dim))),
        eta_user=Tensor(_glorot(rng, 2 * dim, 1, (2 * dim,))),
        eta_obj=Tensor(_glorot(rng, 2 * dim, 1, (2 * dim,))),
        gamma=Tensor(_glorot(rng, 2 * dim, 1, (2 * dim,))),
    )


def init_params(
    seed: int,
    user_dim: int,
    object_dim: int,
    latent_dim: int,
    fusion: str = "gate",
    trustor_enabled: bool = True,
    trustee_enabled: bool = True,
    num_layers: int = 2,
) -> ModelParams:
    """Fresh parameters; encoders for both roles are independent.

    With concat fusion both halves of the final embedding come from one
    role each, so the per-role encoder width is latent_dim / 2; gate
    fusion (and single-role setups) encode at the full latent width. The
    predictor always reads 2 * latent_dim pair features.
    """
    if fusion not in ("gate", "concat"):
        raise DataError(f"unknown fusion mode {fusion!r}")
    if not (trustor_enabled or trustee_enabled):
        raise DataError("at least one role must be enabled")
    both = trustor_enabled and trustee_enabled
    if fusion == "concat" and both:
        if latent_dim % 2:
            raise DataError("concat fusion needs an even latent_dim")
        role_dim = latent_dim // 2
    else:
        role_dim = latent_dim
    rng = np.random.default_rng(seed)
    proj_user = Tensor(_glorot(rng, user_dim, role_dim, (user_dim, role_dim)))
    proj_obj = Tensor(_glorot(rng, object_dim, role_dim, (object_dim, role_dim)))
    # the trustor's layers draw from rng before the trustee's
    trustor, trustee = (
        RoleEncoder(role, [_init_layer(rng, role_dim) for _ in range(num_layers)]) if enabled else None
        for role, enabled in ((Role.TRUSTOR, trustor_enabled), (Role.TRUSTEE, trustee_enabled))
    )
    # alternating-sign start biases alternate dimensions toward opposite
    # roles; a symmetric 0.5 start mixes the roles' gradients early on
    gate = GateParams(Tensor(np.where(np.arange(role_dim) % 2 == 0, 1.0, -1.0)))
    weight = Tensor(_glorot(rng, 2 * latent_dim, 2, (2 * latent_dim, 2)))
    predictor = PredictorParams(weight, Tensor(np.zeros(2)))
    return ModelParams(
        latent_dim=latent_dim,
        user_dim=user_dim,
        object_dim=object_dim,
        fusion=fusion,
        role_dim=role_dim,
        proj_user=proj_user,
        proj_obj=proj_obj,
        trustor=trustor,
        trustee=trustee,
        gate=gate,
        predictor=predictor,
    )


# ---------------------------------------------------------------------------
# forward / backward


def gate_fusion(z_tor: Tensor, z_tee: Tensor, raw_gate: Tensor) -> Tensor:
    """The sigmoid gate g * z_tor + (1 - g) * z_tee, g = sigmoid(raw_gate), as one record.

    The value is the sigmoid, mul, sub, mul and add chain's, computed by the
    same numpy calls. Only the names the benchmark wraps or patches are
    called as taped ops, and none is in this chain, so every step calls a
    kernel: the sigmoid is ``ad.logistic``. The backward replays the chain's
    arithmetic: with G the output's gradient, the gate's is
    -sum(G * z_tee) + sum(G * z_tor) over the users, in that order, through
    ``ad.sigmoid_grad``; every input gets its gradient, and the tape drops a
    frozen one's. The record keeps only the sigmoid and references to the
    two role embeddings, not the two products.
    """
    s = ad.logistic(raw_gate.value)
    zor, zee = z_tor.value, z_tee.value
    out = Tensor(
        s * zor + (1.0 - s) * zee,
        requires_grad=z_tor.requires_grad or z_tee.requires_grad or raw_gate.requires_grad,
    )

    def backward(g):
        d_gate = -(g * zee).sum(axis=0)
        d_gate += (g * zor).sum(axis=0)
        return [(raw_gate, ad.sigmoid_grad(s, d_gate)), (z_tee, g * (1.0 - s)), (z_tor, g * s)]

    ad.record("gate", out, backward)
    return out


def input_projection(hu: Tensor, ho: Tensor, proj_user: Tensor, proj_obj: Tensor) -> Tensor:
    """The layer input [hu @ proj_user; ho @ proj_obj], as one record.

    Each block's product is written into its rows of one array, as
    ``ad.row_block_product`` does, so the tape holds that array and not two
    products and their concatenation. The value is the concatenated
    ``ad.matmul`` products', and the backward is their backwards on the
    output gradient's two row blocks, so every bit is the chain's.
    """
    nu = hu.value.shape[0]
    value = np.empty((nu + ho.value.shape[0], proj_user.value.shape[1]))
    np.matmul(hu.value, proj_user.value, out=value[:nu])
    np.matmul(ho.value, proj_obj.value, out=value[nu:])
    out = Tensor(value, requires_grad=any(t.requires_grad for t in (hu, ho, proj_user, proj_obj)))

    def backward(g):
        g_u, g_o = g[:nu], g[nu:]
        return [
            (hu, g_u @ proj_user.value.T if hu.requires_grad else None),
            (proj_user, hu.value.T @ g_u if proj_user.requires_grad else None),
            (ho, g_o @ proj_obj.value.T if ho.requires_grad else None),
            (proj_obj, ho.value.T @ g_o if proj_obj.requires_grad else None),
        ]

    ad.record("input_projection", out, backward)
    return out


def fused_users(views: dict, params: ModelParams, h0_users, h0_objects):
    """Tape-aware pipeline up to the fused per-user embeddings.

    Records one entry for the input projection (``input_projection``,
    both tables' products in one array), one per convolution layer and one
    for the fusion (``gate_fusion`` or ``ad.concat_cols``) when both roles
    run. Each role's last layer computes only the user rows, so its output
    is the role's user embedding as it stands; the object rows, which
    nothing downstream reads, are never formed.
    """
    hu, ho = (
        kept if given is None else ad.as_tensor(getattr(given, "vectors", given))
        for given, kept in ((h0_users, params.h0_users), (h0_objects, params.h0_objects))
    )
    if hu is None or ho is None:
        raise DataError("initial embeddings missing: pass tables or attach them to params")

    h0 = input_projection(hu, ho, params.proj_user, params.proj_obj)
    role_users = {}
    for enc in (params.trustor, params.trustee):
        if enc is None:
            continue
        view = views[enc.role]
        *inner, last = enc.layers
        h = h0
        for layer in inner:
            h = layer_forward(h, view, layer)
        role_users[enc.role] = layer_forward(h, view, last, out_rows=view.num_users)

    if len(role_users) == 2:
        z_tor = role_users[Role.TRUSTOR]
        z_tee = role_users[Role.TRUSTEE]
        if params.fusion == "concat":
            return ad.concat_cols(z_tor, z_tee)
        return gate_fusion(z_tor, z_tee, params.gate.raw_gate)
    (only,) = role_users.values()
    return only


def forward(
    graph: HeteroGraph,
    views: dict,
    h0_users,
    h0_objects,
    params: ModelParams,
    samples: tuple,
) -> tuple[float, Tape]:
    """Full pipeline loss over ``(trustor, trustee, label)`` arrays; returns the recording tape."""
    i, j, y = samples
    if len(y) == 0:
        raise DataError("forward needs a non-empty sample batch")
    with Tape() as tape:
        z = fused_users(views, params, h0_users, h0_objects)
        loss = pair_loss(z, i, j, y, params.predictor)
        tape.mark_output(loss)
    return loss.item(), tape


def backward(tape: Tape) -> dict:
    """Gradients for every recorded tensor; rejects non-finite values."""
    grads = tape.gradients()
    for tensor, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient for {tensor!r}")
    return grads


def adam_step(
    params: ModelParams,
    grads: dict,
    lr: float = 0.005,
    weight_decay: float = 5e-4,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> ModelParams:
    """In-place Adam update; L2 decay is added to decay-flagged gradients.

    The moments are updated in place, and the decayed gradient and the step
    are formed in two scratch rows that every tensor of the step reuses, in
    the same arithmetic order as ``m = beta1 * m + (1 - beta1) * g`` and so
    on. The arrays in ``grads`` are only read: one may be shared by several
    tensors. The scratch is freed on return rather than kept for the next
    step, so it does not add to the memory held through the next forward.
    """
    params.step += 1
    t = params.step
    named = params.named()
    size = max(tensor.value.size for _, tensor, _ in named)
    scratch = np.empty((2, size))
    for name, tensor, decay in named:
        value = tensor.value
        buf, step = (b[: value.size].reshape(value.shape) for b in scratch)
        g = grads.get(tensor)
        if g is None:
            g = np.zeros_like(value)
        if decay and weight_decay:
            np.multiply(value, weight_decay, out=buf)
            buf += g
            g = buf
        if name not in params.moments:
            params.moments[name] = (np.zeros_like(value), np.zeros_like(value))
        m, v = params.moments[name]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=step)
        m += step
        v *= beta2
        np.multiply(g, g, out=step)
        step *= 1.0 - beta2
        v += step
        # buf (the decayed gradient) is free again: it takes the v_hat root
        np.divide(v, 1.0 - beta2**t, out=buf)
        np.sqrt(buf, out=buf)
        buf += eps
        np.divide(m, 1.0 - beta1**t, out=step)
        step *= lr
        step /= buf
        value -= step
    return params


# ---------------------------------------------------------------------------
# gradient verification


@dataclass(frozen=True)
class PipelineFixture:
    """Small bundle sufficient to run forward(): graph, views, tables, samples."""

    graph: HeteroGraph
    views: dict
    h0_users: np.ndarray
    h0_objects: np.ndarray
    samples: tuple  # (trustor, trustee, label) arrays


@dataclass
class GradCheckReport:
    tolerance: float
    errors: dict
    passed: bool

    def __str__(self) -> str:
        lines = [f"gradient check (tolerance {self.tolerance:g}):"]
        for name, err in sorted(self.errors.items()):
            flag = "ok " if err < self.tolerance else "FAIL"
            lines.append(f"  [{flag}] {name:<28} max rel err {err:.3e}")
        lines.append("PASSED" if self.passed else "FAILED")
        return "\n".join(lines)


def grad_check(
    params: ModelParams,
    fixture: PipelineFixture,
    tolerance: float = 1e-4,
    perturbation: float = 1e-5,
) -> GradCheckReport:
    """Compare tape gradients with central differences, entry by entry."""

    def run() -> tuple[float, Tape]:
        f = fixture
        return forward(f.graph, f.views, f.h0_users, f.h0_objects, params, f.samples)

    grads = backward(run()[1])
    analytic = {name: grads.get(tensor, np.zeros_like(tensor.value)) for name, tensor, _ in params.named()}

    errors: dict[str, float] = {}
    for name, tensor, _ in params.named():
        value = tensor.value
        flat = value.reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + perturbation
            up = run()[0]
            flat[idx] = orig - perturbation
            down = run()[0]
            flat[idx] = orig
            numeric = (up - down) / (2.0 * perturbation)
            a = analytic[name].reshape(-1)[idx]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        errors[name] = worst
    passed = all(err < tolerance for err in errors.values())
    return GradCheckReport(tolerance=tolerance, errors=errors, passed=passed)


# ---------------------------------------------------------------------------
# checkpoints


def save_params(params: ModelParams, path, provenance: dict | None = None) -> None:
    """Versioned npz dump of all trainables, moments, and shape metadata.

    ``provenance`` is a JSON-serialisable record of what the parameters were
    trained on; ``load_params`` hands it back unchanged.
    """
    meta = {
        "version": CHECKPOINT_VERSION,
        "provenance": provenance,
        "latent_dim": params.latent_dim,
        "user_dim": params.user_dim,
        "object_dim": params.object_dim,
        "fusion": params.fusion,
        "trustor": params.trustor is not None,
        "trustee": params.trustee is not None,
        "num_layers": len(params.trustor.layers) if params.trustor else len(params.trustee.layers),
        "step": params.step,
        "has_h0": params.h0_users is not None,
        "h0_trainable": bool(params.h0_users is not None and params.h0_users.requires_grad),
    }
    arrays = {f"param::{name}": tensor.value for name, tensor, _ in params.named()}
    if params.h0_users is not None and not params.h0_users.requires_grad:
        arrays["frozen::h0/users"] = params.h0_users.value
        arrays["frozen::h0/objects"] = params.h0_objects.value
    for name, (m, v) in params.moments.items():
        arrays[f"moment_m::{name}"] = m
        arrays[f"moment_v::{name}"] = v
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _checked_meta(data) -> dict:
    """The checkpoint's ``__meta__`` record, once every field ``load_params`` reads has its type."""
    try:
        meta = json.loads(bytes(data["__meta__"]).decode())
    except (KeyError, ValueError) as exc:
        raise DataError(f"checkpoint has no JSON __meta__ record: {exc}") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version!r}")
    for name, low in (("latent_dim", 1), ("user_dim", 1), ("object_dim", 1), ("num_layers", 1), ("step", 0)):
        value = meta.get(name)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise DataError(f"checkpoint {name} must be an integer >= {low}, got {value!r}")
    for name in ("trustor", "trustee", "has_h0", "h0_trainable"):
        if not isinstance(meta.get(name), bool):
            raise DataError(f"checkpoint {name} must be a boolean, got {meta.get(name)!r}")
    if meta.get("fusion") not in ("gate", "concat"):
        raise DataError(f"checkpoint fusion must be 'gate' or 'concat', got {meta.get('fusion')!r}")
    return meta


def load_params(path) -> tuple[ModelParams, dict | None]:
    """Rebuild a ModelParams, and its provenance, from a checkpoint written by save_params.

    Raises ``DataError`` for a file that is not a readable npz archive with
    a JSON ``__meta__`` record, an unknown version, a metadata field of the
    wrong type, a missing or misshapen parameter, and Adam moments that
    lack their pair, are misshapen or belong to no parameter.
    """
    try:
        data = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataError(f"checkpoint {path} is not an npz archive")
    with data:
        meta = _checked_meta(data)
        params = init_params(
            0, meta["user_dim"], meta["object_dim"], meta["latent_dim"], meta["fusion"],
            meta["trustor"], meta["trustee"], meta["num_layers"],
        )
        params.step = meta["step"]
        if meta["has_h0"]:
            kind = "param" if meta["h0_trainable"] else "frozen"
            tables = [f"{kind}::h0/users", f"{kind}::h0/objects"]
            if not all(key in data for key in tables):
                raise DataError(f"checkpoint missing initial tables {tables}")
            params.set_initial_tables(*(data[key] for key in tables), trainable=meta["h0_trainable"])
        shapes = {}
        for name, tensor, _ in params.named():
            key = f"param::{name}"
            if key not in data:
                raise DataError(f"checkpoint missing parameter {name}")
            stored = data[key]
            if stored.shape != tensor.value.shape:
                raise DataError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{stored.shape} vs {tensor.value.shape}"
                )
            tensor.value = stored.astype(np.float64)
            shapes[name] = stored.shape
        moment_keys = [k for k in data.files if k.startswith(("moment_m::", "moment_v::"))]
        for name in dict.fromkeys(k.partition("::")[2] for k in moment_keys):
            if name not in shapes:
                raise DataError(f"checkpoint has Adam moments for unknown parameter {name}")
            keys = (f"moment_m::{name}", f"moment_v::{name}")
            if not all(k in moment_keys for k in keys):
                raise DataError(f"checkpoint has only one of the two Adam moments for {name}")
            m, v = (data[k] for k in keys)
            if not m.shape == v.shape == shapes[name]:
                raise DataError(
                    f"checkpoint moment shape mismatch for {name}: "
                    f"{m.shape} and {v.shape} vs {shapes[name]}"
                )
            params.moments[name] = (m, v)
    return params, meta.get("provenance")
