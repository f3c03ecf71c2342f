"""Training machinery: parameter container, full-pipeline forward and
backward passes on the autodiff tape, Adam with L2 weight decay, a
central-difference gradient checker, and checkpoints. A checkpoint stores
the trained arrays and the caller's provenance, not the model's shape or
Adam's state: loading fills the model that the caller builds from that
provenance, for scoring, not for resuming training.

Everything runs in float64 so finite-difference verification at
``PERTURBATION`` (1e-5) is meaningful.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .conv import LayerParams, layer_forward
from .errors import DataError, NumericalError
from .graph import HeteroGraph, Role
from .predict import PredictorParams, pair_loss

CHECKPOINT_VERSION = 4
# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# grad_check's central-difference step
PERTURBATION = 1e-5
# what reading a damaged npz archive or one of its members raises
_READ_ERRORS = (OSError, ValueError, EOFError, zipfile.BadZipFile)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


@dataclass(frozen=True)
class WeightBuffer:
    """Every trainable tensor in one float64 buffer, and its Adam moments in two more.

    The trainable tensors are those ``ModelParams.named()`` yields: the
    model weights and, when they train, the initial tables. The
    decay-flagged ones come first, so decay applies to
    ``values[:num_decay]``. Each tensor's ``Tensor.value`` is a view into
    ``values`` for life: writes go into the views, never rebind them. Its
    moments sit at the same offsets of ``m`` and ``v``. ``layout`` holds
    (name, tensor, value view) in buffer order, and each tensor carries its
    name as ``Tensor.name``, so an error about a tensor names it.
    """

    values: np.ndarray
    m: np.ndarray
    v: np.ndarray
    num_decay: int
    layout: tuple

    @classmethod
    def pack(cls, weights) -> "WeightBuffer":
        """Copy ``weights``, (name, tensor, decay) in buffer order, into fresh buffers.

        Each tensor's value is rebound to its view and its name set; the
        moments start at zero.
        """
        size = sum(tensor.value.size for _, tensor, _ in weights)
        values, m, v = np.empty(size), np.zeros(size), np.zeros(size)
        layout, start = [], 0
        for name, tensor, _ in weights:
            end = start + tensor.value.size
            view = values[start:end].reshape(tensor.value.shape)
            view[...] = tensor.value
            tensor.value, tensor.name = view, name
            layout.append((name, tensor, view))
            start = end
        num_decay = sum(tensor.value.size for _, tensor, decay in weights if decay)
        return cls(values, m, v, num_decay, tuple(layout))


@dataclass
class ModelParams:
    """All trainable tensors plus Adam state; ``step`` counts this run's Adam steps.

    ``trustor`` and ``trustee`` hold that role's layers, or None when it is
    off; ``gate`` is the raw (pre-sigmoid) fusion gate. Weight decay applies
    to weight matrices, attention vectors, and trainable embedding tables;
    never to the fusion gate or biases.

    Every trainable tensor and its Adam moments live in one
    ``WeightBuffer``, ``buffer``, packed at construction and when
    ``set_initial_tables`` attaches tables. Frozen tables stay outside it.
    """

    fusion: str
    proj_user: Tensor
    proj_obj: Tensor
    trustor: list[LayerParams] | None
    trustee: list[LayerParams] | None
    gate: Tensor
    predictor: PredictorParams
    h0_users: Tensor | None = None
    h0_objects: Tensor | None = None
    step: int = 0
    buffer: WeightBuffer = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weights = sorted(self.named(), key=lambda w: not w[2])  # stable: decay-flagged first
        self.buffer = WeightBuffer.pack(weights)

    def named(self):
        """Stable (name, tensor, decay) iteration over all trainables."""
        out = [
            ("proj_user", self.proj_user, True),
            ("proj_obj", self.proj_obj, True),
        ]
        for role_name, layers in (("trustor", self.trustor), ("trustee", self.trustee)):
            for li, lp in enumerate(layers or ()):
                base = f"{role_name}/layer{li}"
                out += [
                    (f"{base}/w_user", lp.w_user, True),
                    (f"{base}/w_obj", lp.w_obj, True),
                    (f"{base}/eta_user", lp.eta_user, True),
                    (f"{base}/eta_obj", lp.eta_obj, True),
                    (f"{base}/gamma", lp.gamma, True),
                ]
        out.append(("gate/raw", self.gate, False))
        out.append(("predictor/weight", self.predictor.weight, True))
        out.append(("predictor/bias", self.predictor.bias, False))
        for name, table in (("h0/users", self.h0_users), ("h0/objects", self.h0_objects)):
            if table is not None and table.requires_grad:
                out.append((name, table, True))
        return out

    def assert_finite(self) -> None:
        """Raise ``NumericalError`` naming a parameter with a non-finite value.

        One check covers the whole buffer; the parameters are searched one
        by one only when it fails.
        """
        if np.isfinite(self.buffer.values).all():
            return
        for name, tensor, _ in self.named():
            if not np.all(np.isfinite(tensor.value)):
                raise NumericalError(f"parameter {name} contains non-finite values")

    def set_initial_tables(self, h0_users, h0_objects, trainable: bool) -> None:
        """Attach copies of the initial (rows, dim) arrays and repack the buffer.

        Trainable tables join the tape and the pack copies them into the
        buffer; frozen ones are copied here and stay outside it. The repack
        starts every Adam moment at zero, so tables are attached before
        training.
        """
        copy = np.asarray if trainable else np.array
        users, objects = copy(h0_users), copy(h0_objects)
        self.h0_users = Tensor(users, requires_grad=trainable)
        self.h0_objects = Tensor(objects, requires_grad=trainable)
        self.__post_init__()


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

    ``latent_dim`` is the width of the fused embedding. With concat fusion
    of both roles each role encodes at latent_dim / 2, so the fusion modes
    compare at an equal budget; otherwise at the full width. The predictor
    reads 2 * latent_dim pair features. Callers pass a validated config's
    values (``experiment.init_model``) or constants.
    """
    both = trustor_enabled and trustee_enabled
    role_dim = latent_dim // 2 if fusion == "concat" and both else latent_dim
    rng = np.random.default_rng(seed)
    proj_user = Tensor(_glorot(rng, user_dim, role_dim, (user_dim, role_dim)))
    proj_obj = Tensor(_glorot(rng, object_dim, role_dim, (object_dim, role_dim)))
    # the trustor's layers draw from rng before the trustee's
    trustor, trustee = (
        [_init_layer(rng, role_dim) for _ in range(num_layers)] if enabled else None
        for enabled in (trustor_enabled, trustee_enabled)
    )
    # alternating-sign start biases alternate dimensions toward opposite
    # roles; a symmetric 0.5 start mixes the roles' gradients early on
    gate = Tensor(np.where(np.arange(role_dim) % 2 == 0, 1.0, -1.0))
    weight = Tensor(_glorot(rng, 2 * latent_dim, 2, (2 * latent_dim, 2)))
    predictor = PredictorParams(weight, Tensor(np.zeros(2)))
    return ModelParams(
        fusion=fusion,
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

    ``ad.row_block_product`` writes each block's product into its rows of
    one array, so the tape holds that array and not two products and their
    concatenation. The value is the two products' concatenation, and the
    backward is the two products' gradients on the output gradient's two
    row blocks, so every bit is the chain's. Unlike ``ad.row_block_grads``,
    it forms no gradient for a frozen table.
    """
    nu = hu.value.shape[0]
    value = ad.row_block_product(hu.value, ho.value, proj_user.value, proj_obj.value)
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

    ``h0_users`` and ``h0_objects`` are (rows, dim) arrays or tensors, or
    None for the tables attached to ``params``.

    Records one entry for the input projection (``input_projection``,
    both tables' products in one array), one per convolution layer and one
    for the fusion (``gate_fusion`` or ``ad.concat_cols``) when both roles
    run. Each role's last layer computes only the user rows, so its output
    is the role's user embedding as it stands; the object rows, which
    nothing downstream reads, are never formed.
    """
    hu, ho = (
        kept if given is None else ad.as_tensor(given)
        for given, kept in ((h0_users, params.h0_users), (h0_objects, params.h0_objects))
    )
    if hu is None or ho is None:
        raise DataError("initial embeddings missing: pass tables or attach them to params")

    h0 = input_projection(hu, ho, params.proj_user, params.proj_obj)
    role_users = []
    for role, layers in ((Role.TRUSTOR, params.trustor), (Role.TRUSTEE, params.trustee)):
        if layers is None:
            continue
        view = views[role]
        *inner, last = layers
        h = h0
        for layer in inner:
            h = layer_forward(h, view, layer)
        role_users.append(layer_forward(h, view, last, users_only=True))

    if len(role_users) == 2:
        if params.fusion == "concat":
            return ad.concat_cols(*role_users)
        return gate_fusion(*role_users, params.gate)
    (only,) = role_users
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
    with Tape() as tape:
        z = fused_users(views, params, h0_users, h0_objects)
        loss = pair_loss(z, i, j, y, params.predictor)
        tape.mark_output(loss)
    return loss.item(), tape


def backward(tape: Tape) -> dict:
    """Gradients for every recorded tensor; rejects non-finite values.

    A non-finite element makes its tensor's sum, and so the total of all
    the sums, non-finite, so one check on that total covers every gradient.
    The tensors are searched one by one only when it fails, which a finite
    total that overflows can also cause.
    """
    grads = tape.gradients()
    with np.errstate(over="ignore", invalid="ignore"):
        total = sum(np.add.reduce(g, axis=None) for g in grads.values())
    if np.isfinite(total):
        return grads
    for tensor, g in grads.items():
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for {tensor!r}")
    return grads


def adam_step(params: ModelParams, grads: dict, lr: float, weight_decay: float) -> ModelParams:
    """In-place Adam update; L2 decay is added to decay-flagged gradients.

    The moments decay at ``BETA1`` and ``BETA2`` and the step divides by
    the root of the second plus ``EPS``.

    The update runs once, over the whole buffer (``ModelParams.buffer``)
    and its moments, so the number of array operations does not follow the
    number of tensors. Each element goes through the operations of
    ``m = BETA1 * m + (1 - BETA1) * g`` and so on, in the same order as
    for a tensor updated on its own, so every bit is the same.

    The decayed gradient and the step are formed in two scratch rows as
    long as the buffer. The gradients are gathered into the first row with
    one ``concatenate`` (zeros for a tensor without one), and the decay
    term is added onto them. The moments are updated in place. The arrays
    in ``grads`` are only read: one may be shared by several tensors. The
    scratch is freed on return rather than kept for the next step, so it
    does not add to the memory held through the next forward.

    An overflow anywhere in the update raises ``NumericalError`` naming the
    tensor. Left alone, a gradient entry above about 1.3e154 would make its
    ``v`` infinite and freeze the entry with every value still finite.
    """
    params.step += 1
    t = params.step
    weights = params.buffer
    values, m, v = weights.values, weights.m, weights.v
    g, step = np.empty((2, values.size))
    np.concatenate([np.ravel(grads[tensor]) if tensor in grads else np.zeros(view.size)
                    for _, tensor, view in weights.layout], out=g)
    try:
        with np.errstate(over="raise"):
            if weight_decay:
                decayed = slice(0, weights.num_decay)
                np.multiply(values[decayed], weight_decay, out=step[decayed])
                g[decayed] += step[decayed]
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=step)
            m += step
            v *= BETA2
            np.multiply(g, g, out=step)
            step *= 1.0 - BETA2
            v += step
            # g (the decayed gradient) is free again: it takes the v_hat root
            np.divide(v, 1.0 - BETA2**t, out=g)
            np.sqrt(g, out=g)
            g += EPS
            np.divide(m, 1.0 - BETA1**t, out=step)
            step *= lr
            step /= g
            values -= step
    except FloatingPointError:
        raise NumericalError(f"Adam update of {_overflowed(weights, g, step)} overflows float64") from None
    return params


def _overflowed(weights: WeightBuffer, g: np.ndarray, step: np.ndarray) -> str:
    """Name of the first tensor, in buffer order, with an entry the failed update made infinite.

    An operation that overflows still writes its result, and every one before
    it left finite values. Only ``step``'s rows past the decayed ones can hold
    unwritten scratch, and only when the decay term, in earlier rows, overflowed.
    """
    arrays = (weights.values, weights.m, weights.v, g, step)
    first = np.argmax(~np.isfinite(np.stack(arrays)).all(axis=0))
    ends = np.cumsum([view.size for _, _, view in weights.layout])
    return weights.layout[np.searchsorted(ends, first, side="right")][0]


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


def grad_check(params: ModelParams, fixture: PipelineFixture, tolerance: float) -> GradCheckReport:
    """Compare tape gradients with central differences of step ``PERTURBATION``, entry by entry."""

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
            flat[idx] = orig + PERTURBATION
            up = run()[0]
            flat[idx] = orig - PERTURBATION
            down = run()[0]
            flat[idx] = orig
            numeric = (up - down) / (2.0 * PERTURBATION)
            a = analytic[name].reshape(-1)[idx]
            denom = max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, abs(a - numeric) / denom)
        errors[name] = worst
    passed = all(err < tolerance for err in errors.values())
    return GradCheckReport(tolerance=tolerance, errors=errors, passed=passed)


# ---------------------------------------------------------------------------
# checkpoints


def save_params(params: ModelParams, path, provenance: dict | None = None) -> None:
    """Versioned npz dump of all trainables and initial tables, for scoring.

    ``__meta__`` holds only the version and ``provenance``, a
    JSON-serialisable record of what the parameters were trained on, which
    ``load_params`` hands to its ``build`` and back unchanged. Initial
    tables are ``param::h0/*`` when trainable, else ``frozen::h0/*``.
    Adam's moments and step are not stored: nothing resumes training.
    """
    meta = {"version": CHECKPOINT_VERSION, "provenance": provenance}
    arrays = {f"param::{name}": tensor.value for name, tensor, _ in params.named()}
    if params.h0_users is not None and not params.h0_users.requires_grad:
        arrays["frozen::h0/users"] = params.h0_users.value
        arrays["frozen::h0/objects"] = params.h0_objects.value
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def _stored_array(data, key: str) -> np.ndarray:
    """Checkpoint array ``key`` as float64; a ``DataError`` unless it is a finite integer or float array."""
    try:
        array = data[key]
    except _READ_ERRORS as exc:  # a damaged member, or an object array, which would need unpickling
        raise DataError(f"checkpoint array {key} cannot be read: {exc}") from exc
    if array.dtype.kind not in "iuf":
        raise DataError(f"checkpoint array {key} has dtype {array.dtype}, not integer or float")
    array = array.astype(np.float64, copy=False)
    if not np.isfinite(array).all():
        raise DataError(f"checkpoint array {key} has non-finite entries")
    return array


def load_params(path, build) -> tuple[ModelParams, dict | None]:
    """Fill ``build(provenance)``, fresh parameters without initial tables, from a checkpoint.

    Returns them and the provenance ``save_params`` stored. The initial
    tables are attached, trainable or frozen, as the keys present say, and
    each is read once; every other parameter is copied into its view in
    the buffer. Adam starts afresh: step 0, zero moments.
    Raises ``DataError`` for a file that is not a readable npz archive with
    a JSON ``__meta__`` record, a version other than ``CHECKPOINT_VERSION``,
    one initial table without the other, a missing or misshapen parameter,
    any array the model does not read (an unknown key such as an earlier
    version's Adam moment, a parameter the model lacks, or frozen tables
    next to trainable ones), and an array that is not integer or float or
    has a non-finite entry. Each names the key; ``build`` may raise it too.
    """
    try:
        data = np.load(path)
    except _READ_ERRORS as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DataError(f"checkpoint {path} is not an npz archive")
    with data:
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
        except (KeyError, *_READ_ERRORS) as exc:
            raise DataError(f"checkpoint has no JSON __meta__ record: {exc}") from exc
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != CHECKPOINT_VERSION:
            raise DataError(f"unsupported checkpoint version {version!r}")
        params = build(meta.get("provenance"))
        kind = "param" if "param::h0/users" in data else "frozen"
        tables = [f"{kind}::h0/users", f"{kind}::h0/objects"]
        if any(key in data for key in tables):
            if not all(key in data for key in tables):
                raise DataError(f"checkpoint missing initial tables {tables}")
            stored = [_stored_array(data, key) for key in tables]
            params.set_initial_tables(*stored, trainable=kind == "param")
        known = {"__meta__", *tables, *(f"param::{name}" for name, _, _ in params.named())}
        unknown = [key for key in data.files if key not in known]
        if unknown:
            raise DataError(f"checkpoint has arrays {unknown} that the model does not read")
        for name, tensor, _ in params.named():
            key = f"param::{name}"
            if key in tables:  # attached above
                continue
            if key not in data:
                raise DataError(f"checkpoint missing parameter {name}")
            stored = _stored_array(data, key)
            if stored.shape != tensor.value.shape:
                raise DataError(
                    f"checkpoint shape mismatch for {name}: "
                    f"{stored.shape} vs {tensor.value.shape}"
                )
            np.copyto(tensor.value, stored)
    return params, meta.get("provenance")
