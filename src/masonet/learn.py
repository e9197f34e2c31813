"""Training machinery: loss, exact gradients, Adam, orthogonality tools.

Gradients are computed analytically, by each layer kind's backward in
`layers`, in three selection regimes:

* hard  -- the selection found at the forward pass is frozen and the
           gradient of the resulting affine map is returned (exact almost
           everywhere, one-sided on region boundaries, which `backward`
           warns about and `train`'s steps do not scan for),
* soft  -- selections are per-unit softmaxes of the affine scores and the
           gradient flows through them,
* beta  -- like soft but the scores are scaled by eta = beta/(1-beta);
           the gradient with respect to beta itself is also produced so
           beta can be learned through a logistic reparameterization.

Orthogonality comes in three flavors: a penalty on the final classifier
rows (templates), a penalty on cross-unit filter slopes, and a hard
Gram-Schmidt projection-subtraction pass.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .maso import HardSelection, MasoParams, forward_hard
from .ndcore import (
    DivergenceError,
    DomainError,
    DegeneracyError,
    PreconditionError,
    ShapeError,
    Tensor,
    as_tensor,
)

__all__ = [
    "Gradients",
    "TrainConfig",
    "AdamState",
    "cross_entropy",
    "forward_loss",
    "backward",
    "ortho_penalty_templates",
    "ortho_penalty_filters",
    "gram_schmidt",
    "adam_step",
    "train",
    "joint_map_factorial",
    "accuracy",
]

_BOUNDARY_GAP = 1e-7
_MODES = ("hard", "soft", "beta")
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator guard


@dataclass
class Gradients:
    """Parameter gradients keyed '<layer>.<field>' (plus '<layer>.beta')."""

    values: dict

    def __getitem__(self, key: str) -> Tensor:
        return self.values[key]

    def keys(self):
        return self.values.keys()


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 128
    gamma: float = 0.0          # template-orthogonality weight
    lam: float = 0.0            # filter-orthogonality weight
    beta_mode: str = "hard"     # hard | soft | beta
    beta: float = 0.5           # shared beta value when beta_mode == "beta"
    beta_learnable: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise DomainError("learning rate must be positive")
        if self.epochs < 1:
            raise DomainError("need at least one epoch")
        if self.batch_size < 1 or self.gamma < 0 or self.lam < 0:
            raise DomainError("batch size must be at least 1, gamma and lam nonnegative")
        if self.beta_mode not in _MODES:
            raise DomainError(f"unknown beta_mode {self.beta_mode!r}")
        if self.beta_mode == "beta" and not 0.0 < self.beta < 1.0:
            raise DomainError("beta must lie strictly inside (0, 1)")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, label: int) -> float:
    """-logits[label] + logsumexp(logits), stabilized by the max shift."""
    logits = as_tensor(logits).reshape(-1)
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise DomainError(f"label {label} out of range for {logits.shape[0]} classes")
    return _cross_entropy_batch(logits[None, :], [label])[0]


def _cross_entropy_batch(logits: Tensor, labels: np.ndarray) -> tuple[float, Tensor]:
    """Mean loss over the batch and its gradient w.r.t. the logits."""
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    p = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    losses = np.log(e.sum(axis=1)) + m[:, 0] - logits[rows, labels]
    g = p.copy()
    g[rows, labels] -= 1.0
    return float(losses.mean()), g / n


# ---------------------------------------------------------------------------
# forward with caches
# ---------------------------------------------------------------------------

def _beta_for_layers(net: L.Network, mode: str, beta) -> dict:
    """Beta of each selector layer, keyed by layer index, for a regime name.

    The one place a regime becomes betas: {} for hard (every layer then
    selects hard), 1/2 for soft, and for beta the given value or
    {layer index: value} dict.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown selection mode {mode!r}; expected one of {_MODES}")
    if mode == "hard":
        return {}
    if mode == "beta" and beta is None:
        raise DomainError("beta mode needs a beta value")
    out = {}
    for i, layer in enumerate(net.layers):
        if layer.selector:
            b = 0.5 if mode == "soft" else float(beta[i] if isinstance(beta, dict) else beta)
            if not 0.0 < b < 1.0:
                raise DomainError(f"layer {i}: beta must lie strictly inside (0, 1)")
            out[i] = b
    return out


def _forward_train(net: L.Network, X: Tensor, betas: dict, bn_batch_stats: bool):
    Z = X
    caches = []
    for i, layer in enumerate(net.layers):
        Z, cache = layer.forward(Z, betas.get(i), bn_batch_stats)
        caches.append(cache)
    return Z, caches


def forward_loss(
    net: L.Network,
    X: Tensor,
    labels,
    mode: str = "hard",
    beta=None,
    bn_batch_stats: bool = True,
) -> float:
    """Mean cross-entropy of a batch under the given selection regime.

    This is exactly the function whose gradients `backward` returns, which
    makes it the reference for finite-difference checks.  Batch-norm uses
    batch statistics here (training view) unless bn_batch_stats is off;
    a hard-mode forward without them is the inference forward that
    `network_forward` runs.
    """
    X, labels = _as_batch(net, X, labels)
    betas = _beta_for_layers(net, mode, beta)
    logits, _ = _forward_train(net, X, betas, bn_batch_stats)
    loss, _ = _cross_entropy_batch(logits, labels)
    return loss


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def _as_batch(net: L.Network, X, labels):
    X = as_tensor(X)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != net.dims[0]:
        raise ShapeError(f"batch shape {X.shape} does not match input dim {net.dims[0]}")
    if X.shape[0] == 0:
        raise ShapeError("empty batch: need at least one input row")
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if labels.shape != (X.shape[0],):
        raise ShapeError("one label per input row required")
    if labels.min() < 0 or labels.max() >= net.class_count:
        raise DomainError("label out of range")
    return X, labels


def backward(
    net: L.Network,
    x: Tensor,
    label,
    mode: str = "hard",
    beta=None,
    bn_batch_stats: bool = True,
) -> tuple[float, Gradients]:
    """Loss and analytic gradients of `forward_loss` at (x, label).

    Accepts a single input (1-D x, int label) or a batch.  In hard mode
    inputs close to a region boundary trigger a resample warning; the
    returned gradient is the one-sided derivative of the selected region.
    Gradient keys follow '<layer_index>.<field>'; in beta mode each
    selector layer additionally gets '<layer_index>.beta'.
    """
    X, labels = _as_batch(net, x, label)
    betas = _beta_for_layers(net, mode, beta)
    logits, caches = _forward_train(net, X, betas, bn_batch_stats)
    if mode == "hard":
        for i, (layer, cache) in enumerate(zip(net.layers, caches)):
            if layer.near_boundary(cache, _BOUNDARY_GAP):
                warnings.warn(
                    f"layer {i}: input within {_BOUNDARY_GAP} of a region boundary; "
                    "the hard-mode gradient is one-sided; consider resampling",
                    RuntimeWarning,
                )
    loss, values = _backprop(net, caches, logits, labels, mode == "beta")
    return loss, Gradients(values)


def _backprop(net: L.Network, caches, logits: Tensor, labels: np.ndarray, with_beta: bool):
    """Mean loss and the gradients keyed '<layer>.<field>', from the caches
    of one `_forward_train`; with_beta adds each selector's '<layer>.beta'."""
    loss, G = _cross_entropy_batch(logits, labels)
    values: dict = {}
    for i in range(len(net.layers) - 1, -1, -1):
        G, grads, dbeta = net.layers[i].backward(caches[i], G)
        for name, g in grads.items():
            values[f"{i}.{name}"] = g
        if with_beta and dbeta is not None:
            values[f"{i}.beta"] = np.asarray(dbeta)
    return loss, values


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------

def ortho_penalty_templates(W_last: Tensor, gamma: float) -> tuple[float, Tensor]:
    """gamma * sum over ordered class pairs c1 != c2 of <W_c1, W_c2>^2.

    Returns the penalty and its gradient with respect to W_last.
    """
    W = as_tensor(W_last)
    if W.ndim != 2:
        raise ShapeError(f"expected a 2-D classifier matrix, got shape {W.shape}")
    Gm = W @ W.T
    np.fill_diagonal(Gm, 0.0)
    penalty = gamma * float(np.sum(Gm * Gm))
    grad = gamma * 4.0 * (Gm @ W)
    return penalty, grad


def ortho_penalty_filters(p, lam: float) -> tuple[float, Tensor]:
    """lam * cross-unit slope inner-product energy, same-unit pairs excluded.

    Accepts MasoParams (K x R x D slopes) or a plain 2-D weight matrix
    (rows = units, R = 1).  The gradient matches the input's slope shape.
    """
    if isinstance(p, MasoParams):
        A = p.A
    else:
        A = as_tensor(p)
        if A.ndim == 2:
            A = A[:, None, :]
        if A.ndim != 3:
            raise ShapeError(f"expected K x R x D slopes, got shape {A.shape}")
    F, Gm = _cross_unit_gram(A)
    penalty = lam * float(np.sum(Gm * Gm))
    grad = (lam * 4.0 * (Gm @ F)).reshape(A.shape)
    if not isinstance(p, MasoParams) and as_tensor(p).ndim == 2:
        grad = grad[:, 0, :]
    return penalty, grad


def _cross_unit_gram(A: Tensor) -> tuple[Tensor, Tensor]:
    """(F, G): the K x R x D slopes as K*R rows and their Gram matrix with
    the pairs of rows of one unit set to zero."""
    K, R, D = A.shape
    F = A.reshape(K * R, D)
    unit = np.repeat(np.arange(K), R)
    return F, np.where(unit[:, None] != unit[None, :], F @ F.T, 0.0)


def gram_schmidt(M: Tensor) -> Tensor:
    """Orthogonalize rows by sequential projection subtraction.

    Row k becomes w_k - sum_{j<k} (<q_j, w_k>/<q_j, q_j>) q_j against the
    already-processed rows q_j.  Rows are NOT renormalized, so
    already-orthogonal inputs pass through unchanged.
    """
    M = as_tensor(M)
    if M.ndim != 2:
        raise ShapeError(f"expected a matrix of rows, got shape {M.shape}")
    Q = M.copy()
    for k in range(Q.shape[0]):
        for j in range(k):
            Q[k] -= (Q[j] @ Q[k]) / (Q[j] @ Q[j]) * Q[j]
        if np.linalg.norm(Q[k]) <= 1e-10:
            raise DegeneracyError(f"row {k} is numerically dependent on earlier rows")
    return Q


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig):
    """One bias-corrected Adam update; arrays are updated in place.

    Returns (params, state) so callers can thread the pair functionally.
    """
    state.t += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    corr1 = 1.0 - b1**state.t
    corr2 = 1.0 - b2**state.t
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} ({key})")
        if key not in state.m:
            state.m[key] = np.zeros_like(p)
            state.v[key] = np.zeros_like(p)
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        mhat = state.m[key] / corr1
        vhat = state.v[key] / corr2
        p -= config.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)
    return params, state


def accuracy(net: L.Network, X: Tensor, y: np.ndarray) -> float:
    logits, _ = L.network_forward_batch(net, X)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def _filter_penalty(params: dict, keys, lam: float):
    """Filter-orthogonality penalty summed over the weights under keys, and
    each weight's gradient; a conv contributes one row per output channel."""
    total, grads = 0.0, {}
    for key in keys:
        W = params[key]
        pen, g = ortho_penalty_filters(W.reshape(W.shape[0], -1), lam)
        total += pen
        grads[key] = g.reshape(W.shape)
    return total, grads


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def train(net: L.Network, dataset, config: TrainConfig):
    """Mini-batch Adam on cross-entropy plus the two orthogonality penalties.

    dataset is (X, y).  Returns (trained network, history) where history
    holds one dict per epoch with keys epoch, loss, accuracy,
    template_penalty, filter_penalty (and betas when beta is learnable).
    Steps run the configured regime with batch statistics.  Each epoch
    ends with one inference forward over the dataset that first sets each
    batch norm's mean and var to the biased statistics of its input; its
    loss and accuracy are the history's (`forward_loss` with bn_batch_stats
    off, and `accuracy`).  No warning is filtered.  The input network is
    left untouched; batch order is drawn from the config seed.
    """
    X, y = _as_batch(net, *dataset)
    net = copy.deepcopy(net)
    rng = np.random.default_rng(config.seed)
    params = {f"{i}.{k}": a for i, layer in enumerate(net.layers) for k, a in layer.params().items()}
    beta_logits = {}  # learnable betas: selector layer -> logit, beta = sigmoid(logit)
    if config.beta_mode == "beta" and config.beta_learnable:
        for i, layer in enumerate(net.layers):
            if layer.selector:
                beta_logits[i] = np.array(np.log(config.beta / (1.0 - config.beta)))
                params[f"{i}.beta_raw"] = beta_logits[i]
    # the last dense layer's rows are the class templates; earlier weights get lam
    weights = [f"{i}.W" if isinstance(layer, L.Dense) else f"{i}.filters"
               for i, layer in enumerate(net.layers) if isinstance(layer, (L.Dense, L.Conv))]
    head = next((key for key in reversed(weights) if key.endswith(".W")), None)
    penalized = [key for key in weights if key != head]

    state = AdamState()
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            idx = order[start : start + config.batch_size]
            beta = {i: _sigmoid(t) for i, t in beta_logits.items()} or config.beta
            betas = _beta_for_layers(net, config.beta_mode, beta)
            logits, caches = _forward_train(net, X[idx], betas, True)
            loss, grads = _backprop(net, caches, logits, y[idx], bool(beta_logits))
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            if config.gamma > 0 and head is not None:
                grads[head] = grads[head] + ortho_penalty_templates(params[head], config.gamma)[1]
            if config.lam > 0:
                _, gpens = _filter_penalty(params, penalized, config.lam)
                for key, gpen in gpens.items():
                    grads[key] = grads[key] + gpen
            for i in beta_logits:
                b = betas[i]
                grads[f"{i}.beta_raw"] = np.asarray(float(grads[f"{i}.beta"]) * b * (1.0 - b))
            adam_step(params, grads, state, config)

        Z = X  # the inference forward, each batch norm recalibrated on its full-data input
        for layer in net.layers:
            if isinstance(layer, L.BatchNorm):
                layer.mean, layer.var = Z.mean(axis=0), Z.var(axis=0)
            Z = layer.forward(Z)[0]
        entry = {
            "epoch": epoch,
            "loss": _cross_entropy_batch(Z, y)[0],
            "accuracy": float(np.mean(np.argmax(Z, axis=1) == y)),
            "template_penalty": 0.0 if head is None else ortho_penalty_templates(params[head], config.gamma)[0],
            "filter_penalty": _filter_penalty(params, penalized, config.lam)[0],
        }
        if beta_logits:
            entry["betas"] = tuple(float(_sigmoid(t)) for t in beta_logits.values())
        history.append(entry)
    return net, history


# ---------------------------------------------------------------------------
# factorial joint MAP
# ---------------------------------------------------------------------------

def joint_map_factorial(p: MasoParams, z: Tensor) -> HardSelection:
    """Joint argmax over all R^K region configurations, computed unit by unit.

    Valid when slopes of different units are mutually orthogonal: the joint
    score <z, sum_k A[k, r_k, :]> + sum_k B[k, r_k] then separates across
    units, so the per-unit hard codes solve the joint problem in linear
    time instead of R^K.
    """
    worst = float(np.max(np.abs(_cross_unit_gram(p.A)[1])))
    if worst > 1e-9:
        raise PreconditionError(
            f"cross-unit slopes are not orthogonal (max inner product {worst:.3e})"
        )
    _, sel = forward_hard(p, z)
    return sel
