"""Training machinery: loss, exact gradients, Adam, orthogonality tools.

Two functions reach the loss: `evaluate` gives the inference loss and
accuracy (one hard forward, batch norm on its stored statistics), and
`gradients` the training-view loss and its exact gradients (one forward
in any regime, batch norm on batch statistics).

Gradients are computed analytically, by each layer kind's backward in
`layers`, in three selection regimes:

* hard  -- the selection found at the forward pass is frozen and the
           gradient of the resulting affine map is returned (exact almost
           everywhere, one-sided on region boundaries, which `gradients`
           warns about and `train`'s steps do not scan for),
* soft  -- selections are per-unit softmaxes of the affine scores and the
           gradient flows through them,
* beta  -- like soft but the scores are scaled by eta = beta/(1-beta);
           the gradient with respect to beta itself is also produced so
           beta can be learned through a logistic reparameterization.

Orthogonality comes as one penalty, a weight times the summed squared
inner products of the slopes of distinct units, and a hard Gram-Schmidt
projection-subtraction pass.  `train` applies the penalty to every
weight array, one row per output unit: with gamma to the final Dense
layer's rows (the class templates), with lam to every other one.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from .maso import MasoParams, forward
from .ndcore import (
    DivergenceError,
    DomainError,
    DegeneracyError,
    PreconditionError,
    ShapeError,
    StructureError,
    Tensor,
    as_int,
    as_ints,
    as_seed,
    as_tensor,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "evaluate",
    "gradients",
    "ortho_penalty_filters",
    "gram_schmidt",
    "adam_step",
    "train",
    "joint_map_factorial",
]

_BOUNDARY_GAP = 1e-7
_MODES = ("hard", "soft", "beta")
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's decay rates and denominator guard


@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 128
    gamma: float = 0.0          # orthogonality weight of a Dense final layer's rows
    lam: float = 0.0            # orthogonality weight of every other weight array
    beta_mode: str = "hard"     # hard | soft | beta
    beta: float = 0.5           # shared beta value when beta_mode == "beta"
    beta_learnable: bool = False
    seed: int = 0

    def __post_init__(self):
        self.learning_rate = L._number(self.learning_rate, "learning rate")
        self.gamma, self.lam = L._number(self.gamma, "gamma"), L._number(self.lam, "lam")
        self.epochs = as_int(self.epochs, "epoch count")
        self.batch_size = as_int(self.batch_size, "batch size")
        if self.learning_rate <= 0:
            raise DomainError("learning rate must be positive")
        if self.epochs < 1:
            raise DomainError("need at least one epoch")
        if self.batch_size < 1 or self.gamma < 0 or self.lam < 0:
            raise DomainError("batch size must be at least 1, gamma and lam nonnegative")
        if self.beta_mode not in _MODES:
            raise DomainError(f"unknown beta_mode {self.beta_mode!r}")
        if self.beta_mode == "beta" and not 0.0 < L._number(self.beta, "beta") < 1.0:
            raise DomainError("beta must lie strictly inside (0, 1)")
        if not isinstance(self.beta_learnable, (bool, np.bool_)):
            raise DomainError(f"beta_learnable must be True or False, got {self.beta_learnable!r}")
        self.beta_learnable = bool(self.beta_learnable)
        if self.beta_learnable and self.beta_mode != "beta":
            raise DomainError(f"a learnable beta needs beta_mode 'beta', not {self.beta_mode!r}")
        self.seed = as_seed(self.seed, "training seed")


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

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


def _loss_and_accuracy(logits: Tensor, labels: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy of a batch's logits and the share of rows whose
    largest logit is at their label."""
    return _cross_entropy_batch(logits, labels)[0], float(np.mean(np.argmax(logits, axis=1) == labels))


# ---------------------------------------------------------------------------
# forward with caches
# ---------------------------------------------------------------------------

def _beta_for_layers(net: L.Network, mode: str, beta) -> dict:
    """Beta of each selector layer, keyed by layer index, for a regime name.

    The one place a regime becomes betas: {} for hard (every layer then
    selects hard), 1/2 for soft, and for beta the given number or a
    {layer index: number} dict with one entry per selector layer.
    `train` calls it once; its learnable betas are their logits' sigmoids.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown selection mode {mode!r}; expected one of {_MODES}")
    if mode == "hard":
        return {}
    if mode == "beta" and beta is None:
        raise DomainError("beta mode needs a beta value")
    selectors = [i for i, layer in enumerate(net.layers) if layer.selector]
    if not isinstance(beta, dict) or mode == "soft":
        beta = dict.fromkeys(selectors, 0.5 if mode == "soft" else beta)
    stray = [key for key in beta if key not in selectors]
    if stray:
        raise DomainError(f"layer {stray[0]!r} does not select and takes no beta")
    out = {}
    for i in selectors:
        if i not in beta:
            raise DomainError(f"layer {i} selects but the beta dict gives it no value")
        b = L._number(beta[i], f"layer {i} beta")
        if not 0.0 < b < 1.0:
            raise DomainError(f"layer {i}: beta must lie strictly inside (0, 1)")
        out[i] = b
    return out


# ---------------------------------------------------------------------------
# the loss surface: inference loss and accuracy, training loss and gradients
# ---------------------------------------------------------------------------

def _as_batch(net: L.Network, X, labels):
    """X as a 2-D batch (a 1-D x is one row) and its labels, checked;
    the forward checks X's width."""
    X = np.atleast_2d(as_tensor(X, "batch"))
    if X.shape[0] == 0:
        raise ShapeError("empty batch: need at least one input row")
    labels = np.atleast_1d(as_ints(labels, "label"))
    if labels.shape != (X.shape[0],):
        raise ShapeError("one label per input row required")
    if labels.min() < 0 or labels.max() >= net.class_count:
        raise DomainError("label out of range")
    return X, labels


def evaluate(net: L.Network, X: Tensor, y: np.ndarray) -> tuple[float, float]:
    """Inference loss and accuracy of a batch from one hard forward, batch
    norm on its stored statistics.  X may be one 1-D input with an integer
    label; labels must be integers (an integral float is read as one) in
    [0, class_count)."""
    X, y = _as_batch(net, X, y)
    logits, _ = L.network_forward_batch(net, X)
    return _loss_and_accuracy(logits, y)


def gradients(
    net: L.Network,
    x: Tensor,
    label,
    mode: str = "hard",
    beta=None,
) -> tuple[float, dict]:
    """Training-view loss at (x, label) and its analytic gradients: one
    forward in the given regime with batch norm on batch statistics.

    The loss is the function the gradients differentiate, which makes it
    the reference for finite-difference checks; in hard mode on a net
    without batch norm it equals `evaluate`'s loss.

    Accepts a single input (1-D x, int label) or a batch.  In hard mode
    inputs close to a region boundary trigger a resample warning; the
    returned gradient is the one-sided derivative of the selected region.
    The gradients are a dict keyed '<layer_index>.<field>'; in beta mode
    each selector layer additionally gets '<layer_index>.beta'.
    """
    X, labels = _as_batch(net, x, label)
    betas = _beta_for_layers(net, mode, beta)
    logits, caches = L.network_forward_batch(net, X, betas=betas, batch_stats=True)
    if mode == "hard":
        for i, (layer, cache) in enumerate(zip(net.layers, caches)):
            if layer.near_boundary(cache, _BOUNDARY_GAP):
                warnings.warn(
                    f"layer {i}: input within {_BOUNDARY_GAP} of a region boundary; "
                    "the hard-mode gradient is one-sided; consider resampling",
                    RuntimeWarning,
                )
    return _backprop(net, caches, logits, labels, mode == "beta")


def _backprop(net: L.Network, caches, logits: Tensor, labels: np.ndarray, with_beta: bool):
    """Mean loss and the gradients keyed '<layer>.<field>', from the caches
    of one `network_forward_batch`; with_beta adds each selector's '<layer>.beta'."""
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

def ortho_penalty_filters(p, lam: float) -> tuple[float, Tensor]:
    """lam * cross-unit slope inner-product energy, same-unit pairs excluded.

    Accepts MasoParams (K x R x D slopes) or a plain 2-D weight matrix
    (rows = units, R = 1).  The gradient matches the input's slope shape.
    """
    A = p.A if isinstance(p, MasoParams) else as_tensor(p, "weights")
    if A.ndim not in (2, 3):
        raise ShapeError(f"expected K x R x D slopes or a K x D matrix, got shape {A.shape}")
    F, Gm = _cross_unit_gram(A if A.ndim == 3 else A[:, None, :])
    penalty = lam * float(np.sum(Gm * Gm))
    return penalty, (lam * 4.0 * (Gm @ F)).reshape(A.shape)


def _cross_unit_gram(A: Tensor) -> tuple[Tensor, Tensor]:
    """(F, G): the K x R x D slopes as K*R rows and their Gram matrix with
    the pairs of rows of one unit set to zero."""
    K, R, D = A.shape
    F = A.reshape(K * R, D)
    Gm = F @ F.T
    k = np.arange(K)
    Gm.reshape(K, R, K, R)[k, :, k, :] = 0.0
    return F, Gm


def gram_schmidt(M: Tensor) -> Tensor:
    """Orthogonalize rows by sequential projection subtraction.

    Row k becomes w_k - sum_{j<k} (<q_j, w_k>/<q_j, q_j>) q_j against the
    already-processed rows q_j.  Rows are NOT renormalized, so
    already-orthogonal inputs pass through unchanged.
    """
    M = as_tensor(M, "rows")
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


def _ortho_penalty(W: Tensor, weight: float) -> tuple[float, Tensor]:
    """Orthogonality penalty of a weight array with one row per output unit
    (a conv's filters flatten to one row per output channel) and its
    gradient in W's shape."""
    penalty, grad = ortho_penalty_filters(W.reshape(W.shape[0], -1), weight)
    return penalty, grad.reshape(W.shape)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def train(net: L.Network, dataset, config: TrainConfig):
    """Mini-batch Adam on cross-entropy plus an orthogonality penalty on
    each weight array.

    The final layer's W, when that layer is Dense, holds the class
    templates and is penalised with gamma; every other array of two or
    more dimensions (Dense W, conv filters, a skip block's two
    convolutions) with lam.  gamma > 0 on a net without a Dense final
    layer raises StructureError.

    dataset is (X, y).  Returns (trained network, history) where history
    holds one dict per epoch with keys epoch, loss, accuracy,
    template_penalty, filter_penalty (and betas when beta is learnable).
    Steps run the configured regime with batch statistics.  Each epoch
    ends with one inference forward over the dataset that first sets each
    batch norm's mean and var to the biased statistics of its input; its
    loss and accuracy are the history's, equal to `evaluate` on the
    trained network.  No warning is filtered.  The input network is
    left untouched; batch order is drawn from the config seed.
    """
    X, y = _as_batch(net, *dataset)
    net = copy.deepcopy(net)
    rng = np.random.default_rng(config.seed)
    params = {f"{i}.{k}": a for i, layer in enumerate(net.layers) for k, a in layer.params().items()}
    beta_logits = {}  # learnable betas: selector layer -> logit, beta = sigmoid(logit)
    if config.beta_learnable:
        for i, layer in enumerate(net.layers):
            if layer.selector:
                beta_logits[i] = np.array(np.log(config.beta / (1.0 - config.beta)))
                params[f"{i}.beta_raw"] = beta_logits[i]
    # every weight array gets lam, except the final Dense layer's W: its rows
    # are the class templates, and they get gamma
    head = f"{len(net.layers) - 1}.W"
    if config.gamma > 0 and head not in params:
        raise StructureError("gamma penalises class templates, which need a Dense final layer")
    ortho = {key: config.gamma if key == head else config.lam
             for key, a in params.items() if a.ndim >= 2}

    state = AdamState()
    history = []
    betas = _beta_for_layers(net, config.beta_mode, config.beta)
    for epoch in range(config.epochs):
        order = rng.permutation(X.shape[0])
        for start in range(0, X.shape[0], config.batch_size):
            idx = order[start : start + config.batch_size]
            if beta_logits:
                betas = {i: _sigmoid(t) for i, t in beta_logits.items()}
            logits, caches = L.network_forward_batch(net, X[idx], betas=betas, batch_stats=True)
            loss, grads = _backprop(net, caches, logits, y[idx], bool(beta_logits))
            if not np.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            for key, weight in ortho.items():
                if weight > 0:
                    grads[key] = grads[key] + _ortho_penalty(params[key], weight)[1]
            for i in beta_logits:
                b = betas[i]
                grads[f"{i}.beta_raw"] = np.asarray(float(grads[f"{i}.beta"]) * b * (1.0 - b))
            adam_step(params, grads, state, config)

        # the inference forward, each batch norm recalibrated on its full-data
        # input; it stays a loop of its own because a batch norm's statistics
        # must be set from that layer's input before the layer runs, which
        # network_forward_batch does not do
        Z = X
        for layer in net.layers:
            if isinstance(layer, L.BatchNorm):
                layer.calibrate(Z)
            Z = layer.forward(Z)[0]
        penalties = {key: _ortho_penalty(params[key], weight)[0] for key, weight in ortho.items()}
        template_penalty = penalties.pop(head, 0.0)
        loss, acc = _loss_and_accuracy(Z, y)
        entry = {
            "epoch": epoch,
            "loss": loss,
            "accuracy": acc,
            "template_penalty": template_penalty,
            "filter_penalty": sum(penalties.values(), 0.0),
        }
        if beta_logits:
            entry["betas"] = tuple(float(_sigmoid(t)) for t in beta_logits.values())
        history.append(entry)
    return net, history


# ---------------------------------------------------------------------------
# factorial joint MAP
# ---------------------------------------------------------------------------

def joint_map_factorial(p: MasoParams, z: Tensor) -> np.ndarray:
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
    return forward(p, z)[1]
