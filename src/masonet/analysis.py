"""Input-conditioned affine views of whole networks.

A piecewise-affine network acts on each input x through the affine map
its VQ codes select, so f(x) = A[x] x + b[x] exactly.  This module chains
the per-layer selected affine maps to expose A[x] and b[x], the matched
filter rows of the final classifier, the 2^(L-1)-term expansion of a
linear-skip residual chain, depthwise norm series of the partial
products, and an empirical midpoint-convexity probe.

The walk runs the network's hard forward on the one input and reads each
layer's selected map from that forward's cache, so `decompose` uses the
very codes that `network_forward` and the partition tools report: inputs
with equal codes get the identical (A, b).  The chaining costs one
matrix product per affine layer (dense, conv, average pool, skip block):
activations and batch norm scale the rows of the running A, and max
pooling gathers them, instead of multiplying A by a D x D diagonal or
one-hot matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import (
    Dense,
    Network,
    SkipBlock,
    network_forward_batch,
    push_affine,
)
from .ndcore import DomainError, ShapeError, StructureError, Tensor, as_tensor

__all__ = [
    "AffineForm",
    "decompose",
    "class_templates",
    "resnet_ensemble_terms",
    "partial_product_norms",
    "convexity_probe",
]


@dataclass(frozen=True)
class AffineForm:
    """Matrix/offset pair of one selected affine map."""

    A: Tensor
    b: Tensor

    def __call__(self, x: Tensor) -> Tensor:
        return self.A @ np.asarray(x, dtype=np.float64).reshape(-1) + self.b


def _check_input(net: Network, x: Tensor) -> Tensor:
    flat = as_tensor(x).reshape(-1)
    if flat.shape[0] != net.dims[0]:
        raise ShapeError(f"input has {flat.shape[0]} entries, expected {net.dims[0]}")
    return flat


def _prefix_count(net: Network, upto_layer) -> int:
    n = len(net.layers) if upto_layer is None else int(upto_layer)
    if not 0 <= n <= len(net.layers):
        raise ShapeError(f"layer prefix {n} out of range for {len(net.layers)} layers")
    return n


def _walk(net: Network, x: Tensor, n: int):
    """Yield (A, b), the affine map of the layers so far, after each of
    the first n layers around x.

    The walk is the hard forward of x as a one-row batch: each layer's
    map is the one its forward cache selected, and the forward's output is
    the next layer's input.  The first layer's map is taken as it is, not
    multiplied into an identity.
    """
    Z = _check_input(net, x)[None, :]
    A = b = None
    for layer in net.layers[:n]:
        Z, cache = layer.forward(Z)
        A, b = push_affine(layer, cache, A, b)
        yield A, b


def decompose(net: Network, x: Tensor, upto_layer: int | None = None) -> AffineForm:
    """The affine map the first `upto_layer` layers apply around x.

    Chains each layer's selected (A, b): the matrix is the product of the
    per-layer selected matrices and the offset telescopes through them.
    Evaluating the result at x reproduces the forward output up to float
    accumulation; inputs whose hard forward codes match x's get the
    identical (A, b).
    """
    A = b = None
    for A, b in _walk(net, x, _prefix_count(net, upto_layer)):
        pass
    if A is None:  # an empty prefix is the identity map
        A, b = np.eye(net.dims[0]), np.zeros(net.dims[0])
    return AffineForm(A, b)


def class_templates(net: Network, x: Tensor) -> tuple[Tensor, Tensor]:
    """Matched-filter rows of the classifier at x, with their offsets.

    Row c of the returned matrix is the linear functional whose inner
    product with x (plus the offset) is logit c: the final Dense weights
    pushed through the affine map of all preceding layers.
    """
    if not net.layers or not isinstance(net.layers[-1], Dense):
        raise StructureError("templates need a Dense final layer")
    head = net.layers[-1]
    prefix = decompose(net, x, upto_layer=len(net.layers) - 1)
    templates = head.W @ prefix.A
    biases = head.W @ prefix.b + head.b
    return templates, biases


def resnet_ensemble_terms(net: Network, x: Tensor) -> list:
    """Expand a linear-skip residual chain into its 2^(blocks) products.

    Each skip block applies C_skip + A_act[x] C; multiplying the blocks
    out gives one term per choice of branch per block.  Terms are ordered
    with the first block as the least-significant choice bit (0 = skip
    branch, 1 = activation branch); their sum equals the decomposed A
    matrix of the block prefix.  A trailing Dense classifier is allowed
    and excluded from the expansion.
    """
    blocks = []
    Z = _check_input(net, x)[None, :]
    for i, layer in enumerate(net.layers):
        if isinstance(layer, SkipBlock):
            Z, cache = layer.forward(Z)
            blocks.append(layer.branches(cache)[:2])
        elif not (isinstance(layer, Dense) and i == len(net.layers) - 1):
            raise StructureError(
                f"layer {i} is {type(layer).__name__}; expansion needs skip blocks "
                "(a final Dense excepted)"
            )
    if len(blocks) > 11:
        raise DomainError(f"{len(blocks)} blocks would expand to {2 ** len(blocks)} terms")
    terms = []
    dim = net.dims[0]
    for index in range(2 ** len(blocks)):
        P = np.eye(dim)
        for i, pair in enumerate(blocks):
            P = pair[(index >> i) & 1] @ P
        terms.append(P)
    return terms


def partial_product_norms(net: Network, x: Tensor) -> list:
    """Frobenius norms of the depth-d selected products, d = 1 .. L-1."""
    return [float(np.linalg.norm(A)) for A, _ in _walk(net, x, len(net.layers) - 1)]


def convexity_probe(net: Network, samples: int, seed: int = 0, tol: float = 1e-9):
    """Midpoint-convexity pass fractions per output dimension.

    Draws `samples` standard-normal input pairs (u, v) and checks
    f((u+v)/2) <= (f(u)+f(v))/2 + tol coordinatewise.  A fraction of 1.0
    for every output is what a network with nonnegative slopes beyond its
    first layer must produce; fractions below 1.0 witness non-convexity.
    """
    if samples < 1:
        raise DomainError("need at least one probe pair")
    rng = np.random.default_rng(seed)
    d = net.dims[0]
    U = rng.standard_normal((samples, d))
    V = rng.standard_normal((samples, d))
    fu, _ = network_forward_batch(net, U)
    fv, _ = network_forward_batch(net, V)
    fm, _ = network_forward_batch(net, 0.5 * (U + V))
    ok = fm <= 0.5 * (fu + fv) + tol
    return ok.mean(axis=0)
