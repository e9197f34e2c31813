"""Input-conditioned affine views of whole networks.

A piecewise-affine network acts on each input x through the affine map
its VQ codes select, so f(x) = A[x] x + b[x] exactly.  This module chains
the per-layer selected affine maps to expose A[x] and b[x], the matched
filter rows of the final classifier, the 2^(L-1)-term expansion of a
linear-skip residual chain, depthwise norm series of the partial
products, and an empirical midpoint-convexity probe.

Every view runs the network's hard forward on the one input and reads
each layer's selected map from that forward's caches, so `decompose` uses
the very codes that `network_forward` reports: inputs with equal codes
get the identical (A, b).  The partition tools run the same forward on
batches, and a one-row `Z @ W.T` may round differently from the same row
in a larger batch, so an input within that rounding of a region boundary
(`Layer.near_boundary` at a gap of 1e-9 catches it) can read other codes
in a scan than here.

The whole network's map, which has only one row per output, is built
from the head: the last layer's selected map is pulled back through the
earlier layers (`Layer.pull`, the step the hard backward takes), and each
layer's offset enters through the rows pulled back to its output.  A
prefix map,
as wide as the hidden layer it ends at, is walked from the input instead
(`Layer.push`).  Either way each step costs one matrix product per
affine layer (dense, conv, skip block): activations and batch norm scale
the running map's rows or columns, and both pools gather or scatter-add
them (average pooling with its weights), instead of multiplying by a
D x D diagonal, one-hot or averaging matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Dense, Network, SkipBlock, network_forward_batch
from .ndcore import DomainError, StructureError, Tensor, as_int, as_seed

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


def _walk(net: Network, x: Tensor, n: int | None):
    """Yield (A, b), the affine map of the layers so far, after each of
    the first n layers (all when None) around x.

    The walk reads the caches of one hard forward of x as a one-row
    batch: each layer's map is the one its forward cache selected.  The
    first layer's map is taken as it is, not multiplied into an identity.
    """
    _, caches = network_forward_batch(net, np.reshape(x, (1, -1)), n)
    A = b = None
    for layer, cache in zip(net.layers, caches):
        A, b = layer.selected_affine(cache) if A is None else layer.push(cache, A, b)
        yield A, b


def _pull(layers, caches, A, b):
    """(A Asel, A bsel + b) for the map each layer's hard cache selected,
    composed from the last layer to the first; A is (n, m, out) and b
    (n, m), one map per cache row."""
    for layer, cache in zip(reversed(layers), reversed(caches)):
        b = b + (A @ layer.selected_offset(cache)[..., None])[..., 0]
        A = layer.pull(cache, A)
    return A, b


def decompose(net: Network, x: Tensor, upto_layer: int | None = None) -> AffineForm:
    """The affine map the first `upto_layer` layers apply around x.

    Chains each layer's selected (A, b): the matrix is the product of the
    per-layer selected matrices and the offset telescopes through them.
    The whole network's map is chained from the head, a prefix's from
    the input.  Evaluating the result at x reproduces the forward output
    up to float accumulation; inputs whose hard forward codes match x's
    get the identical (A, b).
    """
    if upto_layer is not None:  # checked before it picks the path
        upto_layer = as_int(upto_layer, "layer prefix")
    if net.layers and upto_layer in (None, len(net.layers)):
        _, caches = network_forward_batch(net, np.reshape(x, (1, -1)))
        A, b = net.layers[-1].selected_affine(caches[-1])
        A, b = _pull(net.layers[:-1], caches[:-1], A[None], b[None])
        return AffineForm(A[0], b[0])
    A = b = None
    for A, b in _walk(net, x, upto_layer):
        pass
    if A is None:  # an empty prefix is the identity map
        A, b = np.eye(net.dims[0]), np.zeros(net.dims[0])
    return AffineForm(A, b)


def class_templates(net: Network, x: Tensor) -> tuple[Tensor, Tensor]:
    """Matched-filter rows of the classifier at x, with their offsets.

    Row c of the returned matrix is the linear functional whose inner
    product with x (plus the offset) is logit c: the final Dense layer's
    row c pulled back through the maps all preceding layers selected,
    which is the whole network's decomposition at x.
    """
    if not net.layers or not isinstance(net.layers[-1], Dense):
        raise StructureError("templates need a Dense final layer")
    form = decompose(net, x)
    return form.A, form.b


def resnet_ensemble_terms(net: Network, x: Tensor) -> list:
    """Expand a linear-skip residual chain into its 2^(blocks) products.

    Each skip block applies C_skip + A_act[x] C; multiplying the blocks
    out gives one term per choice of branch per block.  Terms are ordered
    with the first block as the least-significant choice bit (0 = skip
    branch, 1 = activation branch); their sum equals the decomposed A
    matrix of the block prefix.  A trailing Dense classifier is allowed
    and excluded from the expansion.
    """
    _, caches = network_forward_batch(net, np.reshape(x, (1, -1)))
    blocks = []
    for i, (layer, cache) in enumerate(zip(net.layers, caches)):
        if isinstance(layer, SkipBlock):
            blocks.append(layer.branches(cache)[:2])
        elif not (isinstance(layer, Dense) and i == len(net.layers) - 1):
            raise StructureError(
                f"layer {i} is {type(layer).__name__}; expansion needs skip blocks "
                "(a final Dense excepted)"
            )
    if len(blocks) > 11:
        raise DomainError(f"{len(blocks)} blocks would expand to {2 ** len(blocks)} terms")
    # doubling per block keeps the first block's choice the least significant bit
    terms = [np.eye(net.dims[0])]
    for skip, act in blocks:
        terms = [skip @ P for P in terms] + [act @ P for P in terms]
    return terms


def partial_product_norms(net: Network, x: Tensor) -> list:
    """Frobenius norms of the depth-d selected products, d = 1 .. L-1."""
    return [float(np.linalg.norm(A)) for A, _ in _walk(net, x, max(len(net.layers) - 1, 0))]


def convexity_probe(net: Network, samples: int, seed: int = 0, tol: float = 1e-9):
    """Midpoint-convexity pass fractions per output dimension.

    Draws `samples` standard-normal input pairs (u, v) and checks
    f((u+v)/2) <= (f(u)+f(v))/2 + tol coordinatewise.  A fraction of 1.0
    for every output is what a network with nonnegative slopes beyond its
    first layer must produce; fractions below 1.0 witness non-convexity.
    """
    samples = as_int(samples, "probe pair count")
    if samples < 1:
        raise DomainError("need at least one probe pair")
    rng = np.random.default_rng(as_seed(seed, "probe seed"))
    d = net.dims[0]
    U = rng.standard_normal((samples, d))
    V = rng.standard_normal((samples, d))
    fu, _ = network_forward_batch(net, U)
    fv, _ = network_forward_batch(net, V)
    fm, _ = network_forward_batch(net, 0.5 * (U + V))
    ok = fm <= 0.5 * (fu + fv) + tol
    return ok.mean(axis=0)
