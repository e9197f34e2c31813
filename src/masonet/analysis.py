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
layer's offset enters through the rows pulled back to its output.  Each
step costs one matrix product per affine layer (dense, conv, skip
block): activations and batch norm scale the running map's columns, and
both pools scatter-add them (average pooling with its weights), instead
of multiplying by a D x D diagonal, one-hot or averaging matrix.

A prefix map, as wide as the hidden layer it ends at, is walked from the
input instead.  An activation, batch norm or max pool only picks and
scales rows of the map before it (`Layer.pick`), so across a run of them
the walk holds the map as the last dense map M, the composed row pick
and the pending scales.  It builds the matrix only where a dense, conv,
skip-block or average-pool layer (`Layer.push`) or the caller needs it:
M's kept rows are gathered first and scaled in layer order, the same
factors in the same order as pushing each layer in turn, so the bits are
the same.  A first convolution lowers only the rows kept, and norms need
no matrix at all: they come from M's squared row norms, which a first
convolution reads off its filters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Dense, Network, SkipBlock, network_forward_batch, pick_rows
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


class _Prefix:
    """The affine map (A, b) of the layers walked so far, A held lazily.

    A is M[rows] with its rows multiplied by each of `scales` in turn: M
    is the map up to the last layer without a row pick (`Layer.pick`),
    and rows and scales compose the picks of the layers after it (rows
    None keeps every row).  At the start M is the first layer's own map,
    never built whole: only the rows a later pick keeps are.  b is kept
    as each layer's push leaves it.
    """

    def __init__(self, rows_of, sqnorms_of, b):
        # rows_of(rows): M's rows, a new array unless rows is None (M itself)
        self._rows_of, self._sqnorms_of, self._sqnorms = rows_of, sqnorms_of, None
        self.rows, self.scales, self.b = None, [], b

    @classmethod
    def first(cls, layer, cache):
        return cls(
            lambda rows: layer.selected_rows(cache, rows),
            lambda: layer.selected_sqnorms(cache),
            np.reshape(layer.selected_offset(cache), -1).copy(),  # the one row's bsel
        )

    @classmethod
    def dense(cls, M, b):
        return cls(lambda rows: M if rows is None else M[rows], lambda: np.einsum("ij,ij->i", M, M), b)

    def step(self, layer, cache):
        """The map once `layer` follows, under its one-row hard cache."""
        pick = layer.pick(cache)
        if pick is None:
            return _Prefix.dense(*layer.push(cache, self.matrix(), self.b))
        rows, scale, shift = pick
        b = pick_rows(pick, self.b)
        self.b = b if shift is None else b + shift
        if rows is not None:
            self.scales = [s[rows] for s in self.scales]
            self.rows = rows if self.rows is None else self.rows[rows]
        if scale is not None:
            self.scales.append(scale)
        return self

    def matrix(self):
        """A as an array, which the caller must not write to.

        M's kept rows are gathered first and then scaled in layer order,
        so each entry meets the same factors in the same order as when
        every layer's push runs in turn: the bits are the same.
        """
        A = self._rows_of(self.rows)
        for i, s in enumerate(self.scales):
            if i == 0 and self.rows is None:
                A = s[:, None] * A  # M itself is never written to
            else:
                A *= s[:, None]
        return A

    def norm(self) -> float:
        """Frobenius norm of A, from M's squared row norms:
        sqrt(sum of scale^2 * rownorm^2 over the kept rows)."""
        if self._sqnorms is None:
            self._sqnorms = self._sqnorms_of()
        sq = self._sqnorms if self.rows is None else self._sqnorms[self.rows]
        for s in self.scales:
            sq = sq * (s * s)
        return float(np.sqrt(sq.sum()))


def _walk(net: Network, x: Tensor, n: int | None):
    """Yield the map of the layers so far (a `_Prefix`, which the next
    step may change) after each of the first n layers (all when None)
    around x.

    The walk reads the caches of one hard forward of x as a one-row
    batch: each layer's map is the one its forward cache selected.  The
    first layer's map is taken as it is, not multiplied into an identity.
    """
    _, caches = network_forward_batch(net, np.reshape(x, (1, -1)), n)
    prefix = None
    for layer, cache in zip(net.layers, caches):
        prefix = _Prefix.first(layer, cache) if prefix is None else prefix.step(layer, cache)
        yield prefix


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
    prefix = None
    for prefix in _walk(net, x, upto_layer):
        pass
    if prefix is None:  # an empty prefix is the identity map
        return AffineForm(np.eye(net.dims[0]), np.zeros(net.dims[0]))
    return AffineForm(prefix.matrix(), prefix.b)


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
    """Frobenius norms of the depth-d selected products, d = 1 .. L-1.

    Each norm is summed from squared row norms (see `_Prefix.norm`), so
    a depth whose layers since the last dense, conv, skip-block or
    average-pool layer only pick and scale rows builds no matrix, and a
    first convolution is never lowered whole.  The norms agree with
    `np.linalg.norm(decompose(net, x, upto_layer=d).A)` to rounding (they
    sum in another order), not bit for bit.
    """
    return [prefix.norm() for prefix in _walk(net, x, max(len(net.layers) - 1, 0))]


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
