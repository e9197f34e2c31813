"""Concrete network operators and their exact MASO representations.

Each supported operator (dense, conv, relu / leaky-relu / abs, max / avg
pool, folded batch-norm, linear-skip residual block) is either a MASO or a
degenerate (R = 1) MASO, stated once by the layer's `as_maso()`, and a
linear layer followed by any layer collapses into a single MASO via

    A[k,r,:] = W^T As[k,r,:]          B[k,r] = Bs[k,r] + <As[k,r,:], b>

Networks are ordered layer lists acting on flat row-major vectors; images
enter flattened and convolutions carry their expected (C, H, W) input
shape.  Each layer kind is one class that owns its dimensions, its
batched forward in the hard, soft and beta regimes (the hard one is the
inference forward), the matching backward, the map a hard forward
selected (as `pull` and `selected_offset`, and as a row pick for the
kinds that select one scaled input per unit; the dense map, `push` and
the MASO form derive from these, see `Layer`) and its trainable
arrays.  Max pooling selects through the kernel, `maso.select` and
`select_backward`, on scores gathered in the kernel's layout.  An
activation has two regions and selects in closed form: hard by a z > 0
test, which gives the kernel's codes, and soft by a sigmoid gate of its
score gap, the kernel's two-region softmax (the swish family), equal to
it to rounding.

A region is chosen only in the forward: the hard backward, the selected
affine map and the decomposition steps all read the codes of the
forward's cache, so the training, partition and decomposition views of
an input agree when they run it in the same batch.  The MASO form,
selected by `maso.select` from its own scores, picks the same regions
(exact ties of a skip block's pre-activation aside).

Convolution runs by gathered windows (im2col): the forward, the filter
gradient and `pull` gather through two index arrays and make one matrix
product each, over row chunks of a fixed entry budget, so no (out x in)
array is formed.  The explicit matrix form is lowered from the current
filters only where it is the answer: `conv_to_matrix`, the selected map,
the MASO form and a skip block's branches, and in the first step of a
prefix walk only the rows a later max pool keeps; no lowered copy is
kept, so none can go stale.  The geometry
is stated once, as the window index `_conv_windows` that the forward,
backward, `pull` and `conv_to_matrix` read; both pools gather their
input through one padded index matrix and scatter onto it.  Index
arrays that depend only on geometry are computed once per shape and
shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .maso import MasoParams, check_beta, select, select_backward
from .ndcore import (
    DomainError,
    ShapeError,
    StructureError,
    Tensor,
    WindowError,
    as_float,
    as_int,
    as_ints,
    as_seed,
    as_tensor,
)

__all__ = [
    "Layer",
    "Dense",
    "Conv",
    "Activation",
    "MaxPool",
    "AvgPool",
    "BatchNorm",
    "SkipBlock",
    "Network",
    "compose_layer_maso",
    "conv_to_matrix",
    "conv_out_shape",
    "network_forward",
    "network_forward_batch",
    "bn_fold_affine",
    "apodized_reconstruct",
    "interior_mask",
    "slope_nonnegativity",
    "pool_regions_2d",
    "make_mlp",
    "ACTIVATION_SLOPES",
]


# ---------------------------------------------------------------------------
# layer kinds
# ---------------------------------------------------------------------------

class Layer:
    """Behaviour every layer kind defines; the kinds below are dataclasses.

    forward(Z, beta, batch_stats) maps a batch (n, in) to (n, out) and
    returns (out, cache).  A selector selects hard exactly when beta is
    None and otherwise softly under that beta (1/2 is soft VQ); the other
    kinds ignore beta.  A selector's beta goes through `maso.check_beta`,
    as `maso.forward`'s does: one value, or one per output unit (shape (K,) for K
    outputs; a skip block's units are its activation's), each inside
    (0, 1); another shape raises ShapeError, a value outside DomainError.
    The defaults, hard selection without batch
    statistics, are the inference forward; a selector's hard cache holds
    its (n, K) region codes under "codes", which is how its backward tells
    the hard cache from the soft one.  backward(cache, G) returns
    (G w.r.t. the input, parameter gradients keyed like params(),
    d loss / d beta or None); dims() is (input width, output width).

    Each kind states the map (Asel, bsel) its hard cache selected in
    two methods.  pull(cache, G) is the step from the output: for a
    hard cache of n rows and G of shape (n, ..., out) it is G @ Asel of
    each row, shape (n, ..., in), and a hard cache's input gradient.
    selected_offset(cache) is each row's bsel.  Activations, batch norm
    and max pooling select one scaled input per output unit, and state
    the map of a one-row cache a third time, as a row pick (`pick`).
    Derived from these: selected_affine(cache), the dense (Asel, bsel)
    of a one-row cache, is the identity pulled through the layer (dense
    and skip block return the matrix they hold instead, and conv lowers
    its filters, which costs no product); push(cache, A, b), the step
    from the input, (Asel A, Asel b + bsel) for a one-row cache, gathers
    and scales A's rows as the pick says, and multiplies by the dense
    Asel where there is no pick (average pooling gathers with its
    weights instead); and as_maso(), the MASO whose hard forward is the
    inference forward, has as region r the map selected by the cache of
    the zero input with every code set to r, for each of the `pieces`
    regions.  `network_forward_batch` is the one loop that runs a
    network's layers.
    """

    selector = False  # picks a region per unit: has codes and a beta
    pieces = 1  # regions per unit of the MASO form

    def params(self) -> dict:
        """Trainable arrays keyed by field name."""
        return {}

    def backward(self, cache, G):
        return self.pull(cache, G), {}, None

    def selected_offset(self, cache):
        """bsel of a hard cache's rows: (out,) when every row shares it, else (n, out)."""
        return np.zeros(self.dims()[1])

    def selected_affine(self, cache):
        """(Asel, bsel) of a one-row hard cache: the pulled identity."""
        return self.pull(cache, np.eye(self.dims()[1])[None])[0], self.selected_offset(cache)

    def selected_rows(self, cache, rows=None):
        """Rows `rows` of the Asel a one-row hard cache selected (every row
        when None), as a new array; conv lowers only those rows."""
        A = self.selected_affine(cache)[0]
        return A if rows is None else A[rows]

    def selected_sqnorms(self, cache):
        """Squared Euclidean norms of the rows of that Asel."""
        A = self.selected_affine(cache)[0]
        return np.einsum("ij,ij->i", A, A)

    def pick(self, cache):
        """The map a one-row hard cache selected as a row pick, or None.

        (rows, scale, shift): row i of Asel is scale[i] times unit row
        rows[i], and bsel is shift.  rows None keeps every row, scale None
        is 1 and shift None is no offset.  None for kinds whose map is not
        one scaled input per output unit.
        """
        return None

    def push(self, cache, A, b):
        """(Asel A, Asel b + bsel) for the (Asel, bsel) the hard cache selected.

        A pick gathers and scales A's rows in place of a product with a
        diagonal or one-hot matrix; the results equal the product entry
        for entry.  Average pooling overrides this to gather rows with its
        weights, which sums in another order than the product: equal to
        rounding, not bit for bit.
        """
        pick = self.pick(cache)
        if pick is None:
            Asel, bsel = self.selected_affine(cache)
            return Asel @ A, Asel @ b + bsel
        shift = pick[2]
        b = pick_rows(pick, b)
        return pick_rows(pick, A), b if shift is None else b + shift

    def as_maso(self) -> MasoParams:
        """Region r of every unit: the map selected when each code reads r."""
        cache = self.forward(np.zeros((1, self.dims()[0])))[1]
        maps = []
        for r in range(self.pieces):
            if self.selector:
                cache["codes"][...] = r
            maps.append(self.selected_affine(cache))
        return MasoParams(np.stack([A for A, _ in maps], axis=1), np.stack([b for _, b in maps], axis=1))

    def near_boundary(self, cache: dict, gap: float) -> bool:
        """Does a hard-mode cache hold a unit within gap of a region tie?"""
        return False


@dataclass(eq=False)
class Dense(Layer):
    """Fully connected affine map z -> W z + b."""

    W: Tensor
    b: Tensor

    def __post_init__(self):
        self.W = as_tensor(self.W, "dense W")
        self.b = as_tensor(self.b, "dense b")
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ShapeError(f"dense shapes disagree: W {self.W.shape}, b {self.b.shape}")

    def dims(self) -> tuple[int, int]:
        return self.W.shape[1], self.W.shape[0]

    def forward(self, Z, beta=None, batch_stats=False):
        out = Z @ self.W.T
        out += self.b  # in place: one (n, out) array per forward, not two
        return out, {"Z": Z}

    def backward(self, cache, G):
        return self.pull(cache, G), {"W": G.T @ cache["Z"], "b": G.sum(axis=0)}, None

    def pull(self, cache, G):
        return G @ self.W

    def selected_affine(self, cache):
        return self.W.copy(), self.b.copy()

    def selected_offset(self, cache):
        return self.b

    def params(self) -> dict:
        return {"W": self.W, "b": self.b}


@dataclass(eq=False)
class Conv(Layer):
    """2-D convolution, stride pair, 'valid' or zero-padded 'same' boundary.

    filters: (out_ch, in_ch, kh, kw); bias: per-out-channel.  in_shape is
    the (C, H, W) the layer expects.  The forward gathers each output
    position's input window and makes one product with the flattened
    filters; the filter gradient is G's channel rows times the same
    windows, and `pull` gathers, for each input location, the output
    positions that read it and makes one product with the filters
    transposed.  None of them forms the (out x in) matrix:
    `conv_to_matrix` and selected_affine lower the current filters when
    asked.  Gathered arrays keep the batch axis last, so each index
    copies a run of rows.
    """

    filters: Tensor
    bias: Tensor
    stride: tuple[int, int]
    padding: str
    in_shape: tuple[int, int, int]

    def __post_init__(self):
        self.filters = as_tensor(self.filters, "conv filters")
        self.bias = as_tensor(self.bias, "conv bias")
        if self.filters.ndim != 4:
            raise ShapeError(f"filters must be 4-D, got shape {self.filters.shape}")
        if self.bias.shape != (self.filters.shape[0],):
            raise ShapeError("bias must have one entry per output channel")
        stride = as_ints(self.stride, "conv stride")
        if stride.shape != (2,) or stride.min() < 1:
            raise DomainError(f"stride must be two positive integers, got {self.stride}")
        self.stride = tuple(stride.tolist())
        if self.padding not in ("valid", "same-zero"):
            raise DomainError(f"unknown padding {self.padding!r}")
        self.in_shape = tuple(as_ints(self.in_shape, "conv in_shape").tolist())
        if len(self.in_shape) != 3 or self.in_shape[0] != self.filters.shape[1]:
            raise ShapeError(
                f"in_shape {self.in_shape} incompatible with filters {self.filters.shape}"
            )
        # raises on impossible geometry (kernel larger than 'valid' input)
        conv_out_shape(self)

    def bias_flat(self) -> Tensor:
        _, ho, wo = conv_out_shape(self)
        return np.repeat(self.bias, ho * wo)

    def dims(self) -> tuple[int, int]:
        return int(np.prod(self.in_shape)), int(np.prod(conv_out_shape(self)))

    def _windows(self, Z) -> Tensor:
        """(T, P, n) windows of the n rows of Z: entry [t, p, i] is what row
        i feeds output position p through filter tap t (0 on the border)."""
        Zt = np.zeros((Z.shape[1] + 1, Z.shape[0]))  # the last row is the border
        Zt[:-1] = Z.T
        return np.take(Zt, _conv_windows(self)[0], axis=0)

    def forward(self, Z, beta=None, batch_stats=False):
        c_out, (T, P) = self.filters.shape[0], _conv_windows(self)[0].shape
        F = self.filters.reshape(c_out, T)
        out = np.empty((Z.shape[0], c_out, P))
        for rows in _chunks(Z.shape[0], T * P):
            n = rows.stop - rows.start
            product = F @ self._windows(Z[rows]).reshape(T, P * n)
            out[rows] = product.reshape(c_out, P, n).transpose(2, 0, 1)
        out += self.bias[:, None]
        return out.reshape(Z.shape[0], c_out * P), {"Z": Z}

    def backward(self, cache, G):
        Z = cache["Z"]
        c_out, (T, P) = self.filters.shape[0], _conv_windows(self)[0].shape
        G3 = G.reshape(G.shape[0], c_out, P)
        dfil = np.zeros((c_out, T))
        for rows in _chunks(Z.shape[0], T * P):
            n = rows.stop - rows.start
            Gc = G3[rows].transpose(1, 2, 0).reshape(c_out, P * n)  # the windows' (P, n) order
            dfil += Gc @ self._windows(Z[rows]).reshape(T, P * n).T
        grads = {"filters": dfil.reshape(self.filters.shape), "bias": G3.sum(axis=(0, 2))}
        return self.pull(cache, G), grads, None

    def pull(self, cache, G):
        win, back = _conv_windows(self)
        c_out, c_in = self.filters.shape[:2]
        P, (taps, L) = win.shape[1], back.shape
        Ft = self.filters.transpose(1, 0, 2, 3).reshape(c_in, c_out * taps)
        G3 = G.reshape(math.prod(G.shape[:-1]), c_out, P)
        out = np.empty((G3.shape[0], c_in, L))
        for rows in _chunks(G3.shape[0], c_out * taps * L):
            n = rows.stop - rows.start
            Gt = np.zeros((c_out, P + 1, n))  # position P is the border, which no output reads
            Gt[:, :P] = G3[rows].transpose(1, 2, 0)
            met = np.take(Gt, back, axis=1).reshape(c_out * taps, L * n)
            out[rows] = (Ft @ met).reshape(c_in, L, n).transpose(2, 0, 1)
        return out.reshape(G.shape[:-1] + (c_in * L,))

    def selected_affine(self, cache):
        return conv_to_matrix(self), self.bias_flat()

    def selected_rows(self, cache, rows=None):
        return conv_to_matrix(self, rows)

    def selected_sqnorms(self, cache):
        # row o * P + p holds filter o's taps that fall inside the input
        win = _conv_windows(self)[0]
        F = self.filters.reshape(self.filters.shape[0], win.shape[0])
        return ((F * F) @ (win < self.dims()[0])).reshape(-1)

    def selected_offset(self, cache):
        return self.bias_flat()

    def params(self) -> dict:
        return {"filters": self.filters, "bias": self.bias}


ACTIVATION_SLOPES = {
    # kind -> (inactive slope, active slope); lrelu substitutes nu for None
    "relu": (0.0, 1.0),
    "lrelu": (None, 1.0),
    "abs": (-1.0, 1.0),
}


@dataclass(eq=False)
class Activation(Layer):
    """Elementwise two-region nonlinearity: relu, lrelu(nu) or abs.

    Region r of unit k scores a_r z with slopes (a_0, a_1) = (lo, hi).
    Hard, z > 0 picks the region.  Softly under beta, the softmax of the
    two scores scaled by eta = beta/(1-beta) is (1 - t, t) with t the
    sigmoid of eta d z, d = hi - lo, so out = z (lo + d t): swish for
    relu.  The soft cache holds Z, t, e = exp(-eta d z) and beta, and
    1 - t is e t.  The backward substitutes T = (1 - t, t) into the
    kernel's formulas: the input gradient is the output's slope lo + d t
    plus eta z d^2 t (1 - t), d^2 t (1 - t) being the gate's variance of
    the two slopes.
    """

    kind: str
    dim: int
    nu: float = 0.01
    selector = True
    pieces = 2  # region 0 is the inactive branch

    def __post_init__(self):
        self.dim = as_int(self.dim, "activation dim")
        self.nu = as_float(self.nu, "activation nu")
        if self.kind not in ACTIVATION_SLOPES:
            raise DomainError(f"unknown activation kind {self.kind!r}")
        # lrelu(nu) is max(nu z, z) only for nu < 1: past 1 it is concave, and
        # at 1 the two pieces tie everywhere, so the codes would mean nothing
        if self.kind == "lrelu" and not 0 < self.nu < 1:
            raise DomainError(f"leaky slope must lie in (0, 1), got {self.nu}")
        if self.dim < 1:
            raise ShapeError("activation dimension must be at least 1")

    def slopes(self) -> tuple[float, float]:
        lo, hi = ACTIVATION_SLOPES[self.kind]
        return (self.nu if lo is None else lo, hi)

    def dims(self) -> tuple[int, int]:
        return self.dim, self.dim

    def forward(self, Z, beta=None, batch_stats=False):
        lo, hi = self.slopes()
        if beta is None:
            on = Z > 0
            out = np.maximum(Z, 0.0) if self.kind == "relu" else np.where(on, hi * Z, lo * Z)
            return out, {"Z": Z, "codes": on.view(np.uint8)}
        # softmax(eta [lo z, hi z]) is (1 - t, t) with t = 1 / (1 + exp(-eta d z)),
        # one gate per unit.  This form keeps t's relative precision where t is
        # tiny, which 0.5 + 0.5 tanh(eta d z / 2) loses; capping exp's argument
        # at 709 keeps it finite and moves only values of t below 1e-307.
        # The cache keeps e = exp(-eta d z) for the backward, which reads
        # 1 - t as e t: subtracting t from 1 rounds to 0 where the gate saturates
        beta = check_beta(beta, self.dim, open_interval=True)
        e = (lo - hi) * (beta / (1.0 - beta)) * Z
        np.exp(np.minimum(e, 709.0, out=e), out=e)
        t = e + 1.0
        np.reciprocal(t, out=t)
        return Z * (lo + (hi - lo) * t), {"Z": Z, "t": t, "e": e, "beta": beta}

    def backward(self, cache, G):
        if "codes" in cache:
            return self.pull(cache, G), {}, None
        lo, hi = self.slopes()
        Z, t, beta = cache["Z"], cache["t"], cache["beta"]
        d = hi - lo
        # through the gate, d out / d (eta z) is z times the gate's variance
        # of the two slopes, d^2 t (1 - t)
        zv = cache["e"] * t
        zv *= t
        zv *= Z
        dZ = G * (lo + d * t + (d * d * beta / (1.0 - beta)) * zv)
        dbeta = np.sum(G * Z * zv, axis=tuple(range(G.ndim - beta.ndim)))
        return dZ, {}, (d * d) * dbeta / (1.0 - beta) ** 2

    def near_boundary(self, cache, gap):
        return bool(np.any(np.abs(cache["Z"]) < gap))

    def selected_slopes(self, cache) -> Tensor:
        """(n, dim) slope of the region each unit of a hard cache selected."""
        lo, hi = self.slopes()
        return np.where(cache["codes"] == 1, hi, lo)

    def pick(self, cache):
        # diag(s) @ A has one nonzero term per entry, so scaling rows is exact
        return None, self.selected_slopes(cache)[0], None

    def pull(self, cache, G):
        # likewise G @ diag(s) scales G's columns
        return G * _per_row(self.selected_slopes(cache), G)


def pick_rows(pick, V):
    """V's rows as a row pick (rows, scale, shift) takes them: scale * V[rows]
    along V's first axis.  The shift is not added."""
    rows, scale, _ = pick
    V = V if rows is None else V[rows]
    return V if scale is None else scale.reshape((-1,) + (1,) * (V.ndim - 1)) * V


def _per_row(v, G):
    """v (n, K), one row per cache row, as a view that broadcasts against
    G (n, ..., K)."""
    return v[(slice(None),) + (None,) * (G.ndim - 2)]


@dataclass(eq=False)
class _Pool(Layer):
    """Explicit index regions of the flat input, one output per region."""

    regions: tuple
    in_dim: int

    def __post_init__(self):
        self.in_dim = as_int(self.in_dim, "pool in_dim")
        regs = tuple(tuple(as_ints(r, "pool region index").tolist()) for r in self.regions)
        if not regs:
            raise DomainError("pooling needs at least one region")
        for r in regs:
            if not r:
                raise DomainError("empty pooling region")
            if min(r) < 0 or max(r) >= self.in_dim:
                raise DomainError(f"region index out of range for input dim {self.in_dim}")
        self.regions = regs

    def dims(self) -> tuple[int, int]:
        return self.in_dim, len(self.regions)

    def padded_indices(self) -> np.ndarray:
        """(K, R) index matrix, read-only; short regions repeat their last index."""
        return _pool_geometry(self.regions)[0]

    def _scatter(self, cols, V, lead):
        """Sums of the values V at the input indices cols (broadcast to V's
        shape), one input row per index of V's first `lead` axes: shape
        V.shape[:lead] + (in_dim,).  Values meet in V's C order."""
        rows = V.shape[:lead]
        size = int(np.prod(rows))
        base = np.arange(0, size * self.in_dim, self.in_dim).reshape(rows + (1,) * (V.ndim - lead))
        flat = np.broadcast_to(base + cols, V.shape)
        return np.bincount(flat.ravel(), V.ravel(), size * self.in_dim).reshape(rows + (self.in_dim,))


@functools.lru_cache(maxsize=32)
def _pool_geometry(regions: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (K, R) padded index matrix of the regions and the (K, R)
    averaging weights, 1/len(region) on real entries and 0 on padding."""
    r_max = max(len(r) for r in regions)
    idx = np.array([list(r) + [r[-1]] * (r_max - len(r)) for r in regions], dtype=np.int64)
    sizes = np.fromiter(map(len, regions), np.int64, len(regions))[:, None]
    weights = (np.arange(r_max) < sizes) / sizes
    return _read_only(idx), _read_only(weights)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(eq=False)
class MaxPool(_Pool):
    """Max over explicit index regions of the flat input."""

    selector = True

    def forward(self, Z, beta=None, batch_stats=False):
        idx = self.padded_indices()
        s = Z.T[idx.T].T  # region-major (F-ordered), see maso
        if beta is not None:
            beta = check_beta(beta, len(self.regions), open_interval=True)
        out, sel = select(s, None if beta is None else beta.reshape(-1, 1))
        return out, {"idx": idx, "s": s, "beta": beta, ("codes" if beta is None else "T"): sel}

    def backward(self, cache, G):
        if "codes" in cache:
            return self.pull(cache, G), {}, None
        beta = cache["beta"]
        Gs, dbeta = select_backward(G, cache["s"], cache["T"], beta.reshape(-1, 1))
        return self._scatter(cache["idx"], Gs, 1), {}, dbeta.reshape(beta.shape)

    def pull(self, cache, G):
        # the transposed one-hot rows add G's columns onto the winners, which
        # overlapping regions can share
        return self._scatter(_per_row(self._winners(cache), G), G, G.ndim - 1)

    def near_boundary(self, cache, gap):
        # a tie of two exact zeros (relu-dead entries) passes no gradient
        # whichever wins, so only ties with a nonzero entry count
        s = cache["s"]
        if s.shape[-1] < 2:
            return False
        codes = cache["codes"][..., None]
        top = s.max(axis=-1)
        # the runner-up: the maximum once the winning entry is set aside
        runner = np.where(np.arange(s.shape[-1]) == codes, -np.inf, s).max(axis=-1)
        tied = top - runner < gap
        return bool(np.any(tied & ((top != 0) | (runner != 0))))

    def _winners(self, cache) -> np.ndarray:
        """(n, K) input index each region of a hard cache selected."""
        idx = cache["idx"]
        return idx[np.arange(idx.shape[0]), cache["codes"]]

    def pick(self, cache):
        # one-hot rows select rows exactly
        return self._winners(cache)[0], None, None

    @property
    def pieces(self) -> int:
        # region r of a unit is the indicator of its r-th (padded) index
        return self.padded_indices().shape[1]


@dataclass(eq=False)
class AvgPool(_Pool):
    """Mean over explicit index regions of the flat input; an index listed
    twice counts twice."""

    def forward(self, Z, beta=None, batch_stats=False):
        # the max pool's region-major gather; the repeated indices that pad
        # short regions get weight 0
        idx, weights = _pool_geometry(self.regions)
        return np.ascontiguousarray((weights * Z.T[idx.T].T).sum(axis=-1)), {}

    def pull(self, cache, G):
        idx, weights = _pool_geometry(self.regions)
        return self._scatter(idx, G[..., None] * weights, G.ndim - 1)

    def push(self, cache, A, b):
        # the forward's weighted gather, applied to A's rows; it sums a
        # region's rows in another order than the product with the
        # averaging matrix, so the two agree to rounding, not bit for bit
        idx, weights = _pool_geometry(self.regions)
        return np.einsum("kr,krm->km", weights, A[idx]), (weights * b[idx]).sum(axis=1)


@dataclass(eq=False)
class BatchNorm(Layer):
    """Per-feature normalization; at inference a fixed affine map.

    With batch_stats on and more than one row, forward normalizes by the
    batch's own mean and variance (training view); otherwise it applies
    the stored statistics folded into Z * scale + shift.  Sums over the
    rows (the statistics, the parameter gradients, `calibrate`) run on
    C-ordered arrays: numpy sums the columns of other layouts in another
    order, so the bits would depend on the layer before.
    """

    mean: Tensor
    var: Tensor
    scale: Tensor
    shift: Tensor
    epsilon: float = 1e-5

    def __post_init__(self):
        self.mean = as_tensor(self.mean, "batch-norm mean")
        self.var = as_tensor(self.var, "batch-norm var")
        self.scale = as_tensor(self.scale, "batch-norm scale")
        self.shift = as_tensor(self.shift, "batch-norm shift")
        self.epsilon = as_float(self.epsilon, "batch-norm epsilon")
        shapes = {self.mean.shape, self.var.shape, self.scale.shape, self.shift.shape}
        if len(shapes) != 1 or self.mean.ndim != 1:
            raise ShapeError("batch-norm fields must be equal-length vectors")
        if np.any(self.var + self.epsilon <= 0):
            raise DomainError("var + epsilon must be positive")

    def dims(self) -> tuple[int, int]:
        return self.mean.shape[0], self.mean.shape[0]

    def forward(self, Z, beta=None, batch_stats=False):
        if batch_stats and Z.shape[0] > 1:
            Z = np.ascontiguousarray(Z)
            Zc = Z - Z.mean(axis=0)
            denom = np.sqrt(Z.var(axis=0) + self.epsilon)
            xhat = Zc / denom
            return self.scale * xhat + self.shift, {"Zc": Zc, "xhat": xhat, "denom": denom}
        scale, shift = bn_fold_affine(self)
        return Z * scale + shift, {"Z": Z}

    def backward(self, cache, G):
        G = np.ascontiguousarray(G)
        batch = "Zc" in cache
        denom = cache["denom"] if batch else np.sqrt(self.var + self.epsilon)
        xhat = cache["xhat"] if batch else (cache["Z"] - self.mean) / denom
        grads = {"scale": np.sum(G * xhat, axis=0), "shift": G.sum(axis=0)}
        if not batch:
            return self.pull(cache, G), grads, None
        dxhat = G * self.scale
        n = G.shape[0]
        Zc = cache["Zc"]
        dvar = np.sum(dxhat * Zc, axis=0) * (-0.5) * denom**-3
        dmu = -np.sum(dxhat, axis=0) / denom  # Zc is centred: dvar's share of dmu is zero
        return dxhat / denom + dvar * 2.0 * Zc / n + dmu / n, grads, None

    def calibrate(self, Z):
        """Set mean and var to the biased statistics of the rows of Z."""
        Z = np.ascontiguousarray(Z)
        self.mean, self.var = Z.mean(axis=0), Z.var(axis=0)

    def pick(self, cache):
        return (None, *bn_fold_affine(self))

    def pull(self, cache, G):
        # the backward's grouping, so the inference-view gradient keeps its bits
        return G * self.scale / np.sqrt(self.var + self.epsilon)

    def selected_offset(self, cache):
        return bn_fold_affine(self)[1]

    def params(self) -> dict:
        return {"scale": self.scale, "shift": self.shift}


@dataclass(eq=False)
class SkipBlock(Layer):
    """Residual block z -> skip(z) + act(conv(z) + bias) + skip_bias.

    The skip path is a pure linear convolution; its own bias field must be
    zero so the block-level skip_bias is the only additive term.
    """

    conv: Conv
    activation: Activation
    skip: Conv
    skip_bias: Tensor
    selector = True
    pieces = 2  # the activation's two branches

    def __post_init__(self):
        parts = ((self.conv, Conv), (self.activation, Activation), (self.skip, Conv))
        for part, cls in parts:
            if not isinstance(part, cls):
                raise StructureError(
                    f"skip block part {type(part).__name__} is not a {cls.__name__}"
                )
        self.skip_bias = as_tensor(self.skip_bias, "skip bias")
        out_dim = self.conv.dims()[1]
        if self.activation.dim != out_dim:
            raise ShapeError("activation width must match conv output")
        if self.skip.dims()[1] != out_dim or self.skip.in_shape != self.conv.in_shape:
            raise ShapeError("skip path must map the block input to the block output")
        if np.any(self.skip.bias != 0.0):
            raise DomainError("skip convolution must be bias-free; use skip_bias")
        if self.skip_bias.shape != (out_dim,):
            raise ShapeError(f"skip_bias must have length {out_dim}")

    def dims(self) -> tuple[int, int]:
        return self.conv.dims()

    def forward(self, Z, beta=None, batch_stats=False):
        pre, conv_cache = self.conv.forward(Z)
        act, act_cache = self.activation.forward(pre, beta)
        skip, skip_cache = self.skip.forward(Z)
        cache = {"conv": conv_cache, "act": act_cache, "skip": skip_cache}
        # the activation's own array, so a write to the block's codes reaches it
        cache["codes"] = act_cache.get("codes")
        return skip + act + self.skip_bias, cache

    def backward(self, cache, G):
        Gpre, _, dbeta = self.activation.backward(cache["act"], G)
        Gconv, conv_grads, _ = self.conv.backward(cache["conv"], Gpre)
        Gskip, skip_grads, _ = self.skip.backward(cache["skip"], G)
        grads = {f"conv.{k}": g for k, g in conv_grads.items()}
        grads.update({"skip.filters": skip_grads["filters"], "skip_bias": G.sum(axis=0)})
        return Gconv + Gskip, grads, dbeta

    def near_boundary(self, cache, gap):
        return self.activation.near_boundary(cache["act"], gap)

    def pull(self, cache, G):
        Gpre = self.activation.pull(cache["act"], G)
        return self.conv.pull(cache["conv"], Gpre) + self.skip.pull(cache["skip"], G)

    def selected_offset(self, cache):
        s = self.activation.selected_slopes(cache["act"])
        return s * self.conv.bias_flat() + self.skip_bias

    def branches(self, cache) -> tuple[Tensor, Tensor, Tensor]:
        """(skip matrix, activation-branch matrix, offset) a one-row hard cache selected."""
        act, _ = self.activation.push(cache["act"], *self.conv.selected_affine(cache["conv"]))
        return self.skip.selected_affine(cache["skip"])[0], act, self.selected_offset(cache)[0]

    def selected_affine(self, cache):
        skip, act, b = self.branches(cache)
        return skip + act, b

    def params(self) -> dict:
        # the skip conv's bias is pinned at zero, so only its filters train
        params = {f"conv.{k}": v for k, v in self.conv.params().items()}
        params.update({"skip.filters": self.skip.filters, "skip_bias": self.skip_bias})
        return params


@dataclass(eq=False)
class Network:
    """Ordered layer chain acting on flattened inputs."""

    layers: list
    input_shape: tuple
    class_count: int

    def __post_init__(self):
        self.input_shape = tuple(as_ints(self.input_shape, "input_shape").tolist())
        self.class_count = as_int(self.class_count, "class_count")
        self.layers = list(self.layers)
        dim = int(np.prod(self.input_shape))
        dims = [dim]
        for i, layer in enumerate(self.layers):
            if not isinstance(layer, Layer):
                raise StructureError(f"unknown layer {type(layer).__name__}")
            need, out = layer.dims()
            if need != dim:
                raise ShapeError(f"layer {i} expects input dim {need}, chain gives {dim}")
            dim = out
            dims.append(dim)
        if dim != self.class_count:
            raise ShapeError(
                f"final layer emits {dim} values but class_count is {self.class_count}"
            )
        self.dims = tuple(dims)


# ---------------------------------------------------------------------------
# composing layer MASOs
# ---------------------------------------------------------------------------

def compose_layer_maso(linear: MasoParams, nonlinear: MasoParams) -> MasoParams:
    """Fold an affine map into the following MASO, giving one layer MASO.

    With the affine map z -> W z + b and MASO (As, Bs) on its output, the
    composition has slopes As @ W and offsets Bs + As b, so evaluating the
    single MASO equals running the two stages in sequence.
    """
    if linear.R != 1:
        raise ShapeError("linear stage must be a degenerate (R = 1) MASO")
    W = linear.A[:, 0, :]
    b = linear.B[:, 0]
    if nonlinear.D != W.shape[0]:
        raise ShapeError(
            f"nonlinear stage expects dim {nonlinear.D}, linear stage emits {W.shape[0]}"
        )
    A = np.einsum("krm,md->krd", nonlinear.A, W)
    B = nonlinear.B + nonlinear.A @ b
    return MasoParams(A, B)


# ---------------------------------------------------------------------------
# convolution lowering
# ---------------------------------------------------------------------------

def conv_out_shape(conv: Conv) -> tuple[int, int, int]:
    """(out_ch, H_out, W_out) of the convolution on its in_shape."""
    return _out_shape(*_geometry(conv))


def _geometry(conv: Conv) -> tuple:
    """The values the window index depends on: (filter shape, stride,
    padding, input shape), hashable."""
    return conv.filters.shape, tuple(conv.stride), conv.padding, tuple(conv.in_shape)


def _out_shape(fshape, stride, padding, input_shape) -> tuple[int, int, int]:
    c_in, h, w = input_shape
    c_out, c_f, kh, kw = fshape
    if c_f != c_in:
        raise ShapeError(f"input has {c_in} channels, filters expect {c_f}")
    sh, sw = stride
    if padding == "valid":
        if kh > h or kw > w:
            raise ShapeError(f"kernel {kh}x{kw} exceeds valid input {h}x{w}")
        return c_out, (h - kh) // sh + 1, (w - kw) // sw + 1
    # same-zero: output ceil(in/stride), kernel centered with left pad (k-1)//2
    return c_out, (h - 1) // sh + 1, (w - 1) // sw + 1


def _conv_windows(conv: Conv) -> tuple[np.ndarray, np.ndarray]:
    """The two gather indexes of the convolution, its one statement of
    the geometry.

    win (T, P): the input entry that output position p (of P = H_out *
    W_out) reads through filter tap t (of T = in_ch * kh * kw, in filter
    order), or in_dim where the tap falls on the zero border.  back (kh *
    kw, H * W): the output position that reads input location l through
    spatial tap t, the same for every channel, or P where none does.
    The forward, backward, pull and `conv_to_matrix` all read them.  They
    depend only on the geometry, so they are built once per geometry and
    shared read-only.
    """
    return _windows_for(*_geometry(conv))


@functools.lru_cache(maxsize=32)
def _windows_for(fshape, stride, padding, input_shape):
    # every (tap, output position) pair is placed at once on a broadcast grid
    c_in, h, w = input_shape
    _, h_out, w_out = _out_shape(fshape, stride, padding, input_shape)
    kh, kw = fshape[2], fshape[3]
    sh, sw = stride
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same-zero" else (0, 0)
    i, p, q, y, x = np.ix_(*(np.arange(n) for n in (c_in, kh, kw, h_out, w_out)))
    yy, xx = y * sh + p - ph, x * sw + q - pw
    inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    win = np.where(inside, (i * h + yy) * w + xx, c_in * h * w).reshape(c_in * kh * kw, h_out * w_out)
    tap, loc, pos, inside = np.broadcast_arrays(p * kw + q, yy * w + xx, y * w_out + x, inside)
    back = np.full((kh * kw, h * w), h_out * w_out)
    back[tap[inside], loc[inside]] = pos[inside]
    return _read_only(win), _read_only(back)


# gathered arrays hold at most about this many entries (2 MB) at once; the
# conv forward, backward and pull run over row chunks of that size
_GATHER_ENTRIES = 1 << 18


def _chunks(n: int, width: int):
    """Slices of range(n) for rows `width` gathered entries wide."""
    step = max(1, _GATHER_ENTRIES // max(width, 1))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def conv_to_matrix(conv: Conv, rows=None) -> Tensor:
    """Explicit (out_dim x in_dim) matrix M with conv(x) = M x + bias, or
    only its rows `rows` (integers in [0, out_dim)), in that order.

    The filter entries are scattered through the window index of
    `_conv_windows`, the one the forward, backward and pull gather
    through: filter o's tap t fills row o * P + p at column win[t, p].
    """
    win = _conv_windows(conv)[0]
    c_out, (T, P), d_in = conv.filters.shape[0], win.shape, conv.dims()[0]
    if rows is None:
        rows = np.arange(c_out * P)
    else:
        rows = as_ints(rows, "conv matrix row")
        if rows.ndim != 1 or rows.size and not 0 <= rows.min() <= rows.max() < c_out * P:
            raise DomainError(f"conv matrix rows must be a list of integers in [0, {c_out * P})")
    n = rows.shape[0]
    o, p = np.divmod(rows, P)
    cols = win[:, p]  # (T, n): the input entry each requested row reads through tap t
    # a tap on the zero border lands in one spare entry past the matrix
    flat = np.where(cols < d_in, np.arange(n) * d_in + cols, n * d_in)
    M = np.zeros(n * d_in + 1)
    M[flat] = conv.filters.reshape(c_out, T)[o].T
    return M[:-1].reshape(n, d_in)


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------

def prefix_length(net: Network, upto) -> int:
    """The number of layers the prefix `upto` runs (all when None); any
    value but an integer in [0, depth] raises."""
    if upto is None:
        return len(net.layers)
    upto = as_int(upto, "layer prefix")
    if not 0 <= upto <= len(net.layers):
        raise ShapeError(f"layer prefix {upto} out of range for {len(net.layers)} layers")
    return upto


def network_forward_batch(net: Network, X: Tensor, upto=None, betas=None, batch_stats=False):
    """Forward of a batch through the first `upto` layers (all when None):
    (n, D) -> ((n, out), one cache per layer run).

    The one loop that runs a network's layers.  Layer i gets beta
    betas.get(i) (hard selection when absent, the inference forward) and
    batch_stats; a key of betas that is not the index of a selector among
    the layers run raises DomainError.  A selector's hard cache holds its
    (n, K) codes under "codes": uint8 on/off bits for an activation (a skip
    block's activation speaks for the block), int64 window positions for a
    max pool.
    """
    Z = as_tensor(X, "batch")
    if Z.ndim != 2 or Z.shape[1] != net.dims[0]:
        raise ShapeError(f"batch shape {Z.shape} does not match input dim {net.dims[0]}")
    upto = prefix_length(net, upto)
    betas = betas or {}
    if betas:
        run = {i for i, layer in enumerate(net.layers[:upto]) if layer.selector}
        stray = [key for key in betas if key not in run]
        if stray:
            raise DomainError(f"layer {stray[0]!r} does not select among the {upto} layers run "
                              "and takes no beta")
    caches = []
    for i, layer in enumerate(net.layers[:upto]):
        Z, cache = layer.forward(Z, betas.get(i), batch_stats)
        caches.append(cache)
    return Z, caches


def network_forward(net: Network, x: Tensor):
    """Single-input hard forward: logits and each layer's cached code row.

    Entries are None for purely affine layers, which select nothing.  This
    is a one-row batch, and a one-row `Z @ W.T` may round differently from
    the same row inside a larger batch, so an input within that rounding
    of a region boundary can get other codes here than in a batched scan
    (see `analysis`).
    """
    logits, caches = network_forward_batch(net, np.reshape(x, (1, -1)))
    return logits[0], [c["codes"][0] if layer.selector else None for layer, c in zip(net.layers, caches)]


def bn_fold_affine(bn: BatchNorm) -> tuple[Tensor, Tensor]:
    """Inference-time batch-norm as (diagonal scale, shift)."""
    denom = np.sqrt(bn.var + bn.epsilon)
    scale = bn.scale / denom
    return scale, bn.shift - scale * bn.mean


# ---------------------------------------------------------------------------
# apodized patch reconstruction
# ---------------------------------------------------------------------------

def apodized_reconstruct(z: Tensor, patch_shape, window: Tensor) -> Tensor:
    """Sum windowed overlapping patches (unit stride) back into an image.

    Wherever the per-pixel coverage weight (sum of window values over all
    patches touching the pixel) equals 1, the reconstruction equals z; the
    full-coverage interior must have unit coverage within 1e-9 or the
    window is rejected.
    """
    z = as_tensor(z, "image")
    window = as_tensor(window, "window")
    ph, pw = _int_list(patch_shape, 2, "patch shape")
    if z.ndim != 2:
        raise ShapeError(f"expected a 2-D image, got shape {z.shape}")
    if window.shape != (ph, pw):
        raise ShapeError(f"window shape {window.shape} does not match patch {ph}x{pw}")
    if np.any(window < 0):
        raise WindowError("window entries must be nonnegative")
    h, w = z.shape
    if ph > h or pw > w:
        raise ShapeError("patch exceeds image")
    recon = np.zeros_like(z)
    coverage = np.zeros_like(z)
    for y in range(h - ph + 1):
        for x in range(w - pw + 1):
            recon[y : y + ph, x : x + pw] += window * z[y : y + ph, x : x + pw]
            coverage[y : y + ph, x : x + pw] += window
    inner = interior_mask((h, w), (ph, pw))
    if np.any(np.abs(coverage[inner] - 1.0) > 1e-9):
        worst = float(np.max(np.abs(coverage[inner] - 1.0)))
        raise WindowError(f"interior coverage deviates from 1 by {worst:.3e}")
    return recon


def _int_list(shape, n: int, field: str) -> list:
    """n integers, such as a (height, width) pair, checked by `as_ints`."""
    shape = as_ints(shape, field)
    if shape.shape != (n,):
        raise ShapeError(f"{field} must have {n} entries, got shape {shape.shape}")
    return shape.tolist()


def interior_mask(image_shape, patch_shape) -> np.ndarray:
    """Boolean mask of pixels touched by every offset of the sliding patch."""
    h, w = _int_list(image_shape, 2, "image shape")
    ph, pw = _int_list(patch_shape, 2, "patch shape")
    mask = np.zeros((h, w), dtype=bool)
    mask[ph - 1 : h - ph + 1, pw - 1 : w - pw + 1] = True
    return mask


def slope_nonnegativity(p: MasoParams) -> bool:
    """True iff every slope entry is nonnegative (the increasing-layer test)."""
    return bool(np.all(p.A >= 0.0))


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------

def pool_regions_2d(shape, window, stride=None):
    """Index regions of a (C, H, W) tensor pooled channelwise.

    Returns (regions, out_shape).  Windows are laid out at the given
    stride (defaults to the window, i.e. non-overlapping); partial windows
    at the border are dropped, matching 'valid' pooling.
    """
    c, h, w = _int_list(shape, 3, "pooled shape")
    wh, ww = _int_list(window, 2, "pooling window")
    sh, sw = (wh, ww) if stride is None else _int_list(stride, 2, "pooling stride")
    if min(wh, ww, sh, sw) < 1:
        raise DomainError("pooling window and stride must be positive")
    if wh > h or ww > w:
        raise DomainError("pooling window exceeds input")
    h_out = (h - wh) // sh + 1
    w_out = (w - ww) // sw + 1
    ch, y, x, p, q = np.ix_(*(np.arange(n) for n in (c, h_out, w_out, wh, ww)))
    flat = ((ch * h + y * sh + p) * w + x * sw + q).reshape(c * h_out * w_out, wh * ww)
    return tuple(map(tuple, flat.tolist())), (c, h_out, w_out)


def make_mlp(dims, kind: str = "relu", nu: float = 0.01, seed: int = 0) -> Network:
    """Fully connected net with the given widths and a final linear layer.

    Weights are Gaussian with scale 1/sqrt(fan-in), biases zero; each
    hidden affine layer is followed by the chosen activation.
    """
    dims = as_ints(dims, "mlp width").tolist()
    if len(dims) < 2:
        raise DomainError("need at least input and output widths")
    rng = np.random.default_rng(as_seed(seed, "mlp seed"))
    layers: list = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        W = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append(Dense(W, np.zeros(fan_out)))
        if i < len(dims) - 2:
            layers.append(Activation(kind, fan_out, nu))
    return Network(layers, (dims[0],), dims[-1])
