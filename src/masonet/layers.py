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
inference forward), the matching backward, the affine map a one-row hard
forward selected, its MASO form, its trainable arrays and its JSON form.
Selection is `maso.select` (and its backward), except the activation's
hard forward, whose z > 0 test gives the same codes.  A region is chosen
only in the forward: the hard backward, the selected affine map and the
decomposition step all read the codes of the forward's cache, so the
training, partition and decomposition views of an input agree.  The
MASO form, selected by `maso.select` from its own scores, picks the same
regions (exact ties of a skip block's pre-activation aside).
Convolution is applied through its explicit matrix form, lowered afresh
from the current filters on every use, so the matrix route and the
forward route are the same arithmetic and no lowered copy can go stale.
Its geometry is stated once, as the tap index `_conv_taps` that both the
lowering and the filter gradient read; pooling arrays are built from one
padded index matrix.  Index arrays that depend only on geometry are
computed once per shape and shared read-only; the lowering still
scatters the current filter values on every call.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .maso import HardSelection, MasoParams, select, select_backward
from .ndcore import (
    DomainError,
    ShapeError,
    StructureError,
    Tensor,
    WindowError,
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
    "layer_forward_hard",
    "push_affine",
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
    kinds ignore beta.  The defaults, hard selection without batch
    statistics, are the inference forward; a selector's hard cache holds
    its (n, K) region codes under "codes", which is how its backward tells
    the hard cache from the soft one.  backward(cache, G) returns
    (G w.r.t. the input, parameter gradients keyed like params(),
    d loss / d beta or None).  selected_affine(cache) is the (A, b) the
    layer applied in the hard forward of one row that left the cache, and
    push(cache, A, b) composes it after a running affine map (see
    push_affine); dims() is (input width, output width).  as_maso() is
    the MASO whose hard forward is the inference forward: one region per
    unit for the affine kinds, whose default reads the map a forward of
    the zero row applied.
    The JSON form is the "kind" tag followed by the dataclass fields in
    order.
    """

    tag = ""  # the JSON "kind"
    selector = False  # picks a region per unit: has codes and a beta
    _json_names: dict = {}  # field -> JSON key, where the two differ

    def params(self) -> dict:
        """Trainable arrays keyed by field name."""
        return {}

    def push(self, cache, A, b):
        """(Asel A, Asel b + bsel) for the (Asel, bsel) the hard cache selected."""
        Asel, bsel = self.selected_affine(cache)
        return Asel @ A, Asel @ b + bsel

    def as_maso(self) -> MasoParams:
        A, b = self.selected_affine(self.forward(np.zeros((1, self.dims()[0])))[1])
        return MasoParams(A[:, None, :], b[:, None])

    def near_boundary(self, cache: dict, gap: float) -> bool:
        """Does a hard-mode cache hold a unit within gap of a region tie?"""
        return False

    def to_json(self) -> dict:
        doc = {"kind": self.tag}
        for f in fields(self):
            doc[self._json_names.get(f.name, f.name)] = _json_value(getattr(self, f.name))
        return doc

    @classmethod
    def from_json(cls, doc: dict):
        """Inverse of to_json; nested layers arrive already decoded."""
        args = {}
        for f in fields(cls):
            key = cls._json_names.get(f.name, f.name)
            if key in doc:
                args[f.name] = doc[key]
            elif f.default is MISSING:
                raise KeyError(key)
        return cls(**args)


def _json_value(v):
    if isinstance(v, Layer):
        return v.to_json()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, tuple):
        return [_json_value(e) for e in v]
    return v


@dataclass(eq=False)
class Dense(Layer):
    """Fully connected affine map z -> W z + b."""

    W: Tensor
    b: Tensor
    tag = "dense"

    def __post_init__(self):
        self.W = as_tensor(self.W)
        self.b = as_tensor(self.b)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ShapeError(f"dense shapes disagree: W {self.W.shape}, b {self.b.shape}")

    def dims(self) -> tuple[int, int]:
        return self.W.shape[1], self.W.shape[0]

    def forward(self, Z, beta=None, batch_stats=False):
        return Z @ self.W.T + self.b, {"Z": Z}

    def backward(self, cache, G):
        return G @ self.W, {"W": G.T @ cache["Z"], "b": G.sum(axis=0)}, None

    def selected_affine(self, cache):
        return self.W.copy(), self.b.copy()

    def params(self) -> dict:
        return {"W": self.W, "b": self.b}


@dataclass(eq=False)
class Conv(Layer):
    """2-D convolution, stride pair, 'valid' or zero-padded 'same' boundary.

    filters: (out_ch, in_ch, kh, kw); bias: per-out-channel.  in_shape is
    the (C, H, W) the layer expects.  matrix() lowers the current filters
    on every call; a forward keeps its lowered matrix in the cache for the
    backward of the same step, which gathers the filter gradient through
    the same tap index the lowering scatters the filters with.
    """

    filters: Tensor
    bias: Tensor
    stride: tuple[int, int]
    padding: str
    in_shape: tuple[int, int, int]
    tag = "conv"

    def __post_init__(self):
        self.filters = as_tensor(self.filters)
        self.bias = as_tensor(self.bias)
        if self.filters.ndim != 4:
            raise ShapeError(f"filters must be 4-D, got shape {self.filters.shape}")
        if self.bias.shape != (self.filters.shape[0],):
            raise ShapeError("bias must have one entry per output channel")
        self.stride = (int(self.stride[0]), int(self.stride[1]))
        if self.stride[0] < 1 or self.stride[1] < 1:
            raise DomainError(f"stride must be positive, got {self.stride}")
        if self.padding not in ("valid", "same-zero"):
            raise DomainError(f"unknown padding {self.padding!r}")
        self.in_shape = tuple(int(s) for s in self.in_shape)
        if len(self.in_shape) != 3 or self.in_shape[0] != self.filters.shape[1]:
            raise ShapeError(
                f"in_shape {self.in_shape} incompatible with filters {self.filters.shape}"
            )
        # raises on impossible geometry (kernel larger than 'valid' input)
        conv_out_shape(self, self.in_shape)

    def matrix(self) -> Tensor:
        return conv_to_matrix(self, self.in_shape)

    def bias_flat(self) -> Tensor:
        _, ho, wo = conv_out_shape(self, self.in_shape)
        return np.repeat(self.bias, ho * wo)

    def dims(self) -> tuple[int, int]:
        return int(np.prod(self.in_shape)), int(np.prod(conv_out_shape(self, self.in_shape)))

    def forward(self, Z, beta=None, batch_stats=False):
        M = self.matrix()
        return Z @ M.T + self.bias_flat(), {"Z": Z, "M": M}

    def backward(self, cache, G):
        """Input gradient through the lowered matrix; each filter entry's
        gradient sums d loss / d M = G^T Z over the entries its taps fill."""
        rows, cols, taps = _conv_taps(self, self.in_shape)
        dM = G.T @ cache["Z"]
        dfil = np.bincount(taps, weights=dM[rows, cols], minlength=self.filters.size)
        c_out = self.bias.shape[0]
        dbias = G.reshape(G.shape[0], c_out, G.shape[1] // c_out).sum(axis=(0, 2))
        return G @ cache["M"], {"filters": dfil.reshape(self.filters.shape), "bias": dbias}, None

    def selected_affine(self, cache):
        return cache["M"], self.bias_flat()

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
    """Elementwise two-region nonlinearity: relu, lrelu(nu) or abs."""

    kind: str
    dim: int
    nu: float = 0.01
    tag = "activation"
    selector = True
    _json_names = {"kind": "activation"}

    def __post_init__(self):
        self.dim = int(self.dim)
        self.nu = float(self.nu)
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
        s = np.stack([lo * Z, hi * Z], axis=-1)
        out, T = select(s, beta)
        return out, {"s": s, "T": T, "beta": beta}

    def backward(self, cache, G):
        if "codes" in cache:
            return G * self.selected_slopes(cache), {}, None
        lo, hi = self.slopes()
        Gs, dbeta = select_backward(G, cache["s"], cache["T"], cache["beta"])
        return Gs[..., 0] * lo + Gs[..., 1] * hi, {}, dbeta

    def near_boundary(self, cache, gap):
        return bool(np.any(np.abs(cache["Z"]) < gap))

    def selected_slopes(self, cache) -> Tensor:
        """(n, dim) slope of the region each unit of a hard cache selected."""
        lo, hi = self.slopes()
        return np.where(cache["codes"] == 1, hi, lo)

    def selected_affine(self, cache):
        return np.diag(self.selected_slopes(cache)[0]), np.zeros(self.dim)

    def as_maso(self) -> MasoParams:
        """R = 2: unit k has rows lo e_k and hi e_k; region 0 is the inactive branch."""
        lo, hi = self.slopes()
        A = np.zeros((self.dim, 2, self.dim))
        idx = np.arange(self.dim)
        A[idx, 0, idx] = lo
        A[idx, 1, idx] = hi
        return MasoParams(A, np.zeros((self.dim, 2)))

    def push(self, cache, A, b):
        # diag(s) @ A has one nonzero term per entry, so scaling rows is exact
        s = self.selected_slopes(cache)[0]
        return s[:, None] * A, s * b


@dataclass(eq=False)
class _Pool(Layer):
    """Explicit index regions of the flat input, one output per region."""

    regions: tuple
    in_dim: int

    def __post_init__(self):
        self.in_dim = int(self.in_dim)
        regs = tuple(tuple(int(i) for i in r) for r in self.regions)
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

    tag = "maxpool"
    selector = True

    def forward(self, Z, beta=None, batch_stats=False):
        idx = self.padded_indices()
        s = Z[:, idx]
        out, sel = select(s, beta)
        return out, {"idx": idx, "s": s, "beta": beta, ("codes" if beta is None else "T"): sel}

    def backward(self, cache, G):
        if "codes" in cache:
            return self._scatter(self._winners(cache), G), {}, None
        Gs, dbeta = select_backward(G, cache["s"], cache["T"], cache["beta"])
        return self._scatter(cache["idx"], Gs), {}, dbeta

    def _scatter(self, cols, V):
        """(n, in_dim) sums of the values V (n, ...) at the input indices cols."""
        n = V.shape[0]
        Gin = np.zeros((n, self.in_dim))
        np.add.at(Gin, (np.arange(n).reshape((n,) + (1,) * (V.ndim - 1)), cols), V)
        return Gin

    def near_boundary(self, cache, gap):
        # a tie of two exact zeros (relu-dead entries) passes no gradient
        # whichever wins, so only ties with a nonzero entry count
        s = cache["s"]
        if s.shape[-1] < 2:
            return False
        top2 = np.sort(s, axis=-1)[..., -2:]
        tied = top2[..., 1] - top2[..., 0] < gap
        return bool(np.any(tied & np.any(top2 != 0, axis=-1)))

    def _winners(self, cache) -> np.ndarray:
        """(n, K) input index each region of a hard cache selected."""
        idx = cache["idx"]
        return idx[np.arange(idx.shape[0]), cache["codes"]]

    def selected_affine(self, cache):
        w = self._winners(cache)[0]
        A = np.zeros((w.shape[0], self.in_dim))
        A[np.arange(w.shape[0]), w] = 1.0
        return A, np.zeros(w.shape[0])

    def push(self, cache, A, b):
        # one-hot rows select rows exactly
        w = self._winners(cache)[0]
        return A[w], b[w]

    def as_maso(self) -> MasoParams:
        """R = the largest region: row r of unit k is the indicator of the
        region's r-th index (short regions repeat their last index)."""
        idx = self.padded_indices()
        K, R = idx.shape
        A = np.zeros((K, R, self.in_dim))
        A[np.arange(K)[:, None], np.arange(R), idx] = 1.0
        return MasoParams(A, np.zeros((K, R)))


@dataclass(eq=False)
class AvgPool(_Pool):
    """Mean over explicit index regions of the flat input."""

    tag = "avgpool"

    def matrix(self) -> Tensor:
        """Fresh (K, in_dim) averaging matrix; an index listed twice counts twice."""
        idx, weights = _pool_geometry(self.regions)
        P = np.zeros((idx.shape[0], self.in_dim))
        # the repeated indices that pad short regions add zero weight
        np.add.at(P, (np.arange(idx.shape[0])[:, None], idx), weights)
        return P

    def forward(self, Z, beta=None, batch_stats=False):
        P = self.matrix()
        return Z @ P.T, {"P": P}

    def backward(self, cache, G):
        return G @ cache["P"], {}, None

    def selected_affine(self, cache):
        P = cache["P"]
        return P, np.zeros(P.shape[0])


@dataclass(eq=False)
class BatchNorm(Layer):
    """Per-feature normalization; at inference a fixed affine map.

    With batch_stats on and more than one row, forward normalizes by the
    batch's own mean and variance (training view); otherwise it applies
    the stored statistics folded into Z * scale + shift.
    """

    mean: Tensor
    var: Tensor
    scale: Tensor
    shift: Tensor
    epsilon: float = 1e-5
    tag = "batchnorm"

    def __post_init__(self):
        self.mean = as_tensor(self.mean)
        self.var = as_tensor(self.var)
        self.scale = as_tensor(self.scale)
        self.shift = as_tensor(self.shift)
        self.epsilon = float(self.epsilon)
        shapes = {self.mean.shape, self.var.shape, self.scale.shape, self.shift.shape}
        if len(shapes) != 1 or self.mean.ndim != 1:
            raise ShapeError("batch-norm fields must be equal-length vectors")
        if np.any(self.var + self.epsilon <= 0):
            raise DomainError("var + epsilon must be positive")

    def dims(self) -> tuple[int, int]:
        return self.mean.shape[0], self.mean.shape[0]

    def forward(self, Z, beta=None, batch_stats=False):
        if batch_stats and Z.shape[0] > 1:
            Zc = Z - Z.mean(axis=0)
            denom = np.sqrt(Z.var(axis=0) + self.epsilon)
            xhat = Zc / denom
            return self.scale * xhat + self.shift, {"Zc": Zc, "xhat": xhat, "denom": denom}
        scale, shift = bn_fold_affine(self)
        return Z * scale + shift, {"Z": Z}

    def backward(self, cache, G):
        batch = "Zc" in cache
        denom = cache["denom"] if batch else np.sqrt(self.var + self.epsilon)
        xhat = cache["xhat"] if batch else (cache["Z"] - self.mean) / denom
        grads = {"scale": np.sum(G * xhat, axis=0), "shift": G.sum(axis=0)}
        dxhat = G * self.scale
        if not batch:
            return dxhat / denom, grads, None
        n = G.shape[0]
        Zc = cache["Zc"]
        dvar = np.sum(dxhat * Zc, axis=0) * (-0.5) * denom**-3
        dmu = -np.sum(dxhat, axis=0) / denom + dvar * (-2.0 / n) * Zc.sum(axis=0)
        return dxhat / denom + dvar * 2.0 * Zc / n + dmu / n, grads, None

    def selected_affine(self, cache):
        scale, shift = bn_fold_affine(self)
        return np.diag(scale), shift

    def push(self, cache, A, b):
        scale, shift = bn_fold_affine(self)
        return scale[:, None] * A, scale * b + shift

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
    tag = "skip"
    selector = True

    def __post_init__(self):
        parts = ((self.conv, Conv), (self.activation, Activation), (self.skip, Conv))
        for part, cls in parts:
            if not isinstance(part, cls):
                raise StructureError(
                    f"skip block part {type(part).__name__} is not a {cls.__name__}"
                )
        self.skip_bias = as_tensor(self.skip_bias)
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

    def branches(self, cache) -> tuple[Tensor, Tensor, Tensor]:
        """(skip matrix, activation-branch matrix, offset) a one-row hard cache selected."""
        s = self.activation.selected_slopes(cache["act"])[0]
        act = s[:, None] * cache["conv"]["M"]
        return cache["skip"]["M"], act, s * self.conv.bias_flat() + self.skip_bias

    def selected_affine(self, cache):
        skip, act, b = self.branches(cache)
        return skip + act, b

    def as_maso(self) -> MasoParams:
        """R = 2: each row is the skip row plus lo (inactive) or hi (active)
        times the conv row; each offset is skip_bias plus that slope times
        the conv bias."""
        slopes = np.array(self.activation.slopes())
        skip, conv = self.skip.as_maso(), self.conv.as_maso()
        A = skip.A + slopes[:, None] * conv.A
        return MasoParams(A, self.skip_bias[:, None] + slopes * conv.B)

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
        self.input_shape = tuple(int(s) for s in self.input_shape)
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

def conv_out_shape(conv: Conv, input_shape) -> tuple[int, int, int]:
    """(out_ch, H_out, W_out) for the given input geometry."""
    return _out_shape(*_geometry(conv, input_shape))


def _geometry(conv: Conv, input_shape) -> tuple:
    """The values a lowering's index depends on: (filter shape, stride,
    padding, input shape), hashable."""
    return (
        conv.filters.shape,
        tuple(conv.stride),
        conv.padding,
        tuple(int(s) for s in input_shape),
    )


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


def _conv_taps(conv: Conv, input_shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tap index of the lowering: (rows, cols, taps), one entry per tap.

    Entry j says output rows[j] reads input entry cols[j] through filter
    entry taps[j] (an index into filters.ravel()).  Taps that fall on the
    zero border under 'same-zero' padding read nothing and have no entry;
    no two taps of one output read the same input entry.  The index
    depends only on the geometry, so it is built once per geometry and
    the arrays are shared read-only.
    """
    return _taps_for(*_geometry(conv, input_shape))


@functools.lru_cache(maxsize=32)
def _taps_for(fshape, stride, padding, input_shape):
    # every (output, channel, tap) triple is placed at once on a broadcast grid
    c_in, h, w = input_shape
    c_out, h_out, w_out = _out_shape(fshape, stride, padding, input_shape)
    kh, kw = fshape[2], fshape[3]
    sh, sw = stride
    ph, pw = ((kh - 1) // 2, (kw - 1) // 2) if padding == "same-zero" else (0, 0)
    o, y, x, i, p, q = np.ix_(*(np.arange(n) for n in (c_out, h_out, w_out, c_in, kh, kw)))
    yy, xx = y * sh + p - ph, x * sw + q - pw
    inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
    rows, cols, taps, inside = np.broadcast_arrays(
        (o * h_out + y) * w_out + x, (i * h + yy) * w + xx, ((o * c_in + i) * kh + p) * kw + q, inside
    )
    return _read_only(rows[inside]), _read_only(cols[inside]), _read_only(taps[inside])


def conv_to_matrix(conv: Conv, input_shape) -> Tensor:
    """Explicit (out_dim x in_dim) matrix M with conv(x) = M x + bias.

    The filter entries are scattered through the tap index `_conv_taps`,
    which `Conv.backward` reads too, so the geometry is stated once.
    """
    rows, cols, taps = _conv_taps(conv, input_shape)
    M = np.zeros((int(np.prod(conv_out_shape(conv, input_shape))), int(np.prod(input_shape))))
    M[rows, cols] = conv.filters.ravel()[taps]
    return M


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------

def layer_forward_hard(layer: Layer, Z: Tensor):
    """Batched hard forward: (n, in) -> ((n, out), codes or None).

    codes is an (n, K) array for layers that select a region (the
    activation inside a skip block speaks for the block): uint8 on/off
    bits for an activation, int64 window positions for a max pool.
    Affine layers return None.
    """
    out, cache = layer.forward(Z)
    return out, cache.get("codes")


def network_forward_batch(net: Network, X: Tensor):
    """Hard forward of many inputs: (n, D) -> ((n, C), per-layer codes)."""
    Z = as_tensor(X)
    if Z.ndim != 2 or Z.shape[1] != net.dims[0]:
        raise ShapeError(f"batch shape {Z.shape} does not match input dim {net.dims[0]}")
    codes_per_layer = []
    for layer in net.layers:
        Z, codes = layer_forward_hard(layer, Z)
        codes_per_layer.append(codes)
    return Z, codes_per_layer


def network_forward(net: Network, x: Tensor):
    """Single-input hard forward: logits and one HardSelection per layer.

    Entries are None for purely affine layers, which select nothing.
    """
    x = as_tensor(x)
    flat = x.reshape(-1)
    if flat.shape[0] != net.dims[0]:
        raise ShapeError(f"input has {flat.shape[0]} entries, expected {net.dims[0]}")
    logits, codes = network_forward_batch(net, flat[None, :])
    sels = [None if c is None else HardSelection(c[0]) for c in codes]
    return logits[0], sels


def bn_fold_affine(bn: BatchNorm) -> tuple[Tensor, Tensor]:
    """Inference-time batch-norm as (diagonal scale, shift)."""
    denom = np.sqrt(bn.var + bn.epsilon)
    scale = bn.scale / denom
    return scale, bn.shift - scale * bn.mean


def push_affine(layer: Layer, cache: dict, A: Tensor | None = None, b: Tensor | None = None):
    """One step of an exact decomposition walk: (A', b').

    (A, b) is the affine map of the layers before this one and cache the
    layer's hard cache from a forward of one row.  With (Asel, bsel) the
    map that forward selected (selected_affine), A' = Asel A and
    b' = Asel b + bsel.  A = None stands for the identity: the layer's
    own (Asel, bsel) come back as they are.  Activations and batch norm
    scale A's rows and max pooling gathers them, in place of a product
    with a diagonal or one-hot matrix; the results equal the product
    entry for entry.
    """
    if A is None:
        return layer.selected_affine(cache)
    return layer.push(cache, A, b)


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
    z = as_tensor(z)
    window = as_tensor(window)
    ph, pw = (int(s) for s in patch_shape)
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


def interior_mask(image_shape, patch_shape) -> np.ndarray:
    """Boolean mask of pixels touched by every offset of the sliding patch."""
    h, w = (int(s) for s in image_shape)
    ph, pw = (int(s) for s in patch_shape)
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
    c, h, w = (int(s) for s in shape)
    wh, ww = (int(s) for s in window)
    sh, sw = (wh, ww) if stride is None else (int(stride[0]), int(stride[1]))
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
    dims = [int(d) for d in dims]
    if len(dims) < 2:
        raise DomainError("need at least input and output widths")
    rng = np.random.default_rng(seed)
    layers: list = []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        W = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append(Dense(W, np.zeros(fan_out)))
        if i < len(dims) - 2:
            layers.append(Activation(kind, fan_out, nu))
    return Network(layers, (dims[0],), dims[-1])
