"""Independent numpy references the workload checks compare against.

Nothing here calls masonet code: layers are read field by field and
evaluated with plain numpy (convolutions by sliding windows, not by the
lowered matrix), so a fault in the package's own arithmetic shows up as a
disagreement instead of being reproduced.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_ACT_SLOPES = {"relu": (0.0, 1.0), "abs": (-1.0, 1.0)}


def _slopes(act) -> tuple[float, float]:
    return (act.nu, 1.0) if act.kind == "lrelu" else _ACT_SLOPES[act.kind]


def _conv(conv, Z: np.ndarray, bias: bool = True) -> np.ndarray:
    c, h, w = conv.in_shape
    F = conv.filters
    kh, kw = F.shape[2], F.shape[3]
    sh, sw = conv.stride
    img = Z.reshape(-1, c, h, w)
    if conv.padding == "valid":
        ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
    else:
        ho, wo = (h - 1) // sh + 1, (w - 1) // sw + 1
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
        extra_h = max(0, (ho - 1) * sh + kh - h - ph)
        extra_w = max(0, (wo - 1) * sw + kw - w - pw)
        img = np.pad(img, ((0, 0), (0, 0), (ph, extra_h), (pw, extra_w)))
    win = sliding_window_view(img, (kh, kw), axis=(2, 3))[:, :, ::sh, ::sw][:, :, :ho, :wo]
    n = img.shape[0]
    # im2col: one row per (image, y, x) holding its (c, p, q) window
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    out = (cols @ F.reshape(F.shape[0], -1).T).reshape(n, ho, wo, -1).transpose(0, 3, 1, 2)
    if bias:
        out = out + conv.bias[None, :, None, None]
    return out.reshape(n, -1)


def _regions(pool) -> np.ndarray:
    width = max(len(r) for r in pool.regions)
    return np.array([list(r) + [r[-1]] * (width - len(r)) for r in pool.regions])


def _bn_scale(bn) -> np.ndarray:
    return bn.scale / np.sqrt(bn.var + bn.epsilon)


def _layer(layer, Z: np.ndarray):
    """(output, codes or None) of one layer on a batch."""
    kind = type(layer).__name__
    if kind == "Dense":
        return Z @ layer.W.T + layer.b, None
    if kind == "Conv":
        return _conv(layer, Z), None
    if kind == "Activation":
        lo, hi = _slopes(layer)
        on = Z > 0
        return np.where(on, hi * Z, lo * Z), on.astype(np.int64)
    if kind == "MaxPool":
        g = Z[:, _regions(layer)]
        return g.max(axis=2), np.argmax(g, axis=2)
    if kind == "AvgPool":
        return np.stack([Z[:, list(r)].mean(axis=1) for r in layer.regions], axis=1), None
    if kind == "BatchNorm":
        return (Z - layer.mean) * _bn_scale(layer) + layer.shift, None
    if kind == "SkipBlock":
        act, codes = _layer(layer.activation, _conv(layer.conv, Z))
        return _conv(layer.skip, Z, bias=False) + act + layer.skip_bias, codes
    raise TypeError(f"no reference for layer kind {kind}")


def forward(net, X: np.ndarray, prefix: int | None = None):
    """Outputs of the first `prefix` layers and their per-layer codes."""
    Z = np.asarray(X, dtype=np.float64)
    codes = []
    for layer in net.layers[:prefix]:
        Z, c = _layer(layer, Z)
        codes.append(c)
    return Z, codes


def code_matrix(net, X: np.ndarray, prefix: int) -> np.ndarray:
    """Selector codes of the first `prefix` layers, one row per input."""
    _, codes = forward(net, X, prefix)
    kept = [c for c in codes if c is not None]
    if not kept:
        return np.zeros((len(X), 0), dtype=np.int64)
    return np.concatenate(kept, axis=1)


def _linear(layer, E: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Apply the layer's selected linear part at input z to the rows of E."""
    kind = type(layer).__name__
    if kind == "Dense":
        return E @ layer.W.T
    if kind == "Conv":
        return _conv(layer, E, bias=False)
    if kind == "Activation":
        lo, hi = _slopes(layer)
        return E * np.where(z > 0, hi, lo)
    if kind == "MaxPool":
        idx = _regions(layer)
        winners = idx[np.arange(idx.shape[0]), np.argmax(z[idx], axis=1)]
        return E[:, winners]
    if kind == "AvgPool":
        return np.stack([E[:, list(r)].mean(axis=1) for r in layer.regions], axis=1)
    if kind == "BatchNorm":
        return E * _bn_scale(layer)
    if kind == "SkipBlock":
        pre = _conv(layer.conv, z[None, :])[0]
        inner = _linear(layer.activation, _conv(layer.conv, E, bias=False), pre)
        return _conv(layer.skip, E, bias=False) + inner
    raise TypeError(f"no reference for layer kind {kind}")


def jacobians(net, x: np.ndarray) -> list[np.ndarray]:
    """Jacobian of every layer prefix at x: entry d is d(layers[:d+1])/dx.

    Propagates the identity through each layer's selected linear part,
    which for a piecewise-affine network is the exact prefix Jacobian.
    """
    z = np.asarray(x, dtype=np.float64).reshape(-1)
    E = np.eye(z.shape[0])
    out = []
    for layer in net.layers:
        E = _linear(layer, E, z)
        out.append(E.T)
        z = _layer(layer, z[None, :])[0][0]
    return out


def within_criterion_1(value: np.ndarray, reference: np.ndarray) -> bool:
    """max |value - reference| <= 1e-6 (1 + max |reference|)."""
    bound = 1e-6 * (1.0 + float(np.max(np.abs(reference))))
    return float(np.max(np.abs(np.asarray(value) - reference))) <= bound
