"""Max-affine spline operators and their three inference regimes.

A MASO maps z in R^D to K outputs, each the maximum of R affine functions:

    out[k] = max_r  <A[k,r,:], z> + B[k,r]

The winning index per unit is the hard VQ code.  Replacing the argmax with
a softmax over the R affine scores gives soft VQ; scaling the scores by
eta = beta/(1-beta) before the softmax interpolates between the uniform
selection (beta -> 0), soft VQ (beta = 1/2), and hard VQ (beta -> 1).

`select` defines the three regimes once, over the last axis of a batch of
`scores`; with its soft backward `select_backward` it is the whole
selection kernel.  `forward` and `region_prior` run it on a MASO, and the
max pool and the CLI call it directly.  A two-region softmax is a sigmoid
of the score gap, so the activation layers compute theirs in closed form
instead (see `layers`).  Everything here takes and returns plain arrays
over any leading batch shape: inputs (..., D), hard codes as int64
(..., K), a selection T as (..., K, R), and beta as one value or one per
unit.  Each function checks the array it takes: `scores` the input width,
`forward` beta, `selection_to_affine` the codes and `entropy_objective` T.

The kernel works on a copy of the scores with the region axis R
outermost in memory (none if it already is, as the max pool's gather
is): each region's slab is one contiguous block, so reductions over R
combine whole slabs instead of running one short reduction per unit, and
add the regions in index order, as numpy's sum over a trailing axis does
up to seven terms.  The T it returns keeps this layout.

Under the Gaussian-mixture reading of a unit, the prior mass of region r is
proportional to exp(B[k,r] + ||A[k,r,:]||^2 / 2), and when the offsets are
tied to the slopes by B = -||A||^2/2 the hard codes coincide with
nearest-centroid (K-means) assignment of z to the slope vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndcore import (
    AmbiguityError,
    DomainError,
    PreconditionError,
    ShapeError,
    Tensor,
    as_ints,
    as_tensor,
)

__all__ = [
    "MasoParams",
    "forward",
    "selection_to_affine",
    "entropy_objective",
    "region_prior",
    "kmeans_codes",
    "codes_from_offset_perturbation",
    "scores",
    "select",
    "select_backward",
    "check_beta",
]


@dataclass(frozen=True)
class MasoParams:
    """Slopes A (K x R x D) and offsets B (K x R) of one MASO.

    R = 1 is the degenerate case: an ordinary affine map.  Region index 0
    of two-region activation MASOs is the inactive/negative branch.
    """

    A: Tensor
    B: Tensor

    def __post_init__(self):
        A = as_tensor(self.A, "maso A")
        B = as_tensor(self.B, "maso B")
        if A.ndim != 3:
            raise ShapeError(f"A must be K x R x D, got shape {A.shape}")
        if B.shape != A.shape[:2]:
            raise ShapeError(f"B shape {B.shape} does not match A {A.shape[:2]}")
        if A.shape[1] < 1:
            raise ShapeError("R must be at least 1")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def R(self) -> int:
        return self.A.shape[1]

    @property
    def D(self) -> int:
        return self.A.shape[2]


def scores(p: MasoParams, z: Tensor) -> Tensor:
    """(..., K, R) affine scores <A[k,r,:], z> + B[k,r] of inputs z (..., D)."""
    z = _inputs(p, z)
    return (p.A @ z[..., None, :, None])[..., 0] + p.B


def select(s: Tensor, beta=None) -> tuple[Tensor, Tensor]:
    """(output, selection) over the last axis of scores s (..., R), R >= 1.

    Hard exactly when beta is None: the maximum and the region codes.  A
    tie goes to the lowest index, and a unit whose scores hold NaN gets
    its first NaN, as np.argmax does.  Otherwise the T-weighted score sum
    and T = softmax(eta s), eta = beta/(1-beta); beta may broadcast against
    s[..., :1], so K per-unit values of (..., K, R) scores come as a (K, 1)
    column.  For R = 2, T = (1 - t, t) with t = sigmoid(eta (s1 - s0)), the
    closed form `layers.Activation` uses.
    """
    s = _region_major(s)
    if beta is None:
        out = s.max(axis=-1)
        # np.argmax over a short axis is slow; instead each region slab that ties
        # the maximum gets the weight R-1-r, so the largest one marks the lowest r
        weights = np.arange(s.shape[-1] - 1, -1, -1, dtype=np.intp)
        return out, (s.shape[-1] - 1) - (((s == out[..., None]) | np.isnan(s)) * weights).max(axis=-1)
    m = _region_major(beta / (1.0 - beta) * s)
    T = m - m.max(axis=-1, keepdims=True)  # a fresh array, so the steps below work in place
    np.exp(T, out=T)
    T /= T.sum(axis=-1, keepdims=True)
    return np.sum(T * s, axis=-1), T


def select_backward(G: Tensor, s: Tensor, T: Tensor, beta) -> tuple[Tensor, Tensor]:
    """Backward of the soft `select`: (G pushed onto the scores s, d loss /
    d beta).  The beta derivative has beta's shape, summed over the units
    and rows beta is broadcast along.

    With c = s - out, the score gradient is G T (1 + eta c) and d out / d
    eta is E_T[c^2].  c is read as d - E_T[d] from the gaps d = s - max s,
    which are exact where scores are close, rather than from s itself.
    """
    s, T = _region_major(s), _region_major(T)
    eta = beta / (1.0 - beta)
    c = s - s.max(axis=-1, keepdims=True)
    c -= np.sum(T * c, axis=-1, keepdims=True)
    deta = _sum_to_shape((G * np.sum(T * c * c, axis=-1))[..., None], np.shape(beta))
    return G[..., None] * (T * (1.0 + eta * c)), deta / (1.0 - beta) ** 2


def _region_major(s) -> Tensor:
    """s as a float64 (..., R) array, R >= 1, with its last axis outermost
    in memory; no copy if it already is."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim < 2 or s.shape[-1] == 0:
        raise ShapeError(f"select expects an (..., R) array with R >= 1, got shape {s.shape}")
    if s.flags.f_contiguous:
        return s
    r = np.ascontiguousarray(s.transpose((s.ndim - 1, *range(s.ndim - 1))))  # (R, ...)
    return r.transpose((*range(1, r.ndim), 0))


def _sum_to_shape(a: Tensor, shape: tuple) -> Tensor:
    """a summed over the axes along which an array of shape broadcasts to a.shape."""
    lead = a.ndim - len(shape)
    a = a.sum(axis=tuple(range(lead)))
    return a.sum(axis=tuple(i for i, n in enumerate(shape) if n == 1), keepdims=True)


def forward(p: MasoParams, Z: Tensor, beta=None) -> tuple[Tensor, Tensor]:
    """The MASO on inputs Z (..., D): (out, codes) when beta is None, else
    (out, T), with out (..., K).

    This is `select` of the `scores`: codes are the int64 region indices
    (ties to the lowest), T the (..., K, R) selection softmax(eta s) and
    out its weighted score sum.  beta is one value or one per unit, inside
    the open interval (0, 1).
    """
    s = scores(p, Z)
    if beta is None:
        return select(s)
    return select(s, check_beta(beta, p.K, open_interval=True).reshape(-1, 1))


def selection_to_affine(p: MasoParams, codes) -> tuple[Tensor, Tensor]:
    """The affine map that hard codes (..., K) pick out: slopes (..., K, D)
    and offsets (..., K).

    Row k of the slopes is A[k, codes[k], :] and offset k is B[k, codes[k]].
    On the input that produced the codes, this map reproduces the hard
    output.  Codes are integers in [0, R), one per unit.
    """
    codes = as_ints(codes, "codes")
    if codes.shape[-1:] != (p.K,):
        raise ShapeError(f"codes of shape {codes.shape} for {p.K} units")
    bad = codes[(codes < 0) | (codes >= p.R)]
    if bad.size:
        raise DomainError(f"region code {bad[0]} out of range for R={p.R}")
    idx = np.arange(p.K)
    return p.A[idx, codes], p.B[idx, codes]


def entropy_objective(p: MasoParams, z: Tensor, T: Tensor, beta) -> Tensor:
    """Per-unit value (..., K) of beta * <T, scores> + (1 - beta) * H(T).

    z is (..., D) and T a (..., K, R) selection whose rows lie on the
    probability simplex; H is the natural-log entropy with 0*log 0 := 0.
    beta is one value or one per unit in the closed interval [0, 1]: the
    endpoints are meaningful for the objective (pure score / pure
    entropy) even though `forward` requires the open interval.
    """
    s = scores(p, z)
    T = as_tensor(T, "selection")
    if T.shape != s.shape:
        raise ShapeError(f"selection shape {T.shape} does not match the scores' {s.shape}")
    if T.size and (T.min() < -1e-12 or T.max() > 1 + 1e-12):
        raise DomainError("selection entries must lie in [0, 1]")
    if T.size and np.max(np.abs(T.sum(axis=-1) - 1.0)) > 1e-10:
        raise DomainError("selection rows must sum to 1 within 1e-10")
    beta = check_beta(beta, p.K, open_interval=False)
    fit = np.sum(T * s, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(T > 0.0, T * np.log(np.where(T > 0.0, T, 1.0)), 0.0)
    ent = -plogp.sum(axis=-1)
    return beta * fit + (1.0 - beta) * ent


def region_prior(p: MasoParams) -> Tensor:
    """Per-unit categorical prior pi[k,r] proportional to exp(B + ||A||^2/2):
    the soft selection of those masses, whose eta is exactly 1."""
    return select(p.B + 0.5 * np.sum(p.A * p.A, axis=2), 0.5)[1]


def kmeans_codes(p: MasoParams, z: Tensor) -> np.ndarray:
    """Nearest-centroid codes (..., K) of inputs z (..., D), valid when
    offsets satisfy B = -||A||^2/2.

    Under that bias condition the affine score ordering coincides with the
    negative squared distance ordering to the slope vectors, so the codes
    returned here equal the hard VQ codes.
    """
    z = _inputs(p, z)
    resid = p.B + 0.5 * np.sum(p.A * p.A, axis=2)
    if np.max(np.abs(resid)) > 1e-9:
        raise PreconditionError(
            "offsets deviate from -||A||^2/2 by "
            f"{np.max(np.abs(resid)):.3e}; the K-means reading does not apply"
        )
    d2 = np.sum((p.A - z[..., None, None, :]) ** 2, axis=-1)
    return np.argmin(d2, axis=-1)


def codes_from_offset_perturbation(p: MasoParams, z: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Identify the codes (..., K) of inputs z (..., D) by nudging one
    offset at a time.

    The active region of unit k is the unique r for which adding eps to
    B[k,r] moves output k by eps; offsets of losing regions leave the max
    untouched.  Requires every unit's top-two score gap to exceed 2*eps,
    otherwise the answer would depend on the nudge.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    s = scores(p, z)
    if p.R > 1 and s.size:
        top2 = np.sort(s, axis=-1)[..., -2:]
        gaps = top2[..., 1] - top2[..., 0]
        worst = np.unravel_index(np.argmin(gaps), gaps.shape)
        if gaps[worst] <= 2.0 * eps:
            raise AmbiguityError(
                f"unit {worst[-1]} sits within {gaps[worst]:.3e} of a region "
                f"boundary; need a score gap above {2.0 * eps:.3e}"
            )
    base = s.max(axis=-1)
    hits = np.empty(s.shape, dtype=bool)
    for r in range(p.R):
        bumped = s.copy()
        bumped[..., r] += eps
        hits[..., r] = np.abs(bumped.max(axis=-1) - base - eps) <= 1e-12 * np.maximum(1.0, np.abs(base))
    counts = hits.sum(axis=-1)
    if np.any(counts != 1):
        bad = np.unravel_index(np.argmax(counts != 1), counts.shape)
        raise AmbiguityError(f"unit {bad[-1]}: {counts[bad]} regions respond to the nudge")
    return np.argmax(hits, axis=-1)


def _inputs(p: MasoParams, z) -> Tensor:
    """z as a float64 (..., D) array of inputs to p."""
    z = as_tensor(z, "input")
    if z.ndim == 0 or z.shape[-1] != p.D:
        raise ShapeError(f"input has shape {z.shape}, expected (..., {p.D})")
    return z


def check_beta(b, K: int, open_interval: bool) -> Tensor:
    """beta as one float64 value or K per-unit values, each inside (0, 1),
    or inside [0, 1] when not open_interval.

    `forward` and `entropy_objective` read beta through this check, and so
    do the selector layers' forwards (`layers.Activation`, `layers.MaxPool`),
    so a (K,) beta means one value per unit everywhere.  Other shapes raise
    `ShapeError` and values outside the interval `DomainError`."""
    v = as_tensor(b, "beta")
    if v.shape not in ((), (K,)):
        raise ShapeError(f"beta has shape {v.shape}, expected one value or ({K},)")
    inside = (0.0 < v) & (v < 1.0) if open_interval else (0.0 <= v) & (v <= 1.0)
    if not inside.all():
        raise DomainError(f"beta must lie in {'(0, 1)' if open_interval else '[0, 1]'}")
    return v
