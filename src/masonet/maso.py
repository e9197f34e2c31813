"""Max-affine spline operators and their three inference regimes.

A MASO maps z in R^D to K outputs, each the maximum of R affine functions:

    out[k] = max_r  <A[k,r,:], z> + B[k,r]

The winning index per unit is the hard VQ code.  Replacing the argmax with
a softmax over the R affine scores gives soft VQ; scaling the scores by
eta = beta/(1-beta) before the softmax interpolates between the uniform
selection (beta -> 0), soft VQ (beta = 1/2), and hard VQ (beta -> 1).

`select` defines the three regimes once, over the last axis of a batch of
`scores`; the functions here, `layers` and the CLI all call it.  Scores
keep the logical shape (..., K, R) with the region axis R outermost in
memory (`ndcore.region_major`); `select` brings its input into that
layout and the selection T it returns keeps it.

Under the Gaussian-mixture reading of a unit, the prior mass of region r is
proportional to exp(B[k,r] + ||A[k,r,:]||^2 / 2), and when the offsets are
tied to the slopes by B = -||A||^2/2 the hard codes coincide with
nearest-centroid (K-means) assignment of z to the slope vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ndcore import (
    AmbiguityError,
    DomainError,
    PreconditionError,
    ShapeError,
    Tensor,
    as_tensor,
    region_major,
    row_argmax,
    row_softmax,
)

__all__ = [
    "MasoParams",
    "HardSelection",
    "SoftSelection",
    "BetaParam",
    "forward_hard",
    "svq_infer",
    "beta_vq_infer",
    "forward_with_selection",
    "selection_to_affine",
    "entropy_objective",
    "region_prior",
    "kmeans_codes",
    "codes_from_offset_perturbation",
    "scores",
    "select",
    "select_backward",
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
        A = as_tensor(self.A)
        B = as_tensor(self.B)
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


@dataclass(frozen=True)
class HardSelection:
    """One region index per unit, each in [0, R)."""

    codes: np.ndarray

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
        if codes.ndim != 1:
            raise ShapeError(f"codes must be a 1-D index list, got shape {codes.shape}")
        if codes.size and codes.min() < 0:
            raise DomainError("negative region code")
        object.__setattr__(self, "codes", codes)


@dataclass(frozen=True)
class SoftSelection:
    """K x R selection matrix with rows on the probability simplex."""

    T: Tensor

    def __post_init__(self):
        T = as_tensor(self.T)
        if T.ndim != 2:
            raise ShapeError(f"T must be K x R, got shape {T.shape}")
        if T.size:
            if T.min() < -1e-12 or T.max() > 1 + 1e-12:
                raise DomainError("selection entries must lie in [0, 1]")
            if np.max(np.abs(T.sum(axis=1) - 1.0)) > 1e-10:
                raise DomainError("selection rows must sum to 1 within 1e-10")
        object.__setattr__(self, "T", T)


@dataclass(frozen=True)
class BetaParam:
    """Per-unit beta in the open interval (0, 1), or one shared scalar."""

    beta: Tensor | float

    def __post_init__(self):
        b = np.asarray(self.beta, dtype=np.float64)
        if b.ndim > 1:
            raise ShapeError("beta must be a scalar or a 1-D per-unit vector")
        if b.size == 0 or np.any(b <= 0.0) or np.any(b >= 1.0):
            raise DomainError("beta must lie strictly inside (0, 1)")
        object.__setattr__(self, "beta", b)

    def values(self, K: int) -> Tensor:
        """Per-unit beta vector of length K (broadcast a shared scalar)."""
        b = np.asarray(self.beta, dtype=np.float64)
        if b.ndim == 0:
            return np.full(K, float(b))
        if b.shape[0] != K:
            raise ShapeError(f"beta has {b.shape[0]} entries for {K} units")
        return b


def scores(p: MasoParams, z: Tensor) -> Tensor:
    """(..., K, R) affine scores <A[k,r,:], z> + B[k,r] of inputs z (..., D)."""
    z = as_tensor(z)
    if z.ndim == 0 or z.shape[-1] != p.D:
        raise ShapeError(f"input has shape {z.shape}, expected (..., {p.D})")
    return (p.A @ z[..., None, :, None])[..., 0] + p.B


def select(s: Tensor, beta=None) -> tuple[Tensor, Tensor]:
    """(output, selection) over the last axis of scores s (..., R).

    Hard exactly when beta is None: the maximum and the region codes (ties
    to the lowest index).  Otherwise the T-weighted score sum and T =
    softmax(eta s), eta = beta/(1-beta); beta may broadcast against s[..., :1].
    The work runs on s in region-major layout (see `ndcore`), which T keeps.
    """
    s = region_major(s)
    if beta is None:
        return s.max(axis=-1), row_argmax(s)
    T = row_softmax(beta / (1.0 - beta) * s)
    return np.sum(T * s, axis=-1), T


def select_backward(G: Tensor, s: Tensor, T: Tensor, beta) -> tuple[Tensor, Tensor]:
    """Backward of the soft `select`: (G pushed onto the scores s, d loss /
    d beta).  The beta derivative has beta's shape, summed over the units
    and rows beta is broadcast along."""
    s, T = region_major(s), region_major(T)
    eta = beta / (1.0 - beta)
    out = np.sum(T * s, axis=-1)
    w = T * (1.0 + eta * (s - out[..., None]))
    # d out / d eta = E_T[s^2] - (E_T[s])^2, per unit
    dout_deta = np.sum(T * s * s, axis=-1) - out * out
    deta = _sum_to_shape((G * dout_deta)[..., None], np.shape(beta))
    return G[..., None] * w, deta / (1.0 - beta) ** 2


def _sum_to_shape(a: Tensor, shape: tuple) -> Tensor:
    """a summed over the axes along which an array of shape broadcasts to a.shape."""
    lead = a.ndim - len(shape)
    a = a.sum(axis=tuple(range(lead)))
    return a.sum(axis=tuple(i for i, n in enumerate(shape) if n == 1), keepdims=True)


def forward_hard(p: MasoParams, z: Tensor) -> tuple[Tensor, HardSelection]:
    """Max over regions per unit; returns the outputs and the winning codes."""
    out, codes = select(scores(p, _one_input(p, z)))
    return out, HardSelection(codes)


def svq_infer(p: MasoParams, z: Tensor) -> SoftSelection:
    """Soft VQ: per-unit softmax over the R affine scores."""
    return SoftSelection(select(scores(p, _one_input(p, z)), 0.5)[1])


def beta_vq_infer(p: MasoParams, z: Tensor, b: BetaParam) -> SoftSelection:
    """Beta VQ: per-unit softmax of the scores scaled by beta/(1-beta).

    beta = 1/2 reproduces svq_infer; beta -> 0 tends to the uniform row
    1/R; beta -> 1 concentrates on the hard VQ code.
    """
    return SoftSelection(select(scores(p, _one_input(p, z)), b.values(p.K)[:, None])[1])


def forward_with_selection(
    p: MasoParams, z: Tensor, sel: SoftSelection | HardSelection
) -> Tensor:
    """Selection-weighted output sum_r T[k,r] * (<A[k,r,:], z> + B[k,r]).

    With the HardSelection produced by forward_hard this reproduces the
    hard output exactly (same score arithmetic, one term per unit).
    """
    s = scores(p, _one_input(p, z))
    if isinstance(sel, HardSelection):
        codes = _checked_codes(p, sel)
        return s[np.arange(p.K), codes]
    if sel.T.shape != (p.K, p.R):
        raise ShapeError(f"selection shape {sel.T.shape} does not match (K,R)=({p.K},{p.R})")
    return np.sum(sel.T * s, axis=1)


def selection_to_affine(p: MasoParams, sel: HardSelection) -> tuple[Tensor, Tensor]:
    """Collapse a hard selection into the affine map it picks out.

    Row k of the returned matrix is A[k, codes[k], :]; the offset vector is
    B[k, codes[k]].  On the input that produced the selection, this affine
    map reproduces the hard forward output.
    """
    codes = _checked_codes(p, sel)
    idx = np.arange(p.K)
    return p.A[idx, codes, :].copy(), p.B[idx, codes].copy()


def entropy_objective(
    p: MasoParams, z: Tensor, T: SoftSelection, b: BetaParam | float | Tensor
) -> Tensor:
    """Per-unit value of beta * <T, scores> + (1 - beta) * H(T).

    H is the natural-log entropy with 0*log 0 := 0.  beta may be given as
    a BetaParam or directly as value(s) in the closed interval [0, 1]; the
    endpoints are meaningful for the objective (pure score / pure entropy)
    even though beta-VQ inference itself requires the open interval.
    """
    s = scores(p, _one_input(p, z))
    if T.T.shape != s.shape:
        raise ShapeError(f"selection shape {T.T.shape} does not match (K,R)=({p.K},{p.R})")
    beta = _beta_closed(b, p.K)
    fit = np.sum(T.T * s, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(T.T > 0.0, T.T * np.log(np.where(T.T > 0.0, T.T, 1.0)), 0.0)
    ent = -plogp.sum(axis=1)
    return beta * fit + (1.0 - beta) * ent


def region_prior(p: MasoParams) -> Tensor:
    """Per-unit categorical prior pi[k,r] proportional to exp(B + ||A||^2/2)."""
    m = p.B + 0.5 * np.sum(p.A * p.A, axis=2)
    return row_softmax(m)


def kmeans_codes(p: MasoParams, z: Tensor) -> HardSelection:
    """Nearest-centroid codes, valid when offsets satisfy B = -||A||^2/2.

    Under that bias condition the affine score ordering coincides with the
    negative squared distance ordering to the slope vectors, so the codes
    returned here equal the hard VQ codes.
    """
    z = _one_input(p, z)
    resid = p.B + 0.5 * np.sum(p.A * p.A, axis=2)
    if np.max(np.abs(resid)) > 1e-9:
        raise PreconditionError(
            "offsets deviate from -||A||^2/2 by "
            f"{np.max(np.abs(resid)):.3e}; the K-means reading does not apply"
        )
    d2 = np.sum((p.A - z[None, None, :]) ** 2, axis=2)
    return HardSelection(np.argmin(d2, axis=1))


def codes_from_offset_perturbation(
    p: MasoParams, z: Tensor, eps: float = 1e-6
) -> HardSelection:
    """Identify codes by nudging one offset at a time.

    The active region of unit k is the unique r for which adding eps to
    B[k,r] moves output k by eps; offsets of losing regions leave the max
    untouched.  Requires every unit's top-two score gap to exceed 2*eps,
    otherwise the answer would depend on the nudge.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    s = scores(p, _one_input(p, z))
    if p.R > 1:
        top2 = np.sort(s, axis=1)[:, -2:]
        gaps = top2[:, 1] - top2[:, 0]
        if np.min(gaps) <= 2.0 * eps:
            k_bad = int(np.argmin(gaps))
            raise AmbiguityError(
                f"unit {k_bad} sits within {gaps[k_bad]:.3e} of a region "
                f"boundary; need a score gap above {2.0 * eps:.3e}"
            )
    base = s.max(axis=1)
    codes = np.empty(p.K, dtype=np.int64)
    for k in range(p.K):
        hits = []
        for r in range(p.R):
            bumped = s[k].copy()
            bumped[r] += eps
            if abs(bumped.max() - base[k] - eps) <= 1e-12 * max(1.0, abs(base[k])):
                hits.append(r)
        if len(hits) != 1:
            raise AmbiguityError(f"unit {k}: {len(hits)} regions respond to the nudge")
        codes[k] = hits[0]
    return HardSelection(codes)


def _one_input(p: MasoParams, z: Tensor) -> Tensor:
    z = as_tensor(z)
    if z.shape != (p.D,):
        raise ShapeError(f"input has shape {z.shape}, expected ({p.D},)")
    return z


def _checked_codes(p: MasoParams, sel: HardSelection) -> np.ndarray:
    codes = sel.codes
    if codes.shape != (p.K,):
        raise ShapeError(f"selection has {codes.shape[0]} codes for {p.K} units")
    if codes.size and codes.max() >= p.R:
        raise DomainError(f"region code {codes.max()} out of range for R={p.R}")
    return codes


def _beta_closed(b, K: int) -> Tensor:
    """Beta value(s) in [0, 1] for objective evaluation."""
    if isinstance(b, BetaParam):
        return b.values(K)
    v = np.asarray(b, dtype=np.float64)
    if v.ndim == 0:
        v = np.full(K, float(v))
    if v.shape != (K,):
        raise ShapeError(f"beta has shape {v.shape}, expected scalar or ({K},)")
    if np.any(v < 0.0) or np.any(v > 1.0):
        raise DomainError("beta must lie in [0, 1]")
    return v
