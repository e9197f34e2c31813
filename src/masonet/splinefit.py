"""Max-affine fitting of sampled convex functions.

A budget of R affine pieces is fit by alternating two steps: assign each
sample to the piece whose affine value is largest, then refit each piece
by least squares on its samples.  Pieces that lose all samples are
reseeded to pass through the worst-fit sample.  The result is a K = 1
MasoParams, convex by construction.  The sup error against the sample
grid falls at least as fast as 1/R; on a smooth strictly convex target
such as x^2 it falls like 1/R^2 (log-log slope about -2 on the error
curve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maso import MasoParams
from .ndcore import DomainError, ShapeError, Tensor, as_int, as_seed, as_tensor

__all__ = ["FitProblem", "fit_max_affine", "sup_error", "universality_curve"]


@dataclass
class FitProblem:
    """Samples (x_i, y_i), a piece budget R, an iteration cap, and a seed."""

    x: Tensor
    y: Tensor
    R: int
    max_iterations: int = 200
    seed: int = 0

    def __post_init__(self):
        x = as_tensor(self.x, "samples")
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ShapeError(f"samples must be (n,) or (n, d), got shape {x.shape}")
        y = as_tensor(self.y, "targets").reshape(-1)
        if y.shape[0] != x.shape[0]:
            raise ShapeError("one target per sample required")
        self.R = as_int(self.R, "piece budget")
        self.max_iterations = as_int(self.max_iterations, "iteration cap")
        if self.R < 1:
            raise DomainError("piece budget must be at least 1")
        if self.max_iterations < 1:
            raise DomainError("need at least one iteration")
        self.seed = as_seed(self.seed, "fit seed")
        if np.unique(x, axis=0).shape[0] < self.R:
            raise DomainError(
                f"only {np.unique(x, axis=0).shape[0]} distinct samples for R={self.R}"
            )
        self.x = x
        self.y = y


def _piece_values(A: Tensor, b: Tensor, X: Tensor) -> Tensor:
    return X @ A.T + b


def _evaluate(A: Tensor, b: Tensor, X: Tensor) -> Tensor:
    return _piece_values(A, b, X).max(axis=1)


def _sup(prob: FitProblem, A: Tensor, b: Tensor) -> float:
    return float(np.max(np.abs(_evaluate(A, b, prob.x) - prob.y)))


def _init_secant(prob: FitProblem) -> tuple[Tensor, Tensor]:
    """Seed pieces from secants between R+1 quantile knots (1-D only)."""
    x = prob.x[:, 0]
    order = np.argsort(x, kind="stable")
    knots_pos = np.quantile(x, np.linspace(0.0, 1.0, prob.R + 1))
    # snap each knot to the nearest sample so secants interpolate data
    snap = order[np.searchsorted(x[order], knots_pos).clip(0, x.shape[0] - 1)]
    A = np.zeros((prob.R, 1))
    b = np.zeros(prob.R)
    for r in range(prob.R):
        i, j = snap[r], snap[r + 1]
        if x[j] == x[i]:
            slope = 0.0
        else:
            slope = (prob.y[j] - prob.y[i]) / (x[j] - x[i])
        A[r, 0] = slope
        b[r] = prob.y[i] - slope * x[i]
    return A, b


def _init_random(prob: FitProblem) -> tuple[Tensor, Tensor]:
    rng = np.random.default_rng(prob.seed)
    groups = rng.integers(0, prob.R, size=prob.x.shape[0])
    # make sure every piece owns at least one sample
    for r in range(prob.R):
        if not np.any(groups == r):
            groups[rng.integers(0, prob.x.shape[0])] = r
    return _refit(prob, groups, np.zeros((prob.R, prob.x.shape[1])), np.zeros(prob.R))


def _refit(prob: FitProblem, assign: np.ndarray, A: Tensor, b: Tensor):
    A = A.copy()
    b = b.copy()
    design = np.hstack([prob.x, np.ones((prob.x.shape[0], 1))])
    for r in range(prob.R):
        mask = assign == r
        if not np.any(mask):
            continue
        coef, *_ = np.linalg.lstsq(design[mask], prob.y[mask], rcond=None)
        A[r] = coef[:-1]
        b[r] = coef[-1]
    return A, b


def fit_max_affine(prob: FitProblem, init=None) -> MasoParams:
    """Alternating assignment / least-squares fit of R affine pieces.

    init may supply starting pieces (A0 of shape (R, d), b0 of shape (R,)),
    e.g. a previous fit's pieces plus one more; otherwise 1-D problems
    start from quantile-knot secants and higher dimensions from a seeded
    random partition.  Runs until the assignment stops changing or the
    iteration cap; of all iterates, and init when given, the one with the
    smallest sup error is returned (the assignment step can jitter it, the
    best pass is kept, and a warm start is never made worse).
    """
    if init is not None:
        A = as_tensor(init[0], "init slopes").reshape(prob.R, prob.x.shape[1]).copy()
        b = as_tensor(init[1], "init offsets").reshape(prob.R).copy()
    elif prob.x.shape[1] == 1:
        A, b = _init_secant(prob)
    else:
        A, b = _init_random(prob)

    best = (np.inf if init is None else _sup(prob, A, b), A.copy(), b.copy())
    prev_assign = None
    for _ in range(prob.max_iterations):
        vals = _piece_values(A, b, prob.x)
        assign = np.argmax(vals, axis=1)
        # revive pieces that own no samples at the currently worst-fit points
        errors = np.abs(vals.max(axis=1) - prob.y)
        worst_order = np.argsort(-errors, kind="stable")
        cursor = 0
        for r in range(prob.R):
            if np.any(assign == r):
                continue
            while cursor < worst_order.shape[0] and np.sum(assign == assign[worst_order[cursor]]) <= 1:
                cursor += 1
            if cursor >= worst_order.shape[0]:
                break
            i = worst_order[cursor]
            cursor += 1
            donor = assign[i]
            A[r] = A[donor]
            b[r] = prob.y[i] - A[r] @ prob.x[i]
            assign[i] = r
        A, b = _refit(prob, assign, A, b)
        err = _sup(prob, A, b)
        if err < best[0]:
            best = (err, A.copy(), b.copy())
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
    _, A, b = best
    return MasoParams(A[None, :, :], b[None, :])


def sup_error(x: Tensor, y: Tensor, spline: MasoParams) -> float:
    """Largest absolute deviation of the spline from the samples."""
    x = as_tensor(x, "samples")
    if x.ndim == 1:
        x = x[:, None]
    y = as_tensor(y, "targets").reshape(-1)
    if spline.K != 1 or spline.D != x.shape[1]:
        raise ShapeError(
            f"spline is K={spline.K}, D={spline.D}; samples are {x.shape[1]}-dimensional"
        )
    pred = _evaluate(spline.A[0], spline.B[0], x)
    return float(np.max(np.abs(pred - y)))


def universality_curve(x: Tensor, y: Tensor, R_list, seed: int = 0, max_iterations: int = 200):
    """Fit the samples at every budget in R_list and track the error decay.

    R_list must be strictly increasing.  Returns (curve, slope, c) where
    curve is the list of (R, sup_error) pairs, slope the least-squares
    slope of log error against log R (None when an error underflows the
    log, the degenerate exactly-representable case), and c the largest
    R * error product, an empirical stand-in for the decay constant.
    """
    rs = [int(r) for r in R_list]
    if any(b <= a for a, b in zip(rs, rs[1:])) or not rs:
        raise DomainError("R_list must be nonempty and strictly increasing")
    curve = []
    for r in rs:
        spline = fit_max_affine(FitProblem(x, y, r, max_iterations, seed))
        curve.append((r, sup_error(x, y, spline)))
    errs = np.array([e for _, e in curve])
    c = float(np.max(errs * np.array(rs, dtype=np.float64)))
    if np.any(errs <= 1e-12) or len(rs) < 2:
        return curve, None, c
    slope = float(np.polyfit(np.log(np.array(rs, dtype=np.float64)), np.log(errs), 1)[0])
    return curve, slope, c
