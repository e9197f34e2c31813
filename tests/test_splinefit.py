import numpy as np
import pytest

from masonet.maso import MasoParams, forward
from masonet.ndcore import DomainError, ShapeError
from masonet.splinefit import FitProblem, fit_max_affine, sup_error, universality_curve


def quad_samples(n=301, lo=-1.0, hi=1.0):
    x = np.linspace(lo, hi, n)
    return x, x**2


# --- problem validation -----------------------------------------------------------

def test_problem_promotes_1d_samples():
    prob = FitProblem(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 4.0]), 2)
    assert prob.x.shape == (3, 1)
    assert prob.y.shape == (3,)


def test_problem_validation():
    x, y = quad_samples(10)
    with pytest.raises(DomainError):
        FitProblem(x, y, 0)
    with pytest.raises(DomainError):
        FitProblem(x, y, 2, max_iterations=0)
    with pytest.raises(ShapeError):
        FitProblem(x, y[:-1], 2)
    with pytest.raises(ShapeError):
        FitProblem(np.zeros((2, 2, 2)), np.zeros(2), 1)
    # R exceeding the number of distinct inputs cannot be assigned
    with pytest.raises(DomainError):
        FitProblem(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), 3)


# --- fitting ---------------------------------------------------------------------

def test_r1_fit_equals_least_squares():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((50, 2))
    y = x @ np.array([2.0, -1.0]) + 0.5 + 0.01 * rng.standard_normal(50)
    spline = fit_max_affine(FitProblem(x, y, 1))
    design = np.hstack([x, np.ones((50, 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.allclose(spline.A[0, 0], coef[:-1], atol=1e-10)
    assert np.isclose(spline.B[0, 0], coef[-1], atol=1e-10)


def test_recovers_planted_max_affine_exactly():
    # data generated by a 3-piece max-affine function is fit to round-off
    A_true = np.array([[-2.0], [0.5], [3.0]])
    b_true = np.array([0.0, 0.3, -1.2])
    x = np.linspace(-2, 2, 401)
    y = np.max(x[:, None] * A_true.T + b_true, axis=1)
    spline = fit_max_affine(FitProblem(x, y, 3))
    assert sup_error(x, y, spline) < 1e-9


def test_planted_recovery_multidimensional():
    rng = np.random.default_rng(7)
    A_true = rng.standard_normal((4, 3))
    b_true = rng.standard_normal(4)
    x = rng.uniform(-1, 1, size=(600, 3))
    y = np.max(x @ A_true.T + b_true, axis=1)
    spline = fit_max_affine(FitProblem(x, y, 4, seed=1))
    assert sup_error(x, y, spline) < 1e-8


def test_fit_is_deterministic_for_fixed_seed():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = np.sum(x**2, axis=1)
    a = fit_max_affine(FitProblem(x, y, 5, seed=4))
    b = fit_max_affine(FitProblem(x, y, 5, seed=4))
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)


def test_fit_returns_single_unit_maso():
    x, y = quad_samples()
    spline = fit_max_affine(FitProblem(x, y, 4))
    assert isinstance(spline, MasoParams)
    assert (spline.K, spline.R, spline.D) == (1, 4, 1)
    # the spline evaluates through the standard hard max path
    grid = np.linspace(-1, 1, 17)
    out = np.array([forward(spline, np.array([g]))[0][0] for g in grid])
    manual = np.max(grid[:, None] * spline.A[0].T + spline.B[0], axis=1)
    assert np.allclose(out, manual)


def test_warm_start_init_is_honored():
    x, y = quad_samples(101)
    base = fit_max_affine(FitProblem(x, y, 2))
    warm = fit_max_affine(
        FitProblem(x, y, 2, max_iterations=1),
        init=(base.A[0], base.B[0]),
    )
    # restarting at a converged fit cannot make the sup error worse
    assert sup_error(x, y, warm) <= sup_error(x, y, base) + 1e-12


@pytest.mark.parametrize("points", [(-0.5, 0.5), (-2 / 3, 0.0, 2 / 3)])
def test_warm_start_counts_as_the_first_candidate(points):
    # tangents of x^2 raised by half their sup error: the iterates that
    # follow are worse (0.1658 against 0.125 for two pieces, 0.0732 against
    # 0.0556 for three), so the start itself must be returned
    x, y = quad_samples(401)
    t = np.array(points)
    A, b = 2 * t[:, None], -(t**2)
    start_error = np.max(np.abs(np.max(x[:, None] * A.T + b, axis=1) - y))
    init = (A, b + start_error / 2)
    start = MasoParams(init[0][None], init[1][None])
    fit = fit_max_affine(FitProblem(x, y, len(points)), init=init)
    assert sup_error(x, y, fit) == sup_error(x, y, start)
    assert np.array_equal(fit.A, start.A) and np.array_equal(fit.B, start.B)


def test_empty_pieces_get_reseeded():
    # all-zero init collapses assignment onto piece 0; the fit must still
    # spread pieces out and beat the single-piece error
    x, y = quad_samples(201)
    spline = fit_max_affine(
        FitProblem(x, y, 4), init=(np.zeros((4, 1)), np.zeros(4))
    )
    one = fit_max_affine(FitProblem(x, y, 1))
    assert sup_error(x, y, spline) < sup_error(x, y, one) / 3


# --- sup error -------------------------------------------------------------------

def test_sup_error_hand_value():
    spline = MasoParams(np.array([[[1.0], [-1.0]]]), np.array([[0.0, 0.0]]))  # |x|
    x = np.array([-1.0, 0.0, 2.0])
    y = np.array([1.0, 0.5, 2.0])
    assert sup_error(x, y, spline) == 0.5


def test_sup_error_shape_checks():
    spline = MasoParams(np.zeros((2, 2, 1)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        sup_error(np.zeros(3), np.zeros(3), spline)
    spline1 = MasoParams(np.zeros((1, 2, 2)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        sup_error(np.zeros(3), np.zeros(3), spline1)


# --- error decay over the piece budget ---------------------------------------------

def test_universality_curve_on_quadratic():
    x, y = quad_samples(2001)
    curve, slope, c = universality_curve(x, y, [2, 4, 8, 16, 32])
    errs = [e for _, e in curve]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert slope is not None and slope <= -0.9
    assert c == max(r * e for r, e in curve)
    assert c > 0


def test_universality_slope_none_when_exact():
    # a 2-piece target is reproduced exactly at every budget >= 2
    x = np.linspace(-1, 1, 101)
    y = np.abs(x)
    curve, slope, c = universality_curve(x, y, [2, 4])
    assert slope is None
    assert curve[0][1] < 1e-12


def test_universality_curve_validation():
    x, y = quad_samples(50)
    with pytest.raises(DomainError):
        universality_curve(x, y, [])
    with pytest.raises(DomainError):
        universality_curve(x, y, [4, 2])
    with pytest.raises(DomainError):
        universality_curve(x, y, [2, 2])


def test_fitted_spline_is_convex_on_grid():
    # max of affine pieces: midpoint value never exceeds the chord
    x, y = quad_samples(501)
    spline = fit_max_affine(FitProblem(x, y, 8))
    g = np.linspace(-1, 1, 101)
    v = np.max(g[:, None] * spline.A[0].T + spline.B[0], axis=1)
    mid = np.max(((g[:-2] + g[2:]) / 2)[:, None] * spline.A[0].T + spline.B[0], axis=1)
    assert np.all(mid <= (v[:-2] + v[2:]) / 2 + 1e-12)
