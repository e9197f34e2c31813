import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masonet.maso import (
    MasoParams,
    codes_from_offset_perturbation,
    entropy_objective,
    forward,
    kmeans_codes,
    region_prior,
    scores,
    select,
    select_backward,
    selection_to_affine,
)
from masonet.ndcore import AmbiguityError, DomainError, PreconditionError, ShapeError


def random_params(rng, K=4, R=3, D=5):
    return MasoParams(rng.standard_normal((K, R, D)), rng.standard_normal((K, R)))


# --- parameter containers ---------------------------------------------------

def test_maso_params_shape_properties():
    p = MasoParams(np.zeros((2, 3, 4)), np.zeros((2, 3)))
    assert (p.K, p.R, p.D) == (2, 3, 4)


def test_maso_params_shape_mismatch():
    with pytest.raises(ShapeError):
        MasoParams(np.zeros((2, 3, 4)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        MasoParams(np.zeros((2, 3)), np.zeros((2, 3)))


def test_hard_selection_rejects_negative_codes(rng):
    p = random_params(rng, K=2)
    with pytest.raises(DomainError, match="region code -1 out of range"):
        selection_to_affine(p, np.array([0, -1]))
    # a code must be an integer, not a bool or a fraction cut down
    for bad in ([0, 1.5], [True, 0]):
        with pytest.raises(DomainError, match="codes must be an integer"):
            selection_to_affine(p, bad)


def test_soft_selection_rows_must_be_stochastic():
    p, z = offsets_only([[0.0, 1.0]])
    with pytest.raises(DomainError, match="sum to 1"):
        entropy_objective(p, z, np.array([[0.5, 0.6]]), 0.5)
    with pytest.raises(DomainError, match=r"in \[0, 1\]"):
        entropy_objective(p, z, np.array([[1.2, -0.2]]), 0.5)
    with pytest.raises(ShapeError):
        entropy_objective(p, z, np.array([0.5, 0.5]), 0.5)


def test_beta_param_open_interval(rng):
    p = random_params(rng, K=3)
    z = rng.standard_normal(p.D)
    for bad in (0.0, 1.0, -0.1, 1.1, np.nan, True, [0.5, 1.0, 0.5]):
        with pytest.raises(DomainError):
            forward(p, z, bad)
    # one shared beta equals the same value given per unit
    assert np.array_equal(forward(p, z, 0.75)[1], forward(p, z, np.full(3, 0.75))[1])
    for bad in ([0.2, 0.8], np.full((3, 1), 0.5)):
        with pytest.raises(ShapeError):
            forward(p, z, bad)


# --- hard forward -----------------------------------------------------------

def test_scores_known_values():
    # unit 0: rows (z1, z2); unit 1: constant offsets
    A = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    B = np.array([[0.0, 0.0], [2.0, -1.0]])
    s = scores(MasoParams(A, B), np.array([3.0, 5.0]))
    assert np.array_equal(s, [[3.0, 5.0], [2.0, -1.0]])


def test_forward_hard_picks_max_and_codes():
    A = np.array([[[1.0], [2.0]]])
    B = np.array([[0.0, -0.5]])
    out, codes = forward(MasoParams(A, B), np.array([1.0]))
    # scores 1.0 vs 1.5
    assert out[0] == 1.5 and codes[0] == 1 and codes.dtype == np.int64


def test_forward_hard_tie_takes_lowest_region():
    A = np.zeros((1, 3, 1))
    B = np.array([[7.0, 7.0, 7.0]])
    _, codes = forward(MasoParams(A, B), np.array([0.0]))
    assert codes[0] == 0


def test_relu_shaped_params_reproduce_relu():
    A = np.array([[[0.0], [1.0]]])
    B = np.zeros((1, 2))
    p = MasoParams(A, B)
    for u in (-2.0, -0.3, 0.4, 5.0):
        out, codes = forward(p, np.array([u]))
        assert out[0] == max(u, 0.0)
        assert codes[0] == (1 if u > 0 else 0)


# --- soft and beta inference ------------------------------------------------

def test_svq_matches_softmax_of_scores(rng):
    p = random_params(rng)
    z = rng.standard_normal(p.D)
    s = scores(p, z)
    _, T = forward(p, z, 0.5)
    ref = np.exp(s - s.max(axis=1, keepdims=True))
    ref /= ref.sum(axis=1, keepdims=True)
    assert np.allclose(T, ref, atol=1e-15)


def test_beta_half_is_svq(rng):
    p = random_params(rng)
    z = rng.standard_normal(p.D)
    assert np.allclose(forward(p, z, np.full(p.K, 0.5))[1], forward(p, z, 0.5)[1], atol=1e-15)


def test_beta_limits(rng):
    p = random_params(rng, K=3, R=4)
    z = rng.standard_normal(p.D)
    near_zero = forward(p, z, 1e-9)[1]
    assert np.allclose(near_zero, 0.25, atol=1e-6)
    near_one = forward(p, z, 1 - 1e-9)[1]
    _, codes = forward(p, z)
    assert np.array_equal(np.argmax(near_one, axis=1), codes)


def test_per_unit_beta_rows(rng):
    p = random_params(rng, K=2, R=3)
    z = rng.standard_normal(p.D)
    mixed = forward(p, z, np.array([0.2, 0.9]))[1]
    lo = forward(p, z, 0.2)[1]
    hi = forward(p, z, 0.9)[1]
    assert np.allclose(mixed[0], lo[0]) and np.allclose(mixed[1], hi[1])


def test_forward_with_hard_selection_matches_forward_hard_exactly(rng):
    p = random_params(rng)
    Z = rng.standard_normal((5, p.D))
    out, codes = forward(p, Z)
    # the output is the score each code picks, bit for bit
    assert np.array_equal(np.take_along_axis(scores(p, Z), codes[..., None], -1)[..., 0], out)


def test_forward_with_soft_selection_is_score_average(rng):
    p = random_params(rng, K=2, R=2)
    z = rng.standard_normal(p.D)
    out, T = forward(p, z, 0.5)
    assert np.allclose(out, np.sum(T * scores(p, z), axis=-1), atol=1e-15)
    # near beta = 0 the selection is uniform, so the output is the score average
    assert np.allclose(forward(p, z, 1e-12)[0], scores(p, z).mean(axis=1))


def test_forward_with_selection_rejects_mismatched_codes(rng):
    p = random_params(rng, K=2, R=2)
    with pytest.raises(ShapeError):
        selection_to_affine(p, np.array([0]))
    with pytest.raises(ShapeError):
        selection_to_affine(p, np.array(0))
    with pytest.raises(DomainError):
        selection_to_affine(p, np.array([0, 5]))


def test_selection_to_affine_reproduces_output(rng):
    p = random_params(rng)
    z = rng.standard_normal(p.D)
    out, codes = forward(p, z)
    Asel, bsel = selection_to_affine(p, codes)
    assert np.allclose(Asel @ z + bsel, out, atol=1e-15)
    # the collapsed map is affine: exact on a second input under the same codes
    assert Asel.shape == (p.K, p.D) and bsel.shape == (p.K,)
    # a batch of code rows gives one map per row
    Z = rng.standard_normal((3, p.D))
    A3, b3 = selection_to_affine(p, forward(p, Z)[1])
    assert A3.shape == (3, p.K, p.D) and b3.shape == (3, p.K)
    for i in range(3):
        Ai, bi = selection_to_affine(p, forward(p, Z[i])[1])
        assert np.array_equal(A3[i], Ai) and np.array_equal(b3[i], bi)


# --- entropy objective ------------------------------------------------------

def offsets_only(score_rows):
    s = np.asarray(score_rows, dtype=np.float64)
    return MasoParams(np.zeros((s.shape[0], s.shape[1], 1)), s), np.zeros(1)


def test_entropy_objective_frozen_values():
    p, z = offsets_only([[0.0, np.log(3.0)]])
    uniform = np.array([[0.5, 0.5]])
    hard = np.array([[0.0, 1.0]])
    # beta=0: pure natural-log entropy
    assert np.allclose(entropy_objective(p, z, uniform, 0.0), np.log(2.0))
    assert np.allclose(entropy_objective(p, z, hard, 0.0), 0.0)
    # beta=1: pure expected score
    assert np.allclose(entropy_objective(p, z, hard, 1.0), np.log(3.0))
    # beta=1/2: 0.5*(0.5*ln3) + 0.5*ln2 at the uniform selection
    expect = 0.5 * (0.5 * np.log(3.0)) + 0.5 * np.log(2.0)
    assert np.allclose(entropy_objective(p, z, uniform, 0.5), expect)


def test_entropy_objective_zero_probability_contributes_zero():
    p, z = offsets_only([[5.0, -1000.0]])
    hard = np.array([[1.0, 0.0]])
    # 0 * log 0 must not poison the entropy term
    val = entropy_objective(p, z, hard, 0.3)
    assert np.allclose(val, 0.3 * 5.0)


def test_entropy_objective_maximized_by_scaled_softmax(rng):
    # closed-form optimum: softmax of eta*scores
    p = random_params(rng, K=3, R=4)
    z = rng.standard_normal(p.D)
    _, Topt = forward(p, z, 0.7)
    base = entropy_objective(p, z, Topt, 0.7)
    for _ in range(200):
        raw = rng.random((3, 4))
        cand = raw / raw.sum(axis=1, keepdims=True)
        val = entropy_objective(p, z, cand, 0.7)
        assert np.all(val <= base + 1e-9)


def test_entropy_objective_rejects_beta_outside_closed_interval(rng):
    p = random_params(rng, K=1, R=2)
    _, T = forward(p, np.zeros(p.D), 0.5)
    for bad in (1.5, -0.1, np.nan):
        with pytest.raises(DomainError):
            entropy_objective(p, np.zeros(p.D), T, bad)
    # the closed interval: the endpoints are the pure score and the pure entropy
    assert np.all(np.isfinite(entropy_objective(p, np.zeros(p.D), T, [1.0])))
    with pytest.raises(ShapeError):
        entropy_objective(p, np.zeros(p.D), T, [0.5, 0.5])


# --- region prior -----------------------------------------------------------

def test_region_prior_relu_unit_slope():
    # two regions, slopes 0 and 1, zero offsets: masses proportional to
    # exp(0) and exp(1/2), i.e. (0.37754..., 0.62245...)
    p = MasoParams(np.array([[[0.0], [1.0]]]), np.zeros((1, 2)))
    pi = region_prior(p)
    expect = np.array([1.0, np.exp(0.5)])
    expect /= expect.sum()
    assert np.allclose(pi, expect[None, :], atol=1e-12)
    assert abs(pi[0, 0] - 0.3775406687981454) < 1e-12


def test_region_prior_rows_sum_to_one(rng):
    p = random_params(rng)
    pi = region_prior(p)
    assert np.allclose(pi.sum(axis=1), 1.0)
    assert np.all(pi > 0)


# --- k-means reading --------------------------------------------------------

def test_kmeans_codes_nearest_centroid():
    A = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    p = MasoParams(A, -0.5 * np.sum(A * A, axis=2))
    codes = kmeans_codes(p, np.array([0.9, 0.2]))
    # squared distances 0.05 vs 1.45
    assert codes[0] == 0 and codes.dtype == np.int64
    _, hard = forward(p, np.array([0.9, 0.2]))
    assert np.array_equal(codes, hard)


def test_kmeans_codes_requires_tied_offsets(rng):
    p = random_params(rng)
    with pytest.raises(PreconditionError):
        kmeans_codes(p, rng.standard_normal(p.D))


def test_kmeans_equals_hard_codes_randomly(rng):
    for _ in range(50):
        A = rng.standard_normal((3, 4, 5))
        p = MasoParams(A, -0.5 * np.sum(A * A, axis=2))
        z = rng.standard_normal(5)
        _, hard = forward(p, z)
        assert np.array_equal(kmeans_codes(p, z), hard)


# --- offset-perturbation code identification --------------------------------

def test_offset_perturbation_matches_hard_codes(rng):
    for _ in range(30):
        p = random_params(rng)
        z = rng.standard_normal(p.D)
        s = scores(p, z)
        top2 = np.sort(s, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) <= 2e-6:
            continue
        codes = codes_from_offset_perturbation(p, z, eps=1e-7)
        _, hard = forward(p, z)
        assert np.array_equal(codes, hard) and codes.dtype == np.int64


def test_offset_perturbation_flags_boundary():
    # both regions score identically: any nudge decides the max
    p = MasoParams(np.array([[[1.0], [1.0]]]), np.zeros((1, 2)))
    with pytest.raises(AmbiguityError):
        codes_from_offset_perturbation(p, np.array([0.5]), eps=1e-6)


def test_offset_perturbation_rejects_nonpositive_eps(rng):
    p = random_params(rng)
    for eps in (0.0, -1e-6, np.nan):
        with pytest.raises(DomainError):
            codes_from_offset_perturbation(p, np.zeros(p.D), eps=eps)


# --- properties -------------------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_hard_output_upper_bounds_every_selection(seed, K, R, D):
    rng = np.random.default_rng(seed)
    p = MasoParams(rng.standard_normal((K, R, D)), rng.standard_normal((K, R)))
    z = rng.standard_normal(D)
    out, _ = forward(p, z)
    raw = rng.random((K, R)) + 1e-9
    T = raw / raw.sum(axis=1, keepdims=True)
    # a convex combination of scores can never beat the max
    assert np.all(np.sum(T * scores(p, z), axis=-1) <= out + 1e-12)
    assert np.all(forward(p, z, rng.uniform(0.01, 0.99, K))[0] <= out + 1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_offset_shift_moves_output_uniformly(seed):
    rng = np.random.default_rng(seed)
    p = MasoParams(rng.standard_normal((3, 2, 4)), rng.standard_normal((3, 2)))
    z = rng.standard_normal(4)
    c = float(rng.standard_normal())
    shifted = MasoParams(p.A, p.B + c)
    out, _ = forward(p, z)
    out2, _ = forward(shifted, z)
    assert np.allclose(out2, out + c, atol=1e-12)


# --- the batched selection kernel ---------------------------------------------

def bit_equal(a, b) -> bool:
    """Equal values, shapes and dtypes, signs of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def softmax(m):
    """Softmax over the last axis, shifted by each row's maximum."""
    e = np.exp(m - m.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_soft_selection_of_zero_and_log_three_is_a_quarter_and_three_quarters():
    # exp(0) : exp(ln 3) = 1 : 3, and beta = 1/2 scales the scores by exactly 1
    _, T = select(np.array([[0.0, np.log(3.0)]]), 0.5)
    assert np.allclose(T, [[0.25, 0.75]], atol=1e-15)


def test_soft_selection_handles_huge_scores():
    _, T = select(np.array([[1000.0, 999.0]]), 0.5)
    assert np.all(np.isfinite(T))
    assert T[0, 0] > T[0, 1]


def test_hard_codes_tie_low_and_give_the_first_nan():
    m = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    assert select(m)[1].tolist() == [0, 1]
    # a row holding NaN gives its first NaN, as np.argmax does
    m = np.array([[np.nan, 1.0, 0.0], [1.0, np.nan, np.nan], [0.0, 2.0, np.nan], [-np.inf, -np.inf, -np.inf]])
    assert select(m)[1].tolist() == np.argmax(m, axis=-1).tolist() == [0, 1, 2, 0]


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=st.floats(-50, 50)))
def test_soft_selection_rows_live_on_the_simplex(m):
    _, T = select(m, 0.5)
    assert np.all(T >= 0)
    assert np.allclose(T.sum(axis=1), 1.0, atol=1e-12)


@given(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=st.floats(-10, 10)),
    st.floats(0.1, 10.0),
)
@settings(max_examples=50)
def test_soft_selection_scale_preserves_ordering(m, scale):
    # monotonicity is only observable where scores actually differ;
    # near-ties round to equal probabilities and order arbitrarily
    base = select(m, 0.5)[1]
    scaled = select(scale * m, 0.5)[1]
    for k in range(m.shape[0]):
        for i in range(m.shape[1]):
            for j in range(m.shape[1]):
                if m[k, i] - m[k, j] > 1e-9:
                    assert base[k, i] > base[k, j]
                    assert scaled[k, i] > scaled[k, j]


@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 5)), elements=st.floats(-100, 100)))
def test_hard_codes_pick_the_first_maximum(m):
    out, idx = select(m)
    for i, j in enumerate(idx):
        assert m[i, j] == m[i].max() == out[i]
        assert np.all(m[i, :j] < m[i, j]) or j == 0


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_batched_selection_rows_equal_the_per_input_regimes(seed, n, K, R, D):
    rng = np.random.default_rng(seed)
    # few distinct small values, signed zeros among them, make exact score ties common
    pool = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
    p = MasoParams(rng.choice(pool, (K, R, D)), rng.choice(pool, (K, R)))
    Z = rng.choice(pool, (n, D))
    beta = rng.uniform(0.05, 0.95, K)  # one per unit
    s = scores(p, Z)
    assert s.shape == (n, K, R)
    hard, codes = select(s)
    soft, T = select(s, 0.5)
    weighted, Tb = select(s, beta[:, None])
    # hard codes are the lowest-index maximum of each unit's scores
    assert np.array_equal(codes, np.argmax(s == s.max(axis=-1, keepdims=True), axis=-1))
    assert bit_equal(T, softmax(s)) and bit_equal(Tb, softmax(beta[:, None] / (1 - beta[:, None]) * s))
    assert bit_equal(weighted, np.sum(Tb * s, axis=-1))
    # forward is select of the scores, batched or one input at a time
    assert bit_equal(forward(p, Z)[0], hard) and bit_equal(forward(p, Z)[1], codes)
    assert bit_equal(forward(p, Z, beta)[1], Tb)
    for i in range(n):
        assert bit_equal(s[i], scores(p, Z[i]))
        out, row_codes = forward(p, Z[i])
        assert bit_equal(hard[i], out) and bit_equal(codes[i], row_codes)
        assert bit_equal(soft[i], forward(p, Z[i], 0.5)[0]) and bit_equal(T[i], forward(p, Z[i], 0.5)[1])
        assert bit_equal(weighted[i], forward(p, Z[i], beta)[0]) and bit_equal(Tb[i], forward(p, Z[i], beta)[1])


def test_code_functions_take_batches_and_check_the_input_width(rng):
    p = random_params(rng)
    tied = MasoParams(p.A, -0.5 * np.sum(p.A * p.A, axis=2))
    Z = rng.standard_normal((2, 3, p.D))
    hard = forward(tied, Z)[1]
    assert hard.shape == (2, 3, p.K)
    assert np.array_equal(kmeans_codes(tied, Z), hard)
    assert np.array_equal(codes_from_offset_perturbation(tied, Z, eps=1e-9), hard)
    for fn in (scores, forward, kmeans_codes, codes_from_offset_perturbation):
        for bad in (np.zeros(()), np.zeros((2, p.D + 1)), np.zeros(p.D - 1)):
            with pytest.raises(ShapeError):
                fn(tied, bad)
        with pytest.raises(DomainError):
            fn(tied, [True] * p.D)


@pytest.mark.parametrize("per_unit", [False, True])
def test_select_backward_matches_central_differences(per_unit):
    rng = np.random.default_rng(0)
    n, K, R = 3, 4, 3
    s = rng.standard_normal((n, K, R))
    G = rng.standard_normal((n, K))
    beta = rng.uniform(0.2, 0.8, (K, 1)) if per_unit else 0.35

    def loss(s, beta):
        return float(np.sum(G * select(s, beta)[0]))

    _, T = select(s, beta)
    Gs, dbeta = select_backward(G, s, T, beta)
    h = 1e-6
    fd_s = np.zeros_like(s)
    for i in np.ndindex(s.shape):
        e = np.zeros_like(s)
        e[i] = h
        fd_s[i] = (loss(s + e, beta) - loss(s - e, beta)) / (2 * h)
    assert np.allclose(Gs, fd_s, rtol=1e-6, atol=1e-8)
    if per_unit:
        # one derivative per unit, in beta's shape
        fd_b = np.zeros_like(beta)
        for i in np.ndindex(beta.shape):
            e = np.zeros_like(beta)
            e[i] = h
            fd_b[i] = (loss(s, beta + e) - loss(s, beta - e)) / (2 * h)
        assert dbeta.shape == beta.shape
    else:
        fd_b = (loss(s, beta + h) - loss(s, beta - h)) / (2 * h)
        assert np.shape(dbeta) == ()
    assert np.allclose(dbeta, fd_b, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("z, beta, want_dbeta, want_dz", [
    (197.04, 0.949, 1.7807676216110576695e-13, 1.000000000000000042548),
    (40.0, 0.98, 1.229951944270831814e-6, 1.000000000571927653991),
], ids=["z=197.04", "z=40"])
def test_select_backward_keeps_its_digits_at_large_scores(z, beta, want_dbeta, want_dz):
    # the unit [0.99 z, z] with G = 1.  The references are 60-digit mpmath
    # values (mp.dps = 60, mp.diff of the soft output sum_r T_r s_r, T the
    # softmax of eta s): d/dbeta at the float64 scores passed here, d/dz with
    # s = [0.99 z, z] exact.  Read off the raw scores, s - out and
    # E_T[s^2] - E_T[s]^2 lost digits with |s|: d/dbeta came out 2.797e-9 at
    # z = 197.04 and 1.1e-4 off at z = 40
    s = np.array([[0.99 * z, z]])
    _, T = select(s, beta)
    Gs, dbeta = select_backward(np.ones(1), s, T, beta)
    assert abs(float(dbeta) - want_dbeta) <= 1e-12 * want_dbeta
    assert abs(float(Gs[0, 0] * 0.99 + Gs[0, 1]) - want_dz) <= 1e-15


def _layouts(x):
    """x as C-ordered, as a region-major copy, F-ordered and as a negative-stride view."""
    flip = (slice(None, None, -1),) * x.ndim
    return {
        "C": np.ascontiguousarray(x),
        "region-major": np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1),
        "F": np.asfortranarray(x),
        "negative strides": np.ascontiguousarray(x[flip])[flip],
    }


@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_kernel_results_do_not_depend_on_layout(seed, n, K, R):
    rng = np.random.default_rng(seed)
    # few distinct values, signed zeros among them, make exact ties common
    pool = np.array([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
    x = rng.choice(pool, (n, K, R))
    G = rng.choice(pool, (n, K))
    per_unit = rng.uniform(0.05, 0.95, (K, 1))

    def kernel(s):
        got = {}
        got["hard"], got["codes"] = select(s)
        for name, beta in (("soft", 0.5), ("beta", 0.3), ("per-unit", per_unit)):
            got[name], T = select(s, beta)
            got[name + " T"] = T
            got[name + " Gs"], got[name + " dbeta"] = select_backward(G, s, T, beta)
        return got

    base = kernel(_layouts(x)["C"])
    # hard codes are the lowest index among the maxima
    first = np.argmax(x == x.max(axis=-1, keepdims=True), axis=-1)
    assert np.array_equal(base["codes"], first)
    for layout, s in _layouts(x).items():
        for name, value in kernel(s).items():
            if R <= 7:
                assert bit_equal(value, base[name]), (layout, name)
            else:  # numpy's pairwise sum over a trailing axis engages at 8 terms
                assert np.all(np.abs(value - base[name]) <= 1e-15 * (1 + np.abs(base[name]))), (layout, name)
