import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from masonet.ndcore import (
    DomainError,
    ShapeError,
    as_tensor,
    row_argmax,
    row_softmax,
)


def test_as_tensor_coerces_to_float64():
    a = as_tensor([[1, 2], [3, 4]])
    assert a.dtype == np.float64
    assert a.shape == (2, 2)


def test_as_tensor_rejects_nan_and_inf():
    with pytest.raises(DomainError):
        as_tensor([1.0, np.nan])
    with pytest.raises(DomainError):
        as_tensor([np.inf])


def test_row_softmax_quarter_three_quarters():
    # exp(0) : exp(ln 3) = 1 : 3
    out = row_softmax(np.array([[0.0, np.log(3.0)]]))
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)


def test_row_softmax_handles_huge_scores():
    out = row_softmax(np.array([[1000.0, 999.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] > out[0, 1]


def test_row_softmax_rejects_bad_scale_and_shape():
    with pytest.raises(ShapeError):
        row_softmax(np.zeros(3))


def test_row_argmax_tie_goes_low():
    m = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0]])
    assert row_argmax(m).tolist() == [0, 1]


def test_row_functions_act_on_the_last_axis_of_any_stack(rng):
    m = rng.standard_normal((3, 4, 5))
    for fn in (row_argmax, row_softmax):
        stacked = fn(m)
        assert all(np.array_equal(stacked[i], fn(m[i])) for i in range(3))
        with pytest.raises(ShapeError):
            fn(np.zeros((2, 3, 0)))
        with pytest.raises(ShapeError):
            fn(np.zeros(4))


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 6)),
        elements=st.floats(-50, 50),
    )
)
def test_row_softmax_rows_live_on_the_simplex(m):
    out = row_softmax(m)
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-10, 10),
    ),
    st.floats(0.1, 10.0),
)
@settings(max_examples=50)
def test_row_softmax_scale_preserves_ordering(m, scale):
    # monotonicity is only observable where scores actually differ;
    # near-ties round to equal probabilities and order arbitrarily.
    # Callers scale the scores themselves, as maso.select does
    base = row_softmax(m)
    scaled = row_softmax(scale * m)
    for k in range(m.shape[0]):
        for i in range(m.shape[1]):
            for j in range(m.shape[1]):
                if m[k, i] - m[k, j] > 1e-9:
                    assert base[k, i] > base[k, j]
                    assert scaled[k, i] > scaled[k, j]


@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(2, 5)),
        elements=st.floats(-100, 100),
    )
)
def test_row_argmax_picks_a_maximum(m):
    idx = row_argmax(m)
    for i, j in enumerate(idx):
        assert m[i, j] == m[i].max()
        # first occurrence of the max
        assert np.all(m[i, : j] < m[i, j]) or j == 0
