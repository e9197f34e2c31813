import re

import numpy as np
import pytest

import masonet as M
from masonet.cli import generate_toy_dataset
from masonet.maso import MasoParams, forward, select
from masonet.ndcore import (
    DomainError,
    ShapeError,
    as_float,
    as_int,
    as_ints,
    as_seed,
    as_tensor,
)


def test_as_tensor_coerces_to_float64():
    a = as_tensor([[1, 2], [3, 4]], "x")
    assert a.dtype == np.float64
    assert a.shape == (2, 2)


def test_as_tensor_rejects_nan_and_inf():
    with pytest.raises(DomainError, match="^x must be finite, got nan$"):
        as_tensor([1.0, np.nan], "x")
    with pytest.raises(DomainError, match="^x must be finite, got inf$"):
        as_tensor(np.array([np.inf]), "x")


def test_as_ints_accepts_integers_and_integral_floats():
    assert as_ints(3, "n").dtype == np.int64 and int(as_ints(3.0, "n")) == 3
    assert as_ints([1, 2.0, -4], "n").tolist() == [1, 2, -4]
    assert as_ints(np.arange(3, dtype=np.int32), "n").tolist() == [0, 1, 2]
    assert as_ints([], "n").shape == (0,)


@pytest.mark.parametrize("value,shown", [
    (3.9, "3.9"), ([1, 2.5], "2.5"), (np.nan, "nan"), (np.inf, "inf"), (1e300, "1e+300"),
    (True, "True"), ("3", "3"), ([None], "None"),
])
def test_as_ints_names_the_field_and_the_bad_value(value, shown):
    with pytest.raises(DomainError, match=f"^width must be an integer, got {re.escape(shown)}$"):
        as_ints(value, "width")


@pytest.mark.parametrize("value,shown", [
    ([[1.0, "x"]], "x"), ("1.5", "1.5"), ([None], "None"), ([{}], "{}"), ([1j], "1j"),
    (True, "True"), ([[0.5, 1.0], [True, 2.0]], "True"), ([np.float64(0.5), np.True_], "True"),
    ([np.zeros(2), np.array([False, True])], "False"), (np.array([True, False]), "True"),
    (np.array(["1.0"]), "1.0"), (np.array([1.0], dtype=object), "1.0"),
], ids=["string-in-a-list", "string", "none", "dict", "complex", "bool", "bool-among-floats",
        "numpy-bool-among-floats", "bool-array-in-a-list", "bool-array", "string-array", "object-array"])
def test_as_tensor_names_the_field_and_the_first_non_real_entry(value, shown):
    # strings and booleans used to pass as numbers (numpy parses '1.5' and reads
    # True as 1) or to escape as numpy's bare ValueError
    with pytest.raises(DomainError, match=f"^W must be a real number, got {re.escape(shown)}$"):
        as_tensor(value, "W")
    with pytest.raises(ShapeError, match="^W is not a rectangular array: "):
        as_tensor([[1.0, "x"], [2.0]], "W")


class _NoWalk(np.ndarray):
    def __iter__(self):
        raise AssertionError("an ndarray's entries were walked")


def test_as_tensor_judges_an_ndarray_by_its_dtype():
    a = np.arange(6.0).reshape(2, 3)
    assert as_tensor(a, "x") is a
    assert as_tensor(np.arange(3), "x").dtype == np.float64
    # no Python loop over an ndarray's entries, at the top or inside a list
    rows = np.arange(6.0).reshape(2, 3).view(_NoWalk)
    assert as_tensor(rows, "x").tolist() == [[0, 1, 2], [3, 4, 5]]
    assert as_tensor([rows[0], rows[1]], "x").shape == (2, 3)


def test_as_float_and_as_int_take_one_checked_number():
    assert as_float(3, "lr") == 3.0 and type(as_float(np.float32(0.5), "lr")) is float
    assert as_int(3.0, "n") == 3 and type(as_int(np.int32(2), "n")) is int
    with pytest.raises(DomainError, match="^lr must be a real number, got True$"):
        as_float(True, "lr")
    with pytest.raises(DomainError, match="^lr must be a real number, got 0.1$"):
        as_float("0.1", "lr")
    with pytest.raises(DomainError, match="^lr must be finite, got nan$"):
        as_float(np.nan, "lr")
    with pytest.raises(ShapeError, match=r"^lr must be one number, got shape \(1,\)$"):
        as_float([0.1], "lr")
    with pytest.raises(ShapeError, match=r"^n must be one integer, got shape \(2,\)$"):
        as_int([1, 2], "n")


def test_as_ints_rejects_a_bool_among_integers():
    # numpy reads [2, True] as the integers [2, 1]
    with pytest.raises(DomainError, match="^shape must be an integer, got True$"):
        as_ints([2, True], "shape")


# --- the row kernel: maso.select over the last axis ---------------------------

def test_row_functions_act_on_the_last_axis_of_any_stack(rng):
    m = rng.standard_normal((3, 4, 5))
    for beta in (None, 0.5):
        out, sel = select(m, beta)
        assert all(np.array_equal(out[i], select(m[i], beta)[0]) for i in range(3))
        assert all(np.array_equal(sel[i], select(m[i], beta)[1]) for i in range(3))


def test_row_softmax_rejects_bad_scale_and_shape(rng):
    for beta in (None, 0.5):
        with pytest.raises(ShapeError, match=r"^select expects an \(\.\.\., R\) array with R >= 1, got shape \(4,\)$"):
            select(np.zeros(4), beta)
        with pytest.raises(ShapeError, match=r"got shape \(2, 3, 0\)$"):
            select(np.zeros((2, 3, 0)), beta)
    # the soft selection's scale eta = beta / (1 - beta) needs beta inside (0, 1)
    p = MasoParams(rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 3)))
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            forward(p, np.zeros(4), bad)


# --- seeds --------------------------------------------------------------------

def test_as_seed_takes_non_negative_integers():
    assert as_seed(0) == 0
    assert as_seed(np.int64(7)) == 7 and type(as_seed(np.uint8(3))) is int


@pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 2.0, True, np.bool_(False), "3", None])
def test_as_seed_rejects_negative_non_integer_and_boolean_seeds(seed):
    with pytest.raises(DomainError, match="^run seed must be a non-negative integer"):
        as_seed(seed, "run seed")


def _train_with_seed(seed):
    X, y = np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1])
    M.train(M.make_mlp([2, 2]), (X, y), M.TrainConfig(epochs=1, seed=seed))


def _fit_with_seed(seed):
    x = np.linspace(-1.0, 1.0, 9)
    M.fit_max_affine(M.FitProblem(x, x**2, 2, seed=seed))


# each entry point that seeds a generator: numpy's own ValueError is no MasonetError
@pytest.mark.parametrize("call", [
    lambda seed: M.make_mlp([2, 3, 2], seed=seed),
    generate_toy_dataset,
    _train_with_seed,
    lambda seed: M.convexity_probe(M.make_mlp([2, 3, 2]), 4, seed=seed),
    _fit_with_seed,
], ids=["make_mlp", "generate_toy_dataset", "train", "convexity_probe", "FitProblem"])
@pytest.mark.parametrize("seed", [-1, True])
def test_library_seeds_are_checked(call, seed):
    with pytest.raises(DomainError, match="seed must be a non-negative integer"):
        call(seed)


def _neighbours(query_index=0, k=1):
    return M.nearest_neighbors(M.make_mlp([2, 3, 2]), 2, query_index, np.arange(10.0).reshape(5, 2), k)


_SAMPLES = np.linspace(-1.0, 1.0, 9)


# each count or index the library takes: a fraction, a bool or a string used
# to be cut down, read as 1, or escape as a bare TypeError or IndexError
@pytest.mark.parametrize("call, field", [
    (lambda v: _neighbours(k=v), "neighbour count"),
    (lambda v: _neighbours(query_index=v), "query index"),
    (lambda v: M.convexity_probe(M.make_mlp([2, 3, 2]), v), "probe pair count"),
    (lambda v: M.TrainConfig(epochs=v), "epoch count"),
    (lambda v: M.TrainConfig(batch_size=v), "batch size"),
    (lambda v: M.FitProblem(_SAMPLES, _SAMPLES**2, v), "piece budget"),
    (lambda v: M.FitProblem(_SAMPLES, _SAMPLES**2, 2, max_iterations=v), "iteration cap"),
    (lambda v: M.grid_scan(M.make_mlp([2, 3, 2]), ((0, 1), (0, 1)), v, 1), "grid resolution"),
    (lambda v: M.pool_regions_2d((1, 4, 4), (v, 2)), "pooling window"),
], ids=["nn-k", "nn-query", "convexity_probe", "epochs", "batch_size", "R", "max_iterations",
        "grid_scan", "pool_regions_2d"])
@pytest.mark.parametrize("value", [2.5, True, "3"], ids=["fraction", "bool", "string"])
def test_library_counts_and_indices_are_checked(call, field, value):
    with pytest.raises(DomainError, match=f"^{field} must be an integer, got {value}$"):
        call(value)


# int() of a one-entry array raises numpy's bare TypeError
@pytest.mark.parametrize("call, field", [
    (lambda v: M.Activation("relu", v), "activation dim"),
    (lambda v: M.MaxPool(((0,),), v), "pool in_dim"),
    (lambda v: M.Network([M.Dense(np.eye(2), np.zeros(2))], (2,), v), "class_count"),
    (lambda v: _neighbours(k=v), "neighbour count"),
], ids=["activation", "pool", "network", "nn-k"])
def test_library_single_integers_reject_arrays(call, field):
    with pytest.raises(ShapeError, match=rf"^{field} must be one integer, got shape \(1,\)$"):
        call([1])


@pytest.mark.parametrize("window, stride", [((0, 2), None), ((2, 2), (2, 0))])
def test_pool_regions_need_positive_windows_and_strides(window, stride):
    # a zero window or stride used to divide by zero
    with pytest.raises(DomainError, match="pooling window and stride must be positive"):
        M.pool_regions_2d((1, 4, 4), window, stride)
