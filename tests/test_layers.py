import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masonet import layers as L
from masonet import learn
from masonet.analysis import decompose
from masonet.maso import forward, scores, select, select_backward, selection_to_affine
from masonet.ndcore import DomainError, ShapeError, WindowError
from test_analysis import every_kind_net, lowered_filter_gradient, maso_selected_affine


def conv_reference(filters, bias, stride, padding, x_img):
    """Independent sliding-window convolution used as the oracle.

    Correlation sums over explicit patches with zero padding; shares no
    code with the lowered-matrix route.
    """
    c_out, c_in, kh, kw = filters.shape
    _, h, w = x_img.shape
    sh, sw = stride
    if padding == "valid":
        h_out, w_out = (h - kh) // sh + 1, (w - kw) // sw + 1
        ph = pw = 0
    else:
        h_out, w_out = (h - 1) // sh + 1, (w - 1) // sw + 1
        ph, pw = (kh - 1) // 2, (kw - 1) // 2
    out = np.zeros((c_out, h_out, w_out))
    for o in range(c_out):
        for y in range(h_out):
            for x in range(w_out):
                acc = 0.0
                for i in range(c_in):
                    for p in range(kh):
                        for q in range(kw):
                            yy, xx = y * sh + p - ph, x * sw + q - pw
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += filters[o, i, p, q] * x_img[i, yy, xx]
                out[o, y, x] = acc + bias[o]
    return out


# --- layer validation -------------------------------------------------------

def test_dense_shape_check():
    with pytest.raises(ShapeError):
        L.Dense(np.zeros((3, 2)), np.zeros(2))


def test_activation_validation():
    with pytest.raises(DomainError):
        L.Activation("tanh", 4)
    with pytest.raises(DomainError):
        L.Activation("lrelu", 4, nu=0.0)
    assert L.Activation("lrelu", 4, nu=0.2).slopes() == (0.2, 1.0)
    assert L.Activation("abs", 4).slopes() == (-1.0, 1.0)


def test_leaky_slope_must_lie_below_one():
    # lrelu(nu) is max(nu z, z) only for nu < 1: at nu = 2 it is concave,
    # and at nu = 1 the two pieces tie everywhere, so the codes are arbitrary
    for nu in (1.0, 2.0):
        with pytest.raises(DomainError):
            L.Activation("lrelu", 3, nu=nu)


def test_conv_validation():
    f = np.zeros((2, 1, 3, 3))
    with pytest.raises(DomainError):
        L.Conv(f, np.zeros(2), (0, 1), "valid", (1, 8, 8))
    with pytest.raises(DomainError):
        L.Conv(f, np.zeros(2), (1, 1), "reflect", (1, 8, 8))
    with pytest.raises(ShapeError):
        L.Conv(f, np.zeros(3), (1, 1), "valid", (1, 8, 8))
    with pytest.raises(ShapeError):
        L.Conv(f, np.zeros(2), (1, 1), "valid", (1, 2, 2))  # kernel exceeds input


def test_pool_region_validation():
    with pytest.raises(DomainError):
        L.MaxPool(((0, 1), ()), 4)
    with pytest.raises(DomainError):
        L.MaxPool(((0, 9),), 4)
    with pytest.raises(DomainError):
        L.AvgPool((), 4)


def test_batchnorm_validation():
    with pytest.raises(ShapeError):
        L.BatchNorm(np.zeros(3), np.ones(3), np.ones(3), np.zeros(2))
    with pytest.raises(DomainError):
        L.BatchNorm(np.zeros(2), np.array([-1.0, 1.0]), np.ones(2), np.zeros(2))


def test_network_dimension_chain():
    with pytest.raises(ShapeError):
        L.Network([L.Dense(np.zeros((3, 2)), np.zeros(3)), L.Activation("relu", 4)], (2,), 4)
    with pytest.raises(ShapeError):
        L.Network([L.Dense(np.zeros((3, 2)), np.zeros(3))], (2,), 4)
    net = L.Network([L.Dense(np.zeros((3, 2)), np.zeros(3)), L.Activation("relu", 3)], (2,), 3)
    assert net.dims == (2, 3, 3)


_CONV_F = np.zeros((2, 1, 3, 3))


@pytest.mark.parametrize("build,field", [
    (lambda: L.Activation("relu", 3.9), "activation dim"),
    (lambda: L.Activation("relu", True), "activation dim"),
    (lambda: L.Activation("relu", "3"), "activation dim"),
    (lambda: L.MaxPool(((0, 1), (2, 3)), 4.5), "pool in_dim"),
    (lambda: L.AvgPool(((0, 1.5), (2, 3)), 4), "pool region index"),
    (lambda: L.Conv(_CONV_F, np.zeros(2), (1.5, 1), "valid", (1, 8, 8)), "conv stride"),
    (lambda: L.Conv(_CONV_F, np.zeros(2), (1, 1), "valid", (1, 4.7, 4)), "conv in_shape"),
    (lambda: L.Network([L.Dense(np.zeros((3, 2)), np.zeros(3))], (2.5,), 3), "input_shape"),
    (lambda: L.Network([L.Dense(np.zeros((2, 2)), np.zeros(2))], (2,), 2.6), "class_count"),
    (lambda: L.make_mlp([2, 4.5, 3]), "mlp width"),
], ids=["dim", "dim-bool", "dim-str", "in_dim", "region", "stride", "in_shape", "input_shape",
        "class_count", "mlp-width"])
def test_integer_fields_reject_non_integers(build, field):
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        build()


@pytest.mark.parametrize("build,named", [
    (lambda: L.Network([], [2, []], 2), "input_shape is not a rectangular array"),
    (lambda: L.Dense([[1.0], [1.0, 2.0]], [0, 0]), "dense W is not a rectangular array"),
    (lambda: L.MaxPool([[0, [1]]], 2), "pool region index is not a rectangular array"),
    (lambda: L.Dense(eval("[" * 70 + "0.0" + "]" * 70), [0.0]), "dense W is not a rectangular array"),
], ids=["input_shape", "dense-W", "pool-region", "dense-W-70-deep"])
def test_ragged_fields_raise_shape_error(build, named):
    # numpy's bare ValueError used to escape here
    with pytest.raises(ShapeError, match=f"^{named}: "):
        build()


_BN = dict(mean=np.zeros(2), var=np.ones(2), scale=np.ones(2), shift=np.zeros(2))


@pytest.mark.parametrize("build,error,named", [
    (lambda: L.Dense([["a"]], [0.0]), DomainError, "dense W must be a real number, got a"),
    (lambda: L.Dense([[True]], [0.0]), DomainError, "dense W must be a real number, got True"),
    (lambda: L.Dense([[0.5, True]], [0.0]), DomainError, "dense W must be a real number, got True"),
    (lambda: L.Dense(np.ones((1, 1), dtype=bool), [0.0]), DomainError, "dense W must be a real number"),
    (lambda: L.Conv(_CONV_F, ["0", 0.0], (1, 1), "valid", (1, 8, 8)), DomainError,
     "conv bias must be a real number, got 0"),
    (lambda: L.BatchNorm(**{**_BN, "var": [1.0, False]}), DomainError, "batch-norm var must be a real number"),
    (lambda: L.Activation("relu", 3, nu=True), DomainError, "activation nu must be a real number, got True"),
    (lambda: L.Activation("lrelu", 3, nu="0.1"), DomainError, "activation nu must be a real number, got 0.1"),
    (lambda: L.Activation("lrelu", 3, nu=[0.1]), ShapeError, "activation nu must be one number"),
    (lambda: L.BatchNorm(**_BN, epsilon=True), DomainError, "batch-norm epsilon must be a real number"),
    (lambda: L.BatchNorm(**_BN, epsilon=float("nan")), DomainError, "batch-norm epsilon must be finite"),
], ids=["dense-W-string", "dense-W-bool", "dense-W-bool-among-floats", "dense-W-bool-array", "conv-bias-string",
        "batchnorm-var-bool", "activation-nu-bool", "activation-nu-string", "activation-nu-list",
        "batchnorm-epsilon-bool", "batchnorm-epsilon-nan"])
def test_float_fields_take_only_real_numbers(build, error, named):
    # a string used to escape as numpy's bare ValueError, and a bool to pass as 0 or 1
    with pytest.raises(error, match=f"^{named}"):
        build()


def test_integer_fields_accept_integral_floats():
    conv = L.Conv(_CONV_F, np.zeros(2), (2.0, 1.0), "valid", (1.0, 8.0, 8.0))
    assert conv.stride == (2, 1) and conv.in_shape == (1, 8, 8)
    net = L.make_mlp([2.0, 4.0, 3.0])
    assert net.dims == (2, 4, 4, 3) and net.class_count == 3
    assert L.Activation("relu", 3.0).dim == 3
    assert L.MaxPool(((0.0, 1.0),), 2.0).regions == ((0, 1),)
    for value in (conv.stride[0], conv.in_shape[1], net.class_count, net.input_shape[0]):
        assert type(value) is int


# --- operator-as-MASO equivalences ------------------------------------------

def test_dense_as_maso_is_the_affine_map(rng):
    W, b = rng.standard_normal((4, 6)), rng.standard_normal(4)
    p = L.Dense(W, b).as_maso()
    assert p.R == 1
    z = rng.standard_normal(6)
    out, _ = forward(p, z)
    assert np.allclose(out, W @ z + b, atol=1e-14)


@pytest.mark.parametrize("kind,fn", [
    ("relu", lambda z, nu: np.maximum(z, 0.0)),
    ("lrelu", lambda z, nu: np.where(z > 0, z, nu * z)),
    ("abs", lambda z, nu: np.abs(z)),
])
def test_activation_as_maso_matches_elementwise(rng, kind, fn):
    p = L.Activation(kind, 7, nu=0.05).as_maso()
    for _ in range(20):
        z = rng.standard_normal(7)
        out, _ = forward(p, z)
        assert np.allclose(out, fn(z, 0.05), atol=1e-14)


def test_maxpool_as_maso_matches_direct_max(rng):
    regions = ((0, 1, 2), (3, 4), (5,))
    p = L.MaxPool(regions, 6).as_maso()
    assert p.R == 3  # padded to the largest region
    for _ in range(20):
        z = rng.standard_normal(6)
        out, _ = forward(p, z)
        assert np.allclose(out, [z[:3].max(), z[3:5].max(), z[5]], atol=1e-14)


def test_avgpool_as_maso_matches_direct_mean(rng):
    regions = ((0, 1), (2, 3, 4))
    p = L.AvgPool(regions, 5).as_maso()
    assert p.R == 1
    z = rng.standard_normal(5)
    out, _ = forward(p, z)
    assert np.allclose(out, [z[:2].mean(), z[2:].mean()], atol=1e-14)


def test_compose_dense_then_relu(rng):
    W, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
    lin = L.Dense(W, b).as_maso()
    act = L.Activation("relu", 5).as_maso()
    composed = L.compose_layer_maso(lin, act)
    for _ in range(100):
        z = rng.standard_normal(3)
        out, _ = forward(composed, z)
        assert np.allclose(out, np.maximum(W @ z + b, 0.0), atol=1e-12)


def test_compose_requires_degenerate_first_stage(rng):
    act = L.Activation("relu", 3).as_maso()
    with pytest.raises(ShapeError):
        L.compose_layer_maso(act, act)


def test_compose_dimension_mismatch(rng):
    lin = L.Dense(rng.standard_normal((4, 3)), np.zeros(4)).as_maso()
    act = L.Activation("relu", 5).as_maso()
    with pytest.raises(ShapeError):
        L.compose_layer_maso(lin, act)


# --- convolution lowering ----------------------------------------------------

@pytest.mark.parametrize("padding", ["valid", "same-zero"])
@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)])
def test_conv_matrix_equals_sliding_window(rng, padding, stride):
    conv = L.Conv(
        rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3), stride, padding, (2, 6, 7)
    )
    x = rng.standard_normal(2 * 6 * 7)
    ref = conv_reference(conv.filters, conv.bias, stride, padding, x.reshape(2, 6, 7))
    got = L.conv_to_matrix(conv) @ x + conv.bias_flat()
    assert got.shape == ref.reshape(-1).shape
    assert np.max(np.abs(got - ref.reshape(-1))) < 1e-10


def test_conv_known_1d_style_values():
    # single row image, kernel [1, 2]: valid outputs are x[i] + 2 x[i+1]
    conv = L.Conv(np.array([[[[1.0, 2.0]]]]), np.zeros(1), (1, 1), "valid", (1, 1, 3))
    M = L.conv_to_matrix(conv)
    assert np.array_equal(M, np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 2.0]]))


def test_conv_same_zero_geometry():
    conv = L.Conv(np.ones((1, 1, 3, 3)), np.zeros(1), (2, 2), "same-zero", (1, 7, 7))
    assert L.conv_out_shape(conv) == (1, 4, 4)  # ceil(7/2)
    # corner output reads only the four in-range taps of the all-ones kernel
    x = np.ones(49)
    out = L.conv_to_matrix(conv) @ x
    assert out[0] == 4.0  # (3-1)//2 = 1 pad row/col of zeros at the corner


def within_rounding(got, want, scale, tol=1e-15):
    """|got - want| <= tol * scale in every entry, with scale the summed
    magnitudes of the terms behind want: a relative bound on reordered sums
    that cancellation cannot break."""
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * scale))


def within(got, want, tol=1e-12):
    """Same shape, and |got - want| <= tol (1 + |want|) in every entry."""
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gathered_conv_equals_the_lowered_matrix(data):
    # forward, backward, pull with extra leading axes and the selected map
    # against conv_to_matrix; the gathers sum in another order than the
    # matrix products, so they agree to rounding
    c_in, c_out, kh, kw = (data.draw(st.integers(1, n)) for n in (3, 3, 4, 4))
    padding = data.draw(st.sampled_from(["valid", "same-zero"]))
    h, w = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
    if padding == "valid":
        h, w = h + kh - 1, w + kw - 1
    stride = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    conv = L.Conv(rng.standard_normal((c_out, c_in, kh, kw)), rng.standard_normal(c_out), stride,
                  padding, (c_in, h, w))
    M = L.conv_to_matrix(conv)
    d_in, d_out = conv.dims()
    # an entry budget of `step` forward rows, and a batch on either side of it
    step = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(max(step - 1, 1), 2 * step + 1))
    Z = rng.standard_normal((n, d_in))
    G = rng.standard_normal((n, d_out))
    G4 = rng.standard_normal((n, 2, 3, d_out))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(L, "_GATHER_ENTRIES", step * L._conv_windows(conv)[0].size)
        out, cache = conv.forward(Z)
        G_in, grads, dbeta = conv.backward(cache, G)
        pulled = conv.pull(cache, G4)
        A, b = conv.selected_affine(conv.forward(Z[:1])[1])
    assert set(cache) == {"Z"}
    # the geometry itself against the loops, which read no library index
    ref = conv_reference(conv.filters, conv.bias, stride, padding, Z[0].reshape(c_in, h, w))
    assert within(M @ Z[0] + conv.bias_flat(), ref.ravel())
    assert within(out, Z @ M.T + conv.bias_flat())
    assert within(G_in, G @ M)
    assert within(grads["filters"], lowered_filter_gradient(conv, Z, G))
    assert within(grads["bias"], G.reshape(n, c_out, -1).sum(axis=(0, 2)))
    assert dbeta is None
    assert within(pulled, G4 @ M)
    assert np.array_equal(A, M) and np.array_equal(b, conv.bias_flat())
    # any rows, repeated or none, lower bit for bit as in the whole matrix
    rows = rng.integers(0, d_out, int(rng.integers(0, 2 * d_out + 1)))
    assert np.array_equal(L.conv_to_matrix(conv, rows), M[rows])
    assert within_rounding(conv.selected_sqnorms(None), (M * M).sum(axis=1), (M * M).sum(axis=1), 1e-14)
    for bad in ([-1], [d_out], [[0]], [0.5]):
        with pytest.raises(DomainError, match="conv matrix row"):
            L.conv_to_matrix(conv, bad)


@pytest.mark.parametrize("filters, stride, padding, in_shape", [
    ((0, 2, 3, 3), (1, 1), "same-zero", (2, 4, 4)),  # no output channel
    ((2, 1, 3, 3), (2, 1), "same-zero", (1, 0, 5)),  # an empty image
    ((2, 1, 0, 2), (1, 1), "valid", (1, 3, 3)),  # an empty kernel
    ((2, 0, 3, 3), (1, 2), "same-zero", (0, 4, 4)),  # no input channel
], ids=str)
def test_zero_size_convs_equal_the_lowered_matrix(filters, stride, padding, in_shape):
    rng = np.random.default_rng(0)
    conv = L.Conv(rng.standard_normal(filters), rng.standard_normal(filters[0]), stride, padding, in_shape)
    M = L.conv_to_matrix(conv)
    assert np.array_equal(L.conv_to_matrix(conv, np.arange(M.shape[0])), M)
    for n in (0, 2):
        Z = rng.standard_normal((n, M.shape[1]))
        G = rng.standard_normal((n, 3, M.shape[0]))
        out, cache = conv.forward(Z)
        assert within(out, Z @ M.T + conv.bias_flat())
        assert within(conv.pull(cache, G), G @ M)
        assert within(conv.backward(cache, G[:, 0])[1]["filters"], lowered_filter_gradient(conv, Z, G[:, 0]))


def test_avgpool_push_gathers_weighted_rows(rng, monkeypatch):
    # ragged, overlapping and duplicate-index regions; the push builds no
    # (K, in) averaging matrix, so nothing is scattered through the pool
    pool = L.AvgPool(((0, 1, 2), (2, 3), (4, 4, 1), (5,), (0, 5, 5, 5, 2)), 6)
    Asel = pool.selected_affine(pool.forward(np.zeros((1, 6)))[1])[0]
    assert np.allclose(Asel[[2, 4], [4, 5]], [2 / 3, 3 / 5])  # a listed-twice index counts twice
    monkeypatch.setattr(L._Pool, "_scatter", None)
    for _ in range(20):
        A, b = rng.standard_normal((6, 7)), rng.standard_normal(6)
        A2, b2 = pool.push({}, A, b)
        assert within_rounding(A2, Asel @ A, np.abs(Asel) @ np.abs(A))
        assert within_rounding(b2, Asel @ b, np.abs(Asel) @ np.abs(b))


def test_conv_forward_backward_and_pull_lower_nothing(rng, monkeypatch):
    # only the selected map and the prefix walk lower a convolution
    def refuse(conv):
        raise AssertionError("a convolution was lowered")

    monkeypatch.setattr(L, "conv_to_matrix", refuse)
    net = every_kind_net(rng)
    X = rng.standard_normal((4, net.dims[0]))
    learn.gradients(net, X, np.arange(4) % 3, mode="soft")
    decompose(net, X[0])
    _, caches = L.network_forward_batch(net, X)
    assert set(caches[0]) == {"Z"}
    assert all(set(caches[3][part]) == {"Z"} for part in ("conv", "skip"))


def test_conv_training_step_memory_is_bounded():
    # one hard step on 64 images of 3x32x32: the lowered matrix alone would
    # take 403 MB; the gathered windows come in chunks of _GATHER_ENTRIES
    rng = np.random.default_rng(0)
    shape = (3, 32, 32)
    conv = L.Conv(rng.standard_normal((16, 3, 3, 3)) * 0.3, np.zeros(16), (1, 1), "same-zero", shape)
    d = conv.dims()[1]
    head = L.Dense(rng.standard_normal((10, d)) * 0.01, np.zeros(10))
    net = L.Network([conv, L.Activation("relu", d), head], shape, 10)
    X = rng.standard_normal((64, 3 * 32 * 32))
    y = rng.integers(0, 10, 64)
    tracemalloc.start()
    try:
        _, grads = learn.gradients(net, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads["0.filters"].shape == conv.filters.shape
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def conv_skip_net(conv_filters, block_filters, skip_filters):
    """conv -> abs -> skip block -> dense on 2x4x4 inputs, built from the filters."""
    shape = (2, 4, 4)
    conv = L.Conv(conv_filters, np.array([0.1, -0.2]), (1, 1), "same-zero", shape)
    block = L.SkipBlock(
        L.Conv(block_filters, np.array([0.05, 0.0]), (1, 1), "same-zero", shape),
        L.Activation("relu", 32),
        L.Conv(skip_filters, np.zeros(2), (1, 1), "same-zero", shape),
        np.linspace(-0.1, 0.1, 32),
    )
    head = L.Dense(np.linspace(-1.0, 1.0, 96).reshape(3, 32), np.zeros(3))
    return L.Network([conv, L.Activation("abs", 32), block, head], shape, 3)


def test_forward_sees_filters_edited_in_place(rng):
    # each edit must reach every route that lowers a convolution: nothing
    # computed from the old filters may survive the first forward
    net = conv_skip_net(rng.standard_normal((2, 2, 3, 3)), rng.standard_normal((2, 2, 3, 3)),
                        rng.standard_normal((2, 2, 1, 1)))
    X = rng.standard_normal((5, 32))
    y = np.array([0, 1, 2, 0, 1])

    def results(n):
        form = decompose(n, X[0])
        return L.network_forward(n, X[0])[0], form.A, form.b, learn.gradients(n, X, y)[0]

    block = net.layers[2]
    for filters in (net.layers[0].filters, block.conv.filters, block.skip.filters):
        before = results(net)
        filters *= -2.0
        fresh = conv_skip_net(net.layers[0].filters.copy(), block.conv.filters.copy(),
                              block.skip.filters.copy())
        for got, want, old in zip(results(net), results(fresh), before):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, old)


def test_conv_then_maxpool_composes_to_one_maso(rng):
    conv = L.Conv(rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2), (1, 1), "valid", (1, 5, 5))
    out_shape = L.conv_out_shape(conv)
    regions, _ = L.pool_regions_2d(out_shape, (3, 3), (3, 3))
    pool = L.MaxPool(regions, int(np.prod(out_shape)))
    composed = L.compose_layer_maso(conv.as_maso(), pool.as_maso())
    for _ in range(100):
        x = rng.standard_normal(25)
        direct = L.conv_to_matrix(conv) @ x + conv.bias_flat()
        pooled = np.array([direct[list(r)].max() for r in regions])
        got, _ = forward(composed, x)
        assert np.max(np.abs(got - pooled)) < 1e-10


# --- forward evaluation -------------------------------------------------------

def test_hard_forward_activation_codes(rng):
    act = L.Activation("relu", 4)
    Z = np.array([[1.0, -1.0, 0.0, 2.0]])
    out, cache = act.forward(Z)
    assert np.array_equal(out[0], [1.0, 0.0, 0.0, 2.0])
    # zero input sits in the inactive region (ties go low)
    assert cache["codes"][0].tolist() == [1, 0, 0, 1]


def test_hard_forward_maxpool_codes(rng):
    pool = L.MaxPool(((0, 1), (2, 3)), 4)
    Z = np.array([[3.0, 1.0, 2.0, 5.0]])
    out, cache = pool.forward(Z)
    assert np.array_equal(out[0], [3.0, 5.0])
    assert cache["codes"][0].tolist() == [0, 1]


def test_network_forward_matches_manual_chain(rng):
    W1, b1 = rng.standard_normal((6, 3)), rng.standard_normal(6)
    W2, b2 = rng.standard_normal((2, 3)), rng.standard_normal(2)
    net = L.Network(
        [
            L.Dense(W1, b1),
            L.Activation("relu", 6),
            L.MaxPool(((0, 1), (2, 3), (4, 5)), 6),
            L.Dense(W2, b2),
        ],
        (3,),
        2,
    )
    for _ in range(25):
        x = rng.standard_normal(3)
        h = np.maximum(W1 @ x + b1, 0.0)
        pooled = np.array([h[:2].max(), h[2:4].max(), h[4:].max()])
        expect = W2 @ pooled + b2
        got, sels = L.network_forward(net, x)
        assert np.allclose(got, expect, atol=1e-12)
        assert sels[0] is None and sels[3] is None
        assert sels[1] is not None and sels[2] is not None


def test_network_forward_batch_agrees_with_single(rng):
    net = L.make_mlp([4, 7, 3], seed=5)
    X = rng.standard_normal((10, 4))
    batch_out, _ = L.network_forward_batch(net, X)
    for i in range(10):
        single, _ = L.network_forward(net, X[i])
        # BLAS may pick different kernels per batch shape; agreement is
        # to rounding, not bitwise
        assert np.allclose(batch_out[i], single, rtol=1e-12, atol=1e-14)


def test_one_row_and_batched_codes_differ_only_near_a_boundary():
    # a one-row Z @ W.T may round unlike the same row in a batch, so the
    # codes may differ, but only for a unit within that rounding of a tie
    net = L.make_mlp([2, 45, 3, 4], seed=0)
    rng = np.random.default_rng(0)
    W = net.layers[0].W  # make_mlp's biases are zero, so these rows sit on first-layer boundaries
    units, t = rng.integers(0, 45, 100), rng.standard_normal(100)
    X = np.vstack([rng.standard_normal((100, 2)), t[:, None] * np.stack([-W[units, 1], W[units, 0]], axis=1)])
    _, batched = L.network_forward_batch(net, X)
    for i in range(len(X)):
        _, single = L.network_forward_batch(net, X[i : i + 1])
        for layer, one, many in zip(net.layers, single, batched):
            if layer.selector and not np.array_equal(one["codes"][0], many["codes"][i]):
                assert layer.near_boundary(one, 1e-9), i


def test_bn_fold_matches_normalization(rng):
    bn = L.BatchNorm(
        rng.standard_normal(5),
        rng.random(5) + 0.1,
        rng.standard_normal(5),
        rng.standard_normal(5),
        epsilon=1e-5,
    )
    scale, shift = L.bn_fold_affine(bn)
    z = rng.standard_normal(5)
    expect = bn.scale * (z - bn.mean) / np.sqrt(bn.var + bn.epsilon) + bn.shift
    assert np.allclose(z * scale + shift, expect, atol=1e-12)


def test_bn_statistics_do_not_depend_on_memory_order(rng):
    # numpy sums an F-ordered array's columns in another order than a
    # C-ordered one's; every layout must give the C-ordered bits
    bn = L.BatchNorm(rng.standard_normal(7), rng.random(7) + 0.5,
                     rng.standard_normal(7), rng.standard_normal(7))
    Z = rng.standard_normal((200, 7)) * 3.0 + 1.0
    G = rng.standard_normal((200, 7))
    want, cache = bn.forward(Z, batch_stats=True)
    want_in, want_grads, _ = bn.backward(cache, G)
    for Zl in (Z, np.asfortranarray(Z)):
        out, cache = bn.forward(Zl, batch_stats=True)
        assert np.array_equal(out, want)
        for Gl in (G, np.asfortranarray(G)):
            G_in, grads, _ = bn.backward(cache, Gl)
            assert np.array_equal(G_in, want_in)
            assert all(np.array_equal(grads[k], want_grads[k]) for k in ("scale", "shift"))
    # the epoch-end calibration sets the same statistics from either layout
    bn.calibrate(Z)
    mean, var = bn.mean, bn.var
    bn.calibrate(np.asfortranarray(Z))
    assert np.array_equal(bn.mean, mean) and np.array_equal(bn.var, var)


def make_skip_block(rng, shape=(2, 4, 4)):
    dim = int(np.prod(shape))
    conv = L.Conv(rng.standard_normal((shape[0], shape[0], 3, 3)) * 0.4,
                  rng.standard_normal(shape[0]) * 0.1, (1, 1), "same-zero", shape)
    act = L.Activation("relu", dim)
    skip = L.Conv(rng.standard_normal((shape[0], shape[0], 1, 1)) * 0.4,
                  np.zeros(shape[0]), (1, 1), "same-zero", shape)
    return L.SkipBlock(conv, act, skip, rng.standard_normal(dim) * 0.1)


def test_skip_block_forward_by_hand(rng):
    blk = make_skip_block(rng)
    z = rng.standard_normal(32)
    expect = (
        L.conv_to_matrix(blk.skip) @ z
        + np.maximum(L.conv_to_matrix(blk.conv) @ z + blk.conv.bias_flat(), 0.0)
        + blk.skip_bias
    )
    assert np.allclose(blk.forward(z[None, :])[0][0], expect, atol=1e-12)


def test_skip_block_identity_like_cases(rng):
    # zero conv: output = skip z + relu(bias) + skip_bias
    shape = (1, 3, 3)
    conv = L.Conv(np.zeros((1, 1, 1, 1)), np.array([2.0]), (1, 1), "same-zero", shape)
    eye = L.Conv(np.ones((1, 1, 1, 1)), np.zeros(1), (1, 1), "same-zero", shape)
    blk = L.SkipBlock(conv, L.Activation("relu", 9), eye, np.full(9, 0.5))
    z = rng.standard_normal(9)
    assert np.allclose(blk.forward(z[None, :])[0][0], z + 2.0 + 0.5, atol=1e-12)
    # zero skip: block reduces to conv + activation
    zero_skip = L.Conv(np.zeros((1, 1, 1, 1)), np.zeros(1), (1, 1), "same-zero", shape)
    blk2 = L.SkipBlock(conv, L.Activation("relu", 9), zero_skip, np.zeros(9))
    assert np.allclose(blk2.forward(z[None, :])[0][0], np.full(9, 2.0), atol=1e-12)


def test_skip_block_requires_bias_free_skip(rng):
    shape = (1, 3, 3)
    conv = L.Conv(np.zeros((1, 1, 1, 1)), np.zeros(1), (1, 1), "same-zero", shape)
    biased = L.Conv(np.ones((1, 1, 1, 1)), np.array([1.0]), (1, 1), "same-zero", shape)
    with pytest.raises(DomainError):
        L.SkipBlock(conv, L.Activation("relu", 9), biased, np.zeros(9))


def test_layer_selected_affine_reproduces_each_layer(rng):
    z6 = rng.standard_normal(6)
    cases = [
        (L.Dense(rng.standard_normal((4, 6)), rng.standard_normal(4)), z6),
        (L.Activation("lrelu", 6, nu=0.1), z6),
        (L.MaxPool(((0, 1, 2), (3, 4, 5)), 6), z6),
        (L.AvgPool(((0, 1, 2), (3, 4, 5)), 6), z6),
        (
            L.BatchNorm(rng.standard_normal(6), rng.random(6) + 0.1,
                        rng.standard_normal(6), rng.standard_normal(6)),
            z6,
        ),
        (make_skip_block(rng), rng.standard_normal(32)),
        (
            L.Conv(rng.standard_normal((1, 1, 2, 2)), rng.standard_normal(1),
                   (1, 1), "valid", (1, 2, 3)),
            rng.standard_normal(6),
        ),
    ]
    for layer, z in cases:
        direct, cache = layer.forward(z[None, :])
        A, b = layer.selected_affine(cache)
        assert np.allclose(A @ z + b, direct[0], atol=1e-12), type(layer).__name__



def push_cases(rng):
    """(layer, z) for every layer kind.  z takes few distinct values, so
    exact zeros before an activation and exact ties inside a max-pool
    region occur; pool regions have unequal lengths, so some are padded."""
    n = int(rng.integers(3, 9))

    def coarse(d):
        return rng.integers(-2, 3, d).astype(float)

    regions = tuple(
        tuple(rng.integers(0, n, int(rng.integers(1, n + 1))).tolist())
        for _ in range(int(rng.integers(2, 5)))
    )
    tied = coarse(n)
    tied[list(regions[0])] = 1.0  # every entry of the first region ties
    c, h, w = int(rng.integers(1, 3)), int(rng.integers(3, 6)), int(rng.integers(3, 6))
    k = int(rng.integers(1, min(h, w) + 1))
    conv = L.Conv(rng.standard_normal((2, c, k, k)), rng.standard_normal(2),
                  (int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                  ("valid", "same-zero")[int(rng.integers(2))], (c, h, w))
    skip_z = np.zeros(32) if rng.random() < 0.3 else coarse(32)
    cases = [(L.Dense(rng.standard_normal((4, n)), rng.standard_normal(4)), coarse(n))]
    cases += [(L.Activation(kind, n, nu=0.1), coarse(n)) for kind in L.ACTIVATION_SLOPES]
    cases += [
        (L.MaxPool(regions, n), tied),
        (L.AvgPool(regions, n), coarse(n)),
        (L.BatchNorm(rng.standard_normal(n), rng.random(n) + 0.1,
                     rng.standard_normal(n), rng.standard_normal(n)), coarse(n)),
        (conv, rng.standard_normal(c * h * w)),
        (make_skip_block(rng), skip_z),
    ]
    return cases


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_maso_form_equals_the_inference_forward(seed):
    # every layer of an every_kind_net at its forward input, then push_cases
    # with their exact activation zeros and max-pool ties: the MASO form's
    # outputs, codes and selected maps are the forward's
    rng = np.random.default_rng(seed)
    net = every_kind_net(rng)
    Z = rng.standard_normal((3, net.dims[0]))
    cases = []
    for layer in net.layers:
        cases.append((layer, Z))
        Z = layer.forward(Z)[0]
    cases += [(layer, z[None, :]) for layer, z in push_cases(rng)]
    for layer, Z in cases:
        name = type(layer).__name__
        p = layer.as_maso()
        s = scores(p, Z)
        out, codes = select(s)
        want, cache = layer.forward(Z)
        assert np.all(np.abs(out - want) <= 1e-12 * (1.0 + np.abs(want))), name
        if cache.get("codes") is None:
            assert p.R == 1, name
        else:
            tied = np.zeros(codes.shape, dtype=bool)
            if isinstance(layer, L.SkipBlock):
                # the MASO sums each score in another order than the forward's
                # pre-activation, so an exact tie may round either way
                tied = (cache["act"]["Z"] == 0) | (s[..., 0] == s[..., 1])
            assert np.array_equal(codes[~tied], cache["codes"][~tied]), name
            codes = np.where(tied, cache["codes"], codes)
        for i in range(Z.shape[0]):
            A, b = selection_to_affine(p, codes[i])
            Asel, bsel = layer.selected_affine(layer.forward(Z[i : i + 1])[1])
            assert np.array_equal(A, Asel) and np.array_equal(b, bsel), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_selected_map_and_maso_form_come_from_pull(seed):
    # every layer of an every_kind_net at its forward input, then push_cases:
    # the dense selected map is the identity pulled through the layer, also
    # where dense, conv and skip block return their own matrix, and region r
    # of the MASO form is the map selected when every code reads r
    rng = np.random.default_rng(seed)
    net = every_kind_net(rng)
    z = rng.standard_normal(net.dims[0])
    cases = []
    for layer in net.layers:
        cases.append((layer, z))
        z = layer.forward(z[None, :])[0][0]
    cases += push_cases(rng)
    for layer, z in cases:
        name = type(layer).__name__
        _, cache = layer.forward(z[None, :])
        A, b = layer.selected_affine(cache)
        assert np.array_equal(A, layer.pull(cache, np.eye(layer.dims()[1])[None])[0]), name
        assert np.array_equal(b, np.reshape(layer.selected_offset(cache), -1)), name
        p = layer.as_maso()
        assert p.R == layer.pieces, name
        for r in range(p.R):
            if layer.selector:
                cache["codes"][...] = r
            A, b = layer.selected_affine(cache)
            assert np.array_equal(p.A[:, r], A) and np.array_equal(p.B[:, r], b), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_push_equals_the_selected_product(seed):
    rng = np.random.default_rng(seed)
    for layer, z in push_cases(rng):
        name = type(layer).__name__
        _, cache = layer.forward(z[None, :])
        Asel, bsel = maso_selected_affine(layer, z)
        A = rng.standard_normal((z.shape[0], int(rng.integers(2, 6))))
        b = rng.standard_normal(z.shape[0])
        A2, b2 = layer.push(cache, A, b)
        if isinstance(layer, L.AvgPool):
            # a weighted row gather: it sums each region's rows in another
            # order than the product, so the two agree to rounding
            assert within_rounding(A2, Asel @ A, np.abs(Asel) @ np.abs(A)), name
            assert within_rounding(b2, Asel @ b + bsel, np.abs(Asel) @ np.abs(b) + np.abs(bsel)), name
        else:
            assert np.array_equal(A2, Asel @ A), name
            assert np.array_equal(b2, Asel @ b + bsel), name
        # the first step of a walk takes the layer's own selected map
        A1, b1 = layer.selected_affine(cache)
        assert np.array_equal(A1, Asel) and np.array_equal(b1, bsel), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pull_is_the_transposed_selected_map_of_each_row(seed):
    # every layer of an every_kind_net at its forward input, then push_cases
    # (all three activations, overlapping max-pool regions) with three rows
    # each: pull is G @ Asel row by row, selected_offset is bsel, and pull is
    # the hard backward's input gradient
    rng = np.random.default_rng(seed)
    net = every_kind_net(rng)
    Z = rng.standard_normal((3, net.dims[0]))
    cases = []
    for layer in net.layers:
        cases.append((layer, Z))
        Z = layer.forward(Z)[0]
    cases += [(layer, np.stack([z, rng.permutation(z), -z])) for layer, z in push_cases(rng)]
    for layer, Z in cases:
        name = type(layer).__name__
        _, cache = layer.forward(Z)
        n, (d_in, d_out) = Z.shape[0], layer.dims()
        G = rng.standard_normal((n, int(rng.integers(1, 4)), d_out))
        pulled = layer.pull(cache, G)
        assert pulled.shape == (n, G.shape[1], d_in), name
        offsets = np.broadcast_to(layer.selected_offset(cache), (n, d_out))
        for i in range(n):
            Asel, bsel = layer.selected_affine(layer.forward(Z[i : i + 1])[1])
            want = G[i] @ Asel
            assert np.all(np.abs(pulled[i] - want) <= 1e-12 * (1.0 + np.abs(want))), name
            assert np.array_equal(offsets[i], bsel), name
        G = G[:, 0]
        assert np.array_equal(layer.backward(cache, G)[0], layer.pull(cache, G)), name


def test_conv_windows_are_shared_read_only_and_never_stale(rng):
    shape = (2, 5, 5)
    conv = L.Conv(rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(2), (1, 1),
                  "same-zero", shape)
    windows = L._conv_windows(conv)
    for a in windows:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        windows[0][0, 0] = 0
    # another conv of the same geometry shares both indexes, whatever its filters
    twin = L.Conv(rng.standard_normal((2, 2, 3, 3)), np.zeros(2), (1, 1), "same-zero", shape)
    assert all(a is w for a, w in zip(L._conv_windows(twin), windows))
    # a different stride or padding gets its own index, and lowers correctly
    x = rng.standard_normal(50)
    for stride, padding in (((2, 1), "same-zero"), ((1, 1), "valid")):
        other = L.Conv(conv.filters, conv.bias, stride, padding, shape)
        assert not all(np.array_equal(a, w) for a, w in zip(L._conv_windows(other), windows))
        expect = conv_reference(conv.filters, conv.bias, stride, padding, x.reshape(shape))
        assert np.allclose(L.conv_to_matrix(other) @ x + other.bias_flat(), expect.ravel(), atol=1e-12)
    # filters edited in place reach the next lowering: nothing lowered is kept
    before = L.conv_to_matrix(conv)
    conv.filters[1, 0, 1, 1] += 1.0
    after = L.conv_to_matrix(conv)
    assert not np.array_equal(before, after)
    expect = conv_reference(conv.filters, conv.bias, (1, 1), "same-zero", x.reshape(shape))
    assert np.allclose(after @ x + conv.bias_flat(), expect.ravel(), atol=1e-12)


def selected_map(layer):
    """The dense map a layer selects at the zero input."""
    return layer.selected_affine(layer.forward(np.zeros((1, layer.dims()[0])))[1])[0]


def test_pool_geometry_is_read_only_and_matrices_fresh():
    regions = ((0, 1, 2), (2, 3), (4,))
    pool = L.AvgPool(regions, 5)
    idx = L.MaxPool(regions, 5).padded_indices()
    assert not idx.flags.writeable
    assert idx is pool.padded_indices()
    P = selected_map(pool)
    P[:] = 0.0
    pool.as_maso().A[:] = 0.0
    assert np.allclose(selected_map(pool).sum(axis=1), 1.0)


# --- apodized reconstruction ---------------------------------------------------

def test_apodized_uniform_window_reconstructs_interior(rng):
    z = rng.standard_normal((8, 8))
    rec = L.apodized_reconstruct(z, (3, 3), np.full((3, 3), 1.0 / 9.0))
    mask = L.interior_mask((8, 8), (3, 3))
    assert np.max(np.abs(rec - z)[mask]) < 1e-12
    assert mask.sum() == 16  # 4x4 fully covered center of an 8x8 image


def test_apodized_triangular_window(rng):
    # separable [1,2,1]/4 outer product also sums to one per interior pixel
    w1 = np.array([1.0, 2.0, 1.0]) / 4.0
    win = np.outer(w1, w1)
    z = rng.standard_normal((7, 9))
    rec = L.apodized_reconstruct(z, (3, 3), win)
    mask = L.interior_mask((7, 9), (3, 3))
    assert np.max(np.abs(rec - z)[mask]) < 1e-12


def test_apodized_rejects_non_unit_coverage(rng):
    z = rng.standard_normal((6, 6))
    with pytest.raises(WindowError):
        L.apodized_reconstruct(z, (3, 3), np.ones((3, 3)))


def test_apodized_rejects_negative_window(rng):
    z = rng.standard_normal((6, 6))
    win = np.full((3, 3), 1.0 / 9.0)
    win[0, 0] = -win[0, 0]
    with pytest.raises(WindowError):
        L.apodized_reconstruct(z, (3, 3), win)


@pytest.mark.parametrize("call", [
    lambda shape: L.interior_mask((5, 5), shape),
    lambda shape: L.interior_mask(shape, (2, 2)),
    lambda shape: L.apodized_reconstruct(np.zeros((5, 5)), shape, np.full((2, 2), 0.25)),
], ids=["interior-patch", "interior-image", "apodized-patch"])
def test_patch_shapes_are_checked(call):
    # a fractional entry used to be cut down, (2.5, 2) giving the (2, 2)
    # result, and a string entry to be read as a number
    for shape in ((2.5, 2), ("3", 2), (2, True)):
        with pytest.raises(DomainError, match="shape must be an integer"):
            call(shape)
    for shape in ((2,), (2, 2, 1), 2):
        with pytest.raises(ShapeError, match="shape must have 2 entries"):
            call(shape)


def test_pool_region_shapes_need_their_entry_counts():
    # a wrong entry count used to raise a bare unpacking ValueError
    for args, field in [(((4, 4), (2, 2)), "pooled shape"), (((1, 4, 4), (2, 2, 2)), "pooling window"),
                        (((1, 4, 4), (2, 2), (1,)), "pooling stride")]:
        with pytest.raises(ShapeError, match=f"{field} must have"):
            L.pool_regions_2d(*args)


# --- misc helpers ---------------------------------------------------------------

def test_slope_nonnegativity():
    assert L.slope_nonnegativity(L.Activation("relu", 3).as_maso())
    assert not L.slope_nonnegativity(L.Activation("abs", 3).as_maso())


def test_pool_regions_2d_cover_disjointly():
    regions, out_shape = L.pool_regions_2d((2, 4, 4), (2, 2), (2, 2))
    assert out_shape == (2, 2, 2)
    assert len(regions) == 8
    flat = sorted(i for r in regions for i in r)
    assert flat == list(range(32))  # exact disjoint cover


def test_pool_regions_2d_overlapping_stride():
    regions, out_shape = L.pool_regions_2d((1, 3, 3), (2, 2), (1, 1))
    assert out_shape == (1, 2, 2)
    assert regions[0] == (0, 1, 3, 4)


@pytest.mark.parametrize("shape, window, stride", [
    ((2, 4, 4), (2, 2), None),
    ((1, 5, 7), (2, 3), (2, 1)),  # the stride tiles neither axis
    ((3, 6, 5), (3, 2), (1, 3)),
    ((1, 3, 3), (2, 2), (1, 1)),  # overlapping windows
])
def test_pool_regions_2d_match_window_loops(shape, window, stride):
    c, h, w = shape
    wh, ww = window
    sh, sw = window if stride is None else stride
    regions, out_shape = L.pool_regions_2d(shape, window, stride)
    h_out, w_out = (h - wh) // sh + 1, (w - ww) // sw + 1
    assert out_shape == (c, h_out, w_out)
    assert regions == tuple(
        tuple((ch * h + y * sh + p) * w + x * sw + q for p in range(wh) for q in range(ww))
        for ch in range(c) for y in range(h_out) for x in range(w_out)
    )


@pytest.mark.parametrize("regions", [
    ((0, 1, 2), (2, 3), (4,), (1, 5, 6, 0)),  # ragged and overlapping
    ((3, 3, 1), (0,), (2, 0, 2, 2)),  # indices listed more than once
])
def test_pool_arrays_match_region_loops(regions):
    in_dim = 7
    P = np.zeros((len(regions), in_dim))
    A = np.zeros((len(regions), max(map(len, regions)), in_dim))
    for k, r in enumerate(regions):
        for j in r:
            P[k, j] += 1.0 / len(r)
        for i in range(A.shape[1]):
            A[k, i, r[min(i, len(r) - 1)]] = 1.0
    assert np.array_equal(selected_map(L.AvgPool(regions, in_dim)), P)
    assert np.array_equal(L.AvgPool(regions, in_dim).as_maso().A[:, 0], P)
    assert np.array_equal(L.MaxPool(regions, in_dim).as_maso().A, A)


def test_make_mlp_structure_and_seeding():
    net = L.make_mlp([2, 45, 3, 4], seed=0)
    assert net.dims == (2, 45, 45, 3, 3, 4)
    assert isinstance(net.layers[0], L.Dense) and isinstance(net.layers[1], L.Activation)
    assert np.all(net.layers[0].b == 0.0)
    again = L.make_mlp([2, 45, 3, 4], seed=0)
    assert np.array_equal(net.layers[0].W, again.layers[0].W)
    other = L.make_mlp([2, 45, 3, 4], seed=1)
    assert not np.array_equal(net.layers[0].W, other.layers[0].W)


def test_make_mlp_needs_two_dims():
    with pytest.raises(DomainError):
        L.make_mlp([4])


def test_every_selection_goes_through_the_maso_kernel(monkeypatch, rng):
    from masonet import cli, maso

    assert not hasattr(L, "_soft_select_forward") and not hasattr(L, "_soft_select_backward")
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    # every module that binds the kernel by name sees the counting wrapper
    for name, modules in (("select", (maso, L, cli)), ("select_backward", (maso, L))):
        wrapper = counting(name, getattr(maso, name))
        for mod in modules:
            monkeypatch.setattr(mod, name, wrapper)

    def run(fn):
        calls.clear()
        fn()
        return list(calls)

    Z = rng.standard_normal((3, 4))
    act, pool = L.Activation("lrelu", 4, nu=0.1), L.MaxPool(((0, 1), (2, 3)), 4)
    assert run(lambda: pool.forward(Z, 0.3)) == ["select"]
    out, cache = pool.forward(Z, 0.3)
    assert run(lambda: pool.backward(cache, np.ones_like(out))) == ["select_backward"]
    # the activation's two-region softmax is a sigmoid gate of its score gap,
    # computed in closed form: its soft path calls the kernel as little as
    # its hard one
    assert run(lambda: act.forward(Z, 0.3)) == []
    out, cache = act.forward(Z, 0.3)
    assert run(lambda: act.backward(cache, np.ones_like(out))) == []
    assert run(lambda: pool.forward(Z)) == ["select"]
    # the hard forward is the only place a region is chosen: the steps that
    # read its cache select nothing again
    out, cache = pool.forward(Z[:1])
    assert run(lambda: pool.selected_affine(cache)) == []
    assert run(lambda: pool.push(cache, np.eye(4), np.zeros(4))) == []
    assert run(lambda: pool.backward(cache, np.ones_like(out))) == []
    # the hard activation path tests z > 0 itself: no score stack, same codes
    assert run(lambda: act.forward(Z)) == []
    assert run(lambda: cli.emit_activation_table("relu", [0.2, 0.7], [-1.0, 0.0, 1.0])) == ["select"] * 4


def _region_outermost(a) -> bool:
    """Is each region's slab a[..., r] one contiguous block, the blocks one
    after another (`ndcore`'s region-major layout)?"""
    slab = a[..., 0]
    return (slab.flags.c_contiguous or slab.flags.f_contiguous) and a.strides[-1] == slab.nbytes


def test_selector_scores_and_selections_are_region_major(rng):
    from masonet.maso import select

    Z = rng.standard_normal((5, 6))
    act, pool = L.Activation("relu", 6), L.MaxPool(((0, 1), (2, 3), (4, 5)), 6)
    for beta in (0.5, rng.uniform(0.2, 0.8, 3)):
        _, cache = pool.forward(Z, beta)
        assert _region_outermost(cache["s"]) and _region_outermost(cache["T"])
    assert _region_outermost(pool.forward(Z)[1]["s"])
    # the activation stacks no scores: its soft cache holds the input and
    # the gate t of the active region, in the input's shape
    for beta in (0.5, rng.uniform(0.2, 0.8, 6)):
        cache = act.forward(Z, beta)[1]
        assert set(cache) == {"Z", "t", "beta"} and cache["Z"] is Z and cache["t"].shape == Z.shape
    assert _region_outermost(select(rng.standard_normal((5, 6, 3)), 0.5)[1])
    assert not _region_outermost(np.stack([Z, Z], axis=-1))


def _kernel_activation(act, Z, G, beta):
    """The activation's soft output, active-region selection T[..., 1],
    input gradient and beta derivative by `maso.select` and
    `select_backward` on the stacked scores [lo z, hi z], and the scale of
    the kernel's E_T[s^2] - E_T[s]^2 cancellation per entry of beta:
    1 + sum |G| E_T[s^2] / (1 - beta)^2."""
    lo, hi = act.slopes()
    s = np.stack([lo * Z, hi * Z], axis=-1)
    b = beta[:, None] if np.ndim(beta) else beta
    out, T = select(s, b)
    Gs, dbeta = select_backward(G, s, T, b)
    spread = np.abs(G) * np.sum(T * s * s, axis=-1) / (1.0 - beta) ** 2
    scale = 1.0 + (spread.sum(axis=0) if np.ndim(beta) else spread.sum())
    return out, T[..., 1], Gs[..., 0] * lo + Gs[..., 1] * hi, dbeta.reshape(np.shape(beta)), scale


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_activation_soft_closed_form_equals_the_kernel(data):
    kind = data.draw(st.sampled_from(["relu", "lrelu", "abs"]), "kind")
    nu = data.draw(st.sampled_from([0.01, 0.1, 0.3, 0.7, 0.99]), "nu")
    K, n = data.draw(st.integers(1, 40), "K"), data.draw(st.integers(1, 8), "n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    beta = rng.uniform(0.02, 0.98, K) if data.draw(st.booleans(), "per unit") else rng.uniform(0.02, 0.98)
    # |z| log-uniform on [1e-3, 300], saturated gates included, and exact zeros
    Z = rng.choice([-1.0, 1.0], (n, K)) * np.exp(rng.uniform(np.log(1e-3), np.log(300.0), (n, K)))
    Z[rng.random((n, K)) < 0.1] = 0.0
    G = rng.standard_normal((n, K))
    act = L.Activation(kind, K, nu=nu)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out, cache = act.forward(Z, beta)
        dZ, grads, dbeta = act.backward(cache, G)
        want_out, gate, want_dZ, want_dbeta, scale = _kernel_activation(act, Z, G, beta)
    assert grads == {} and np.shape(dbeta) == np.shape(beta)
    assert np.all(np.abs(out - want_out) <= 1e-12 * (1.0 + np.abs(want_out)))
    # the gate keeps its relative precision where it is tiny, down to where
    # it leaves the normal floats, since the beta derivative weighs it by
    # z^2; the kernel rounds the scaled scores eta a_r z (|a_r| <= 1) in its
    # exponent, which scales the bound
    eta_z = np.abs(beta / (1.0 - beta) * Z)
    assert np.all(np.abs(cache["t"] - gate) <= 1e-14 * (1.0 + eta_z) * gate + 1e-300)
    assert np.all(np.abs(dZ - want_dZ) <= 1e-12 * (1.0 + np.abs(want_dZ)))
    assert np.all(np.abs(dbeta - want_dbeta) <= 1e-12 * scale)

    # a skip block's soft path is its activation's, on the conv's output
    block = make_skip_block(rng)
    block.activation = L.Activation(kind, block.activation.dim, nu=nu)
    X = rng.standard_normal((n, block.dims()[0]))
    block_beta = rng.uniform(0.02, 0.98, block.activation.dim) if np.ndim(beta) else beta
    G = rng.standard_normal((n, block.dims()[1]))
    out, cache = block.forward(X, block_beta)
    pre = block.conv.forward(X)[0]
    act_out, act_cache = block.activation.forward(pre, block_beta)
    assert np.array_equal(out, block.skip.forward(X)[0] + act_out + block.skip_bias)
    Gpre, _, want_dbeta = block.activation.backward(act_cache, G)
    G_in, _, dbeta = block.backward(cache, G)
    assert np.array_equal(dbeta, want_dbeta) and np.shape(dbeta) == np.shape(block_beta)
    assert np.array_equal(G_in, block.conv.pull(cache["conv"], Gpre) + block.skip.pull(cache["skip"], G))


def test_selector_forwards_read_beta_per_unit_and_check_it(rng):
    # a (K,) beta is one value per unit, as maso.forward reads it, on every
    # selector layer; the layer's MASO form runs the same selection
    Z = np.array([[1.0, -2.0], [0.5, 3.0]])
    beta = np.array([0.3, 0.7])
    for layer in (L.Activation("relu", 2), L.MaxPool(((0, 1), (1, 0)), 2)):
        out = layer.forward(Z, beta)[0]
        want = forward(layer.as_maso(), Z, beta)[0]
        assert np.allclose(out, want, rtol=1e-14, atol=1e-15), (type(layer).__name__, out, want)
    net = L.Network([L.Dense(np.eye(2), np.zeros(2)), L.Activation("lrelu", 2, nu=0.1),
                     L.MaxPool(((0, 1),), 2)], (2,), 1)
    for i in (1, 2):
        for bad in (1.5, -0.5, 1.0, 0.0):
            with pytest.raises(DomainError):
                L.network_forward_batch(net, Z, betas={i: bad})
        K = net.layers[i].dims()[1]
        for bad in (np.full((K, 1), 0.5), np.full(K + 1, 0.5), np.full((2, K), 0.5)):
            with pytest.raises(ShapeError):
                L.network_forward_batch(net, Z, betas={i: bad})
    block = make_skip_block(rng)
    with pytest.raises(DomainError):
        block.forward(rng.standard_normal((2, 32)), 1.0)
    with pytest.raises(ShapeError):
        block.forward(rng.standard_normal((2, 32)), np.full(2, 0.5))
