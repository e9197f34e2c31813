import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masonet import layers as L
from masonet import learn
from masonet.analysis import decompose
from masonet.maso import HardSelection, forward_hard, scores, select, selection_to_affine
from masonet.ndcore import DomainError, ShapeError, WindowError
from test_analysis import every_kind_net, maso_selected_affine


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


# --- operator-as-MASO equivalences ------------------------------------------

def test_dense_as_maso_is_the_affine_map(rng):
    W, b = rng.standard_normal((4, 6)), rng.standard_normal(4)
    p = L.Dense(W, b).as_maso()
    assert p.R == 1
    z = rng.standard_normal(6)
    out, _ = forward_hard(p, z)
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
        out, _ = forward_hard(p, z)
        assert np.allclose(out, fn(z, 0.05), atol=1e-14)


def test_maxpool_as_maso_matches_direct_max(rng):
    regions = ((0, 1, 2), (3, 4), (5,))
    p = L.MaxPool(regions, 6).as_maso()
    assert p.R == 3  # padded to the largest region
    for _ in range(20):
        z = rng.standard_normal(6)
        out, _ = forward_hard(p, z)
        assert np.allclose(out, [z[:3].max(), z[3:5].max(), z[5]], atol=1e-14)


def test_avgpool_as_maso_matches_direct_mean(rng):
    regions = ((0, 1), (2, 3, 4))
    p = L.AvgPool(regions, 5).as_maso()
    assert p.R == 1
    z = rng.standard_normal(5)
    out, _ = forward_hard(p, z)
    assert np.allclose(out, [z[:2].mean(), z[2:].mean()], atol=1e-14)


def test_compose_dense_then_relu(rng):
    W, b = rng.standard_normal((5, 3)), rng.standard_normal(5)
    lin = L.Dense(W, b).as_maso()
    act = L.Activation("relu", 5).as_maso()
    composed = L.compose_layer_maso(lin, act)
    for _ in range(100):
        z = rng.standard_normal(3)
        out, _ = forward_hard(composed, z)
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
    got = conv.matrix() @ x + conv.bias_flat()
    assert got.shape == ref.reshape(-1).shape
    assert np.max(np.abs(got - ref.reshape(-1))) < 1e-10


def test_conv_known_1d_style_values():
    # single row image, kernel [1, 2]: valid outputs are x[i] + 2 x[i+1]
    conv = L.Conv(np.array([[[[1.0, 2.0]]]]), np.zeros(1), (1, 1), "valid", (1, 1, 3))
    M = conv.matrix()
    assert np.array_equal(M, np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 2.0]]))


def test_conv_same_zero_geometry():
    conv = L.Conv(np.ones((1, 1, 3, 3)), np.zeros(1), (2, 2), "same-zero", (1, 7, 7))
    assert L.conv_out_shape(conv, (1, 7, 7)) == (1, 4, 4)  # ceil(7/2)
    # corner output reads only the four in-range taps of the all-ones kernel
    x = np.ones(49)
    out = conv.matrix() @ x
    assert out[0] == 4.0  # (3-1)//2 = 1 pad row/col of zeros at the corner


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
        return L.network_forward(n, X[0])[0], form.A, form.b, learn.forward_loss(n, X, y)

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
    out_shape = L.conv_out_shape(conv, (1, 5, 5))
    regions, _ = L.pool_regions_2d(out_shape, (3, 3), (3, 3))
    pool = L.MaxPool(regions, int(np.prod(out_shape)))
    composed = L.compose_layer_maso(conv.as_maso(), pool.as_maso())
    for _ in range(100):
        x = rng.standard_normal(25)
        direct = conv.matrix() @ x + conv.bias_flat()
        pooled = np.array([direct[list(r)].max() for r in regions])
        got, _ = forward_hard(composed, x)
        assert np.max(np.abs(got - pooled)) < 1e-10


# --- forward evaluation -------------------------------------------------------

def test_layer_forward_hard_activation_codes(rng):
    act = L.Activation("relu", 4)
    Z = np.array([[1.0, -1.0, 0.0, 2.0]])
    out, codes = L.layer_forward_hard(act, Z)
    assert np.array_equal(out[0], [1.0, 0.0, 0.0, 2.0])
    # zero input sits in the inactive region (ties go low)
    assert codes[0].tolist() == [1, 0, 0, 1]


def test_layer_forward_hard_maxpool_codes(rng):
    pool = L.MaxPool(((0, 1), (2, 3)), 4)
    Z = np.array([[3.0, 1.0, 2.0, 5.0]])
    out, codes = L.layer_forward_hard(pool, Z)
    assert np.array_equal(out[0], [3.0, 5.0])
    assert codes[0].tolist() == [0, 1]


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
        blk.skip.matrix() @ z
        + np.maximum(blk.conv.matrix() @ z + blk.conv.bias_flat(), 0.0)
        + blk.skip_bias
    )
    assert np.allclose(L.layer_forward_hard(blk, z[None, :])[0][0], expect, atol=1e-12)


def test_skip_block_identity_like_cases(rng):
    # zero conv: output = skip z + relu(bias) + skip_bias
    shape = (1, 3, 3)
    conv = L.Conv(np.zeros((1, 1, 1, 1)), np.array([2.0]), (1, 1), "same-zero", shape)
    eye = L.Conv(np.ones((1, 1, 1, 1)), np.zeros(1), (1, 1), "same-zero", shape)
    blk = L.SkipBlock(conv, L.Activation("relu", 9), eye, np.full(9, 0.5))
    z = rng.standard_normal(9)
    assert np.allclose(L.layer_forward_hard(blk, z[None, :])[0][0], z + 2.0 + 0.5, atol=1e-12)
    # zero skip: block reduces to conv + activation
    zero_skip = L.Conv(np.zeros((1, 1, 1, 1)), np.zeros(1), (1, 1), "same-zero", shape)
    blk2 = L.SkipBlock(conv, L.Activation("relu", 9), zero_skip, np.zeros(9))
    assert np.allclose(L.layer_forward_hard(blk2, z[None, :])[0][0], np.full(9, 2.0), atol=1e-12)


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
            A, b = selection_to_affine(p, HardSelection(codes[i]))
            Asel, bsel = layer.selected_affine(layer.forward(Z[i : i + 1])[1])
            assert np.array_equal(A, Asel) and np.array_equal(b, bsel), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_push_affine_equals_the_selected_product(seed):
    rng = np.random.default_rng(seed)
    for layer, z in push_cases(rng):
        name = type(layer).__name__
        _, cache = layer.forward(z[None, :])
        Asel, bsel = maso_selected_affine(layer, z)
        A = rng.standard_normal((z.shape[0], int(rng.integers(2, 6))))
        b = rng.standard_normal(z.shape[0])
        A2, b2 = L.push_affine(layer, cache, A, b)
        assert np.array_equal(A2, Asel @ A), name
        assert np.array_equal(b2, Asel @ b + bsel), name
        # with no running map the step gives the layer's own selected map
        A1, b1 = L.push_affine(layer, cache)
        assert np.array_equal(A1, Asel) and np.array_equal(b1, bsel), name


def test_conv_taps_are_shared_read_only_and_never_stale(rng):
    shape = (2, 5, 5)
    conv = L.Conv(rng.standard_normal((2, 2, 3, 3)), rng.standard_normal(2), (1, 1),
                  "same-zero", shape)
    taps = L._conv_taps(conv, shape)
    for a in taps:
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        taps[0][0] = 0
    # another conv of the same geometry shares the index, whatever its filters
    twin = L.Conv(rng.standard_normal((2, 2, 3, 3)), np.zeros(2), (1, 1), "same-zero", shape)
    assert all(a is t for a, t in zip(L._conv_taps(twin, shape), taps))
    # a different stride or padding gets its own index, and lowers correctly
    x = rng.standard_normal(50)
    for stride, padding in (((2, 1), "same-zero"), ((1, 1), "valid")):
        other = L.Conv(conv.filters, conv.bias, stride, padding, shape)
        other_taps = L._conv_taps(other, shape)
        assert not all(np.array_equal(a, t) for a, t in zip(other_taps, taps))
        expect = conv_reference(conv.filters, conv.bias, stride, padding, x.reshape(shape))
        assert np.allclose(other.matrix() @ x + other.bias_flat(), expect.ravel(), atol=1e-12)
    # filters edited in place reach the next lowering: nothing lowered is kept
    before = conv.matrix()
    conv.filters[1, 0, 1, 1] += 1.0
    after = conv.matrix()
    assert not np.array_equal(before, after)
    expect = conv_reference(conv.filters, conv.bias, (1, 1), "same-zero", x.reshape(shape))
    assert np.allclose(after @ x + conv.bias_flat(), expect.ravel(), atol=1e-12)


def test_pool_geometry_is_read_only_and_matrices_fresh():
    regions = ((0, 1, 2), (2, 3), (4,))
    pool = L.AvgPool(regions, 5)
    idx = L.MaxPool(regions, 5).padded_indices()
    assert not idx.flags.writeable
    assert idx is pool.padded_indices()
    P = pool.matrix()
    P[:] = 0.0
    pool.as_maso().A[:] = 0.0
    assert np.allclose(pool.matrix().sum(axis=1), 1.0)


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
    assert np.array_equal(L.AvgPool(regions, in_dim).matrix(), P)
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
    for layer in (act, pool):
        assert run(lambda: layer.forward(Z, 0.3)) == ["select"]
        out, cache = layer.forward(Z, 0.3)
        assert run(lambda: layer.backward(cache, np.ones_like(out))) == ["select_backward"]
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
