import copy
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masonet import layers as L
from masonet import learn
from masonet.learn import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    gradients,
    gram_schmidt,
    joint_map_factorial,
    ortho_penalty_filters,
    train,
)
from masonet.maso import MasoParams
from masonet.ndcore import (
    DegeneracyError,
    DivergenceError,
    DomainError,
    PreconditionError,
    ShapeError,
    StructureError,
)
from test_analysis import every_kind_net


def fd_check(net, keys, X, y, mode="hard", beta=None, h=1e-5, rtol=1e-4):
    """Central finite differences of the loss `gradients` returns against
    its analytic gradients."""
    loss, g = gradients(net, X, y, mode=mode, beta=beta)
    for key in keys:
        li, field = key.split(".", 1)
        li = int(li)
        G = np.asarray(g[key])
        it = np.nditer(G, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            if abs(G[idx]) <= 1e-6:
                continue
            net2 = copy.deepcopy(net)
            target = net2.layers[li]
            for part in field.split(".")[:-1]:
                target = getattr(target, part)
            arr = getattr(target, field.split(".")[-1])
            arr[idx] += h
            lp = gradients(net2, X, y, mode=mode, beta=beta)[0]
            arr[idx] -= 2 * h
            lm = gradients(net2, X, y, mode=mode, beta=beta)[0]
            fd = (lp - lm) / (2 * h)
            assert abs(G[idx] - fd) <= rtol * max(abs(fd), 1e-8), (key, idx, G[idx], fd)


# --- loss ---------------------------------------------------------------------

def cross_entropy(logits, label):
    """`evaluate`'s loss on a net whose logits are its inputs: the
    cross-entropy of one row of logits."""
    C = len(logits)
    return evaluate(L.Network([L.Dense(np.eye(C), np.zeros(C))], (C,), C), logits, label)[0]


def test_cross_entropy_frozen_values():
    # log(1 + e^-10) and 10 + log(1 + e^-10), computed independently
    tail = np.log1p(np.exp(-10.0))
    assert abs(cross_entropy(np.array([10.0, 0.0]), 0) - tail) < 1e-12
    assert abs(cross_entropy(np.array([10.0, 0.0]), 1) - (10.0 + tail)) < 1e-12
    # uniform logits: loss is log C
    assert abs(cross_entropy(np.zeros(4), 2) - np.log(4.0)) < 1e-12


def test_cross_entropy_is_shift_invariant(rng):
    logits = rng.standard_normal(5)
    a = cross_entropy(logits, 3)
    b = cross_entropy(logits + 100.0, 3)
    assert abs(a - b) < 1e-9


def test_cross_entropy_handles_extreme_logits():
    assert np.isfinite(cross_entropy(np.array([1000.0, 0.0]), 0))
    assert cross_entropy(np.array([1000.0, 0.0]), 1) > 900


def test_cross_entropy_label_range():
    with pytest.raises(DomainError, match="label out of range"):
        cross_entropy(np.zeros(3), 3)


@pytest.mark.parametrize("field", ["learning_rate", "gamma", "lam"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_config_rejects_non_finite_weights(field, value):
    # nan passes a sign check (nan < 0 is false), so finiteness is checked apart
    with pytest.raises(DomainError, match="must be finite"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("beta, error, message", [
    ({0: 0.5}, DomainError, "layer 0 does not select"),
    ({}, DomainError, "layer 1 selects but the beta dict gives it no value"),
    ({1: 0.5, 2: 0.5}, DomainError, "layer 2 does not select"),
    ([0.5], ShapeError, "layer 1 beta must be one number"),
    ("0.5", DomainError, "layer 1 beta must be a real number"),
    ({1: "0.5"}, DomainError, "layer 1 beta must be a real number"),
], ids=["non-selector", "missing-selector", "extra-key", "list", "string", "string-in-dict"])
def test_betas_are_checked(beta, error, message):
    # these raised a bare KeyError or TypeError, or read "0.5" as 0.5
    with pytest.raises(error, match=message):
        gradients(L.make_mlp([2, 5, 3]), np.zeros(2), 0, "beta", beta)


@pytest.mark.parametrize("field, value", [("beta", "0.5"), ("learning_rate", "0.1"), ("gamma", "0"),
                                          ("lam", [0.1])])
def test_train_config_reads_numbers_only(field, value):
    with pytest.raises((DomainError, ShapeError), match="must be"):
        TrainConfig(beta_mode="beta", **{field: value})


def test_forward_loss_is_mean_of_singles(rng):
    net = L.make_mlp([3, 5, 2], seed=2)
    X = rng.standard_normal((6, 3))
    y = rng.integers(0, 2, size=6)
    singles = []
    for i in range(6):
        logits, _ = L.network_forward(net, X[i])
        singles.append(cross_entropy(logits, y[i]))
    got = gradients(net, X, y, mode="hard")[0]
    assert abs(got - np.mean(singles)) < 1e-10


def test_training_loss_is_the_inference_loss_without_batch_norm(rng):
    # with no batch norm, batch statistics change nothing: a hard-mode
    # training loss is the inference loss, bit for bit
    for net, d, classes in ((L.make_mlp([3, 6, 4, 2], seed=1), 3, 2), (conv_pool_net(rng), 36, 3)):
        X = rng.standard_normal((5, d))
        y = rng.integers(0, classes, size=5)
        assert gradients(net, X, y)[0] == evaluate(net, X, y)[0]


# --- gradients ------------------------------------------------------------------

def test_dense_mlp_gradients_all_modes(rng):
    net = L.make_mlp([3, 6, 4, 2], seed=1)
    X = rng.standard_normal((5, 3))
    y = rng.integers(0, 2, size=5)
    fd_check(net, ["0.W", "0.b", "2.W", "4.W", "4.b"], X, y, mode="hard")
    fd_check(net, ["0.W", "0.b", "2.W", "4.W"], X, y, mode="soft")
    fd_check(net, ["0.W", "2.W", "4.W"], X, y, mode="beta", beta=0.7)


def test_beta_gradient_matches_fd(rng):
    net = L.make_mlp([3, 5, 2], seed=4)
    X = rng.standard_normal((4, 3))
    y = rng.integers(0, 2, size=4)
    _, g = gradients(net, X, y, mode="beta", beta=0.6)
    total = sum(float(v) for k, v in g.items() if k.endswith(".beta"))
    h = 1e-6
    fd = (
        gradients(net, X, y, mode="beta", beta=0.6 + h)[0]
        - gradients(net, X, y, mode="beta", beta=0.6 - h)[0]
    ) / (2 * h)
    assert abs(total - fd) <= 1e-4 * max(abs(fd), 1e-8)


def conv_pool_net(rng):
    """conv -> relu -> 2x2 max pool -> dense on 1x6x6 inputs."""
    conv = L.Conv(rng.standard_normal((2, 1, 3, 3)) * 0.5, rng.standard_normal(2) * 0.1,
                  (1, 1), "valid", (1, 6, 6))
    out_shape = L.conv_out_shape(conv)
    dim = int(np.prod(out_shape))
    regions, _ = L.pool_regions_2d(out_shape, (2, 2), (2, 2))
    return L.Network(
        [conv, L.Activation("relu", dim), L.MaxPool(regions, dim),
         L.Dense(rng.standard_normal((3, len(regions))) * 0.3, np.zeros(3))],
        (1, 6, 6), 3,
    )


def test_conv_pool_gradients(rng):
    net = conv_pool_net(rng)
    X = rng.standard_normal((3, 36))
    y = rng.integers(0, 3, size=3)
    fd_check(net, ["0.filters", "0.bias", "3.W", "3.b"], X, y, mode="hard")
    fd_check(net, ["0.filters", "0.bias"], X, y, mode="soft")


def test_maxpool_boundary_warning_ignores_relu_zero_ties(rng):
    net = conv_pool_net(rng)
    X = rng.standard_normal((32, 36))
    y = rng.integers(0, 3, size=32)
    Z = net.layers[1].forward(net.layers[0].forward(X)[0])[0]
    windows = net.layers[2].forward(Z)[1]["s"]
    assert np.any(np.sum(windows == 0, axis=-1) >= 2)  # relu zeros do tie
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gradients(net, X, y)
    # a tie of two nonzero window entries is a real boundary and still warns
    pool = L.MaxPool(((0, 1), (2, 3)), 4)
    tied = L.Network([pool, L.Dense(np.eye(2), np.zeros(2))], (4,), 2)
    with pytest.warns(RuntimeWarning, match="layer 0"):
        gradients(tied, np.array([[0.5, 0.5, -1.0, 2.0]]), np.array([0]))
    assert not pool.near_boundary(pool.forward(np.array([[0.0, 0.0, -1.0, 2.0]]))[1], 1e-7)


def test_strided_same_conv_gradients(rng):
    conv = L.Conv(rng.standard_normal((2, 1, 3, 3)) * 0.5, rng.standard_normal(2) * 0.1,
                  (2, 2), "same-zero", (1, 5, 5))
    dim = int(np.prod(L.conv_out_shape(conv)))
    net = L.Network(
        [conv, L.Activation("lrelu", dim, nu=0.1),
         L.Dense(rng.standard_normal((2, dim)) * 0.3, np.zeros(2))],
        (1, 5, 5), 2,
    )
    X = rng.standard_normal((4, 25))
    y = rng.integers(0, 2, size=4)
    fd_check(net, ["0.filters", "0.bias", "2.W"], X, y, mode="hard")


@st.composite
def conv_geometry(draw):
    """Padding, stride per axis, a non-square kernel, channels and a
    non-square input whose size the stride need not tile."""
    padding = draw(st.sampled_from(["valid", "same-zero"]))
    kh, kw = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    low_h, low_w = (kh, kw) if padding == "valid" else (1, 1)
    h = draw(st.integers(low_h, 6))
    w = draw(st.integers(low_w, 6).filter(lambda v: v != h))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    return padding, stride, kh, kw, (draw(st.integers(1, 3)), h, w), draw(st.integers(1, 2))


@settings(max_examples=30, deadline=None)
@given(geom=conv_geometry(), seed=st.integers(0, 2**32 - 1))
def test_conv_gradients_over_random_geometry(geom, seed):
    """Filter, bias and input gradients of Conv.backward against finite
    differences; the input gradient is checked through the dense layer in
    front, whose weight gradient is that input gradient times the data."""
    padding, stride, kh, kw, shape, c_out = geom
    rng = np.random.default_rng(seed)
    conv = L.Conv(rng.standard_normal((c_out, shape[0], kh, kw)) * 0.5,
                  rng.standard_normal(c_out) * 0.1, stride, padding, shape)
    d_in, d_out = conv.dims()
    net = L.Network(
        [L.Dense(rng.standard_normal((d_in, 2)), rng.standard_normal(d_in)), conv,
         L.Dense(rng.standard_normal((2, d_out)) * 0.3, np.zeros(2))],
        (2,), 2,
    )
    X = rng.standard_normal((3, 2))
    y = rng.integers(0, 2, size=3)
    fd_check(net, ["0.W", "1.filters", "1.bias"], X, y, mode="hard")


def test_batchnorm_gradients_batch_statistics(rng):
    net = L.Network(
        [
            L.Dense(rng.standard_normal((5, 3)), rng.standard_normal(5)),
            L.BatchNorm(np.zeros(5), np.ones(5), np.ones(5) + 0.1 * rng.standard_normal(5),
                        0.1 * rng.standard_normal(5)),
            L.Activation("relu", 5),
            L.Dense(rng.standard_normal((2, 5)), np.zeros(2)),
        ],
        (3,), 2,
    )
    X = rng.standard_normal((6, 3))
    y = rng.integers(0, 2, size=6)
    fd_check(net, ["0.W", "1.scale", "1.shift", "3.W"], X, y, mode="hard")


def test_avgpool_and_abs_gradients(rng):
    net = L.Network(
        [
            L.Dense(rng.standard_normal((6, 3)), rng.standard_normal(6)),
            L.Activation("abs", 6),
            L.AvgPool(((0, 1, 2), (3, 4, 5)), 6),
            L.Dense(rng.standard_normal((2, 2)), np.zeros(2)),
        ],
        (3,), 2,
    )
    X = rng.standard_normal((4, 3))
    y = rng.integers(0, 2, size=4)
    fd_check(net, ["0.W", "0.b", "3.W"], X, y, mode="hard")
    fd_check(net, ["0.W", "3.W"], X, y, mode="soft")


def make_skip_net(rng):
    shape = (2, 3, 3)
    dim = 18

    def block(seed):
        r = np.random.default_rng(seed)
        conv = L.Conv(r.standard_normal((2, 2, 3, 3)) * 0.3, r.standard_normal(2) * 0.1,
                      (1, 1), "same-zero", shape)
        skip = L.Conv(r.standard_normal((2, 2, 1, 1)) * 0.3, np.zeros(2),
                      (1, 1), "same-zero", shape)
        return L.SkipBlock(conv, L.Activation("relu", dim), skip, r.standard_normal(dim) * 0.1)

    final = L.Dense(rng.standard_normal((2, dim)) * 0.3, np.zeros(2))
    return L.Network([block(1), block(2), final], shape, 2)


def test_skip_block_gradients(rng):
    net = make_skip_net(rng)
    X = rng.standard_normal((3, 18))
    y = rng.integers(0, 2, size=3)
    fd_check(net, ["0.conv.filters", "0.conv.bias", "0.skip.filters", "0.skip_bias",
                   "1.conv.filters", "2.W"], X, y, mode="hard")
    fd_check(net, ["0.conv.filters", "0.skip.filters"], X, y, mode="beta", beta=0.6)


def _hard_codes(net, X):
    _, caches = L.network_forward_batch(net, X, batch_stats=True)
    return [c["codes"].copy() for layer, c in zip(net.layers, caches) if layer.selector]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_kind_gradients_match_finite_differences(seed):
    # a few entries of every parameter of an every_kind_net, and each
    # selector's beta, in hard, soft and beta mode; a hard-mode difference
    # is compared only where neither step leaves the forward's regions
    rng = np.random.default_rng(seed)
    net = every_kind_net(rng)
    X = rng.standard_normal((3, net.dims[0]))
    y = rng.integers(0, 3, 3)
    _, caches = L.network_forward_batch(net, X, batch_stats=True)
    assume(not any(layer.near_boundary(c, learn._BOUNDARY_GAP) for layer, c in zip(net.layers, caches)))
    codes = _hard_codes(net, X)
    betas = {i: float(rng.uniform(0.2, 0.8)) for i, layer in enumerate(net.layers) if layer.selector}
    h = 1e-6
    for mode, beta in (("hard", None), ("soft", None), ("beta", betas)):
        _, grads = gradients(net, X, y, mode=mode, beta=beta)
        assert sorted(grads) == sorted(
            [f"{i}.{k}" for i, layer in enumerate(net.layers) for k in layer.params()]
            + ([f"{i}.beta" for i in betas] if mode == "beta" else [])
        )
        for key, G in grads.items():
            i, field = key.split(".", 1)
            i = int(i)
            if field == "beta":
                lp, lm = (gradients(net, X, y, mode="beta", beta={**betas, i: betas[i] + d})[0]
                          for d in (h, -h))
                fd = (lp - lm) / (2 * h)
                assert abs(G - fd) <= 1e-7 + 1e-5 * abs(fd), (key, G, fd)
                continue
            arr = net.layers[i].params()[field]
            for j in rng.choice(arr.size, min(arr.size, 3), replace=False):
                idx = np.unravel_index(j, arr.shape)
                orig = arr[idx]
                losses, crossed = [], False
                for d in (h, -h):
                    arr[idx] = orig + d
                    losses.append(gradients(net, X, y, mode=mode, beta=beta)[0])
                    crossed |= mode == "hard" and not all(
                        np.array_equal(a, b) for a, b in zip(_hard_codes(net, X), codes)
                    )
                arr[idx] = orig
                if crossed:
                    continue
                fd = (losses[0] - losses[1]) / (2 * h)
                assert abs(G[idx] - fd) <= 1e-7 + 1e-5 * abs(fd), (mode, key, idx, G[idx], fd)


def test_hard_mode_warns_on_region_boundary():
    net = L.Network(
        [L.Dense(np.eye(2), np.zeros(2)), L.Activation("relu", 2),
         L.Dense(np.ones((2, 2)), np.zeros(2))],
        (2,), 2,
    )
    with pytest.warns(RuntimeWarning):
        gradients(net, np.array([0.0, 1.0]), 0, mode="hard")


def test_backward_accepts_single_input(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    loss, g = gradients(net, rng.standard_normal(3), 1)
    assert np.isfinite(loss) and "0.W" in g


def test_backward_returns_a_plain_dict(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    _, g = gradients(net, rng.standard_normal((2, 3)), [0, 1])
    assert type(g) is dict
    assert set(g) == {"0.W", "0.b", "2.W", "2.b"}


@pytest.mark.parametrize("labels", [[0.9, 1.2], [0, 1.5], [True, False], ["0", "1"]])
def test_fractional_or_non_integer_labels_are_rejected(rng, labels):
    net = L.make_mlp([3, 4, 2], seed=0)
    X = rng.standard_normal((2, 3))
    with pytest.raises(DomainError, match="label must be an integer"):
        evaluate(net, X, labels)
    with pytest.raises(DomainError, match="label must be an integer"):
        gradients(net, X, labels)
    with pytest.raises(DomainError, match="label must be an integer"):
        train(net, (X, labels), TrainConfig(epochs=1))


def test_integral_float_labels_are_accepted(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    X = rng.standard_normal((2, 3))
    assert evaluate(net, X, [0.0, 1.0]) == evaluate(net, X, [0, 1])
    assert gradients(net, X, [0.0, 1.0])[0] == gradients(net, X, [0, 1])[0]
    assert cross_entropy(np.array([0.3, -0.2]), 1.0) == cross_entropy(np.array([0.3, -0.2]), 1)


def test_cross_entropy_rejects_a_fractional_label():
    with pytest.raises(DomainError, match="1.9"):
        cross_entropy(np.array([0.3, -0.2]), 1.9)


def test_backward_rejects_bad_labels(rng):
    net = L.make_mlp([3, 4, 2], seed=0)
    with pytest.raises(DomainError):
        gradients(net, rng.standard_normal((2, 3)), np.array([0, 5]))


# --- orthogonality ---------------------------------------------------------------

def test_template_penalty_frozen_value():
    # two identical unit rows: the two ordered off-diagonal pairs each
    # contribute 1^2, so the energy is 2
    W = np.array([[1.0, 0.0], [1.0, 0.0]])
    pen, grad = ortho_penalty_filters(W, 1.0)
    assert abs(pen - 2.0) < 1e-12
    assert grad.shape == W.shape


def test_template_penalty_zero_for_orthogonal_rows():
    pen, grad = ortho_penalty_filters(np.eye(3), 1.0)
    assert pen == 0.0
    assert np.allclose(grad, 0.0)


def test_template_penalty_gradient_fd(rng):
    W = rng.standard_normal((4, 6))
    _, grad = ortho_penalty_filters(W, 0.7)
    h = 1e-6
    for idx in [(0, 0), (2, 3), (3, 5)]:
        Wp = W.copy(); Wp[idx] += h
        Wm = W.copy(); Wm[idx] -= h
        fd = (ortho_penalty_filters(Wp, 0.7)[0] - ortho_penalty_filters(Wm, 0.7)[0]) / (2 * h)
        assert abs(grad[idx] - fd) < 1e-5 * max(1.0, abs(fd))


def test_filter_penalty_ignores_same_unit_pairs(rng):
    # one unit, many regions: no cross-unit pair exists
    p = MasoParams(rng.standard_normal((1, 4, 5)), np.zeros((1, 4)))
    pen, grad = ortho_penalty_filters(p, 1.0)
    assert pen == 0.0 and np.allclose(grad, 0.0)


def test_filter_penalty_gradient_fd(rng):
    A = rng.standard_normal((3, 2, 4))
    p = MasoParams(A, np.zeros((3, 2)))
    _, grad = ortho_penalty_filters(p, 0.5)
    h = 1e-6
    for idx in [(0, 0, 0), (1, 1, 2), (2, 0, 3)]:
        Ap = A.copy(); Ap[idx] += h
        Am = A.copy(); Am[idx] -= h
        fd = (
            ortho_penalty_filters(MasoParams(Ap, np.zeros((3, 2))), 0.5)[0]
            - ortho_penalty_filters(MasoParams(Am, np.zeros((3, 2))), 0.5)[0]
        ) / (2 * h)
        assert abs(grad[idx] - fd) < 1e-5 * max(1.0, abs(fd))


def test_filter_penalty_accepts_plain_matrix(rng):
    M = rng.standard_normal((4, 6))
    pen, grad = ortho_penalty_filters(M, 1.0)
    assert grad.shape == M.shape
    pen_u, _ = ortho_penalty_filters(MasoParams(M[:, None, :], np.zeros((4, 1))), 1.0)
    # a matrix is K units of R=1 slopes, every pair cross-unit: the same energy
    assert abs(pen - pen_u) < 1e-12


def test_gram_schmidt_orthogonalizes_and_keeps_span(rng):
    M = rng.standard_normal((5, 12))
    Q = gram_schmidt(M)
    G = Q @ Q.T
    assert np.max(np.abs(G - np.diag(np.diag(G)))) < 1e-10
    pm = np.linalg.pinv(M) @ M
    pq = np.linalg.pinv(Q) @ Q
    assert np.max(np.abs(pm - pq)) < 1e-9


def test_gram_schmidt_leaves_orthogonal_rows_alone():
    M = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    assert np.array_equal(gram_schmidt(M), M)


def test_gram_schmidt_detects_dependence():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DegeneracyError):
        gram_schmidt(M)


# --- optimizer --------------------------------------------------------------------

def test_adam_first_step_hand_computed():
    p = {"w": np.array([1.0])}
    g = {"w": np.array([0.5])}
    cfg = TrainConfig(learning_rate=0.1)
    adam_step(p, g, AdamState(), cfg)
    # first bias-corrected step is lr * g/(|g| + eps) = lr, up to eps
    assert abs(p["w"][0] - 0.9) < 1e-7


def test_adam_state_threads_across_steps():
    p = {"w": np.array([0.0])}
    state = AdamState()
    cfg = TrainConfig(learning_rate=0.1)
    for _ in range(5):
        adam_step(p, {"w": np.array([1.0])}, state, cfg)
    assert state.t == 5
    assert p["w"][0] < -0.4  # five near-full steps downhill


def test_adam_shape_mismatch():
    with pytest.raises(ShapeError):
        adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(), TrainConfig())


# --- training loop -----------------------------------------------------------------

def two_blob_data(rng, n=120):
    X = np.vstack([
        rng.standard_normal((n // 2, 2)) * 0.3 + [1.5, 0.0],
        rng.standard_normal((n // 2, 2)) * 0.3 + [-1.5, 0.0],
    ])
    y = np.repeat([0, 1], n // 2)
    return X, y


def test_train_learns_separable_blobs(rng):
    X, y = two_blob_data(rng)
    net = L.make_mlp([2, 8, 2], seed=3)
    cfg = TrainConfig(learning_rate=0.05, epochs=20, batch_size=32, seed=0)
    trained, history = train(net, (X, y), cfg)
    assert history[-1]["accuracy"] >= 0.95
    assert history[-1]["loss"] < history[0]["loss"]
    assert {"epoch", "loss", "accuracy", "template_penalty", "filter_penalty"} <= set(history[0])


def test_train_leaves_input_net_untouched(rng):
    X, y = two_blob_data(rng)
    net = L.make_mlp([2, 6, 2], seed=3)
    W0 = net.layers[0].W.copy()
    train(net, (X, y), TrainConfig(epochs=2, seed=0))
    assert np.array_equal(net.layers[0].W, W0)


def test_train_is_seed_reproducible(rng):
    X, y = two_blob_data(rng)
    cfg = TrainConfig(learning_rate=0.05, epochs=4, batch_size=16, seed=7)
    t1, h1 = train(L.make_mlp([2, 6, 2], seed=3), (X, y), cfg)
    t2, h2 = train(L.make_mlp([2, 6, 2], seed=3), (X, y), cfg)
    assert np.array_equal(t1.layers[0].W, t2.layers[0].W)
    assert h1[-1]["loss"] == h2[-1]["loss"]


def test_train_soft_and_beta_modes_run(rng):
    X, y = two_blob_data(rng, n=60)
    for mode, beta in (("soft", 0.5), ("beta", 0.8)):
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16,
                          beta_mode=mode, beta=beta, seed=0)
        _, history = train(L.make_mlp([2, 5, 2], seed=1), (X, y), cfg)
        assert np.isfinite(history[-1]["loss"])


def test_train_learnable_beta_moves(rng):
    X, y = two_blob_data(rng, n=80)
    cfg = TrainConfig(learning_rate=0.05, epochs=6, batch_size=16,
                      beta_mode="beta", beta=0.5, beta_learnable=True, seed=0)
    _, history = train(L.make_mlp([2, 6, 2], seed=2), (X, y), cfg)
    assert "betas" in history[-1]
    assert all(0.0 < b < 1.0 for b in history[-1]["betas"])
    assert history[-1]["betas"] != history[0]["betas"]


def test_train_diverges_loudly(rng):
    X, y = two_blob_data(rng, n=40)
    # a step this large overflows the logits to inf and the loss to nan
    cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=8, seed=0)
    with pytest.raises(DivergenceError):
        with np.errstate(over="ignore", invalid="ignore"):
            train(L.make_mlp([2, 5, 2], seed=1), (X, y), cfg)


def test_train_template_penalty_shrinks_gram_energy(rng):
    X, y = two_blob_data(rng)
    def run(gamma):
        cfg = TrainConfig(learning_rate=0.05, epochs=12, batch_size=32, gamma=gamma, seed=0)
        trained, _ = train(L.make_mlp([2, 8, 2], seed=3), (X, y), cfg)
        W = trained.layers[-1].W
        G = W @ W.T
        np.fill_diagonal(G, 0.0)
        return float(np.sum(G * G))
    assert run(1.0) < run(0.0)


def _weight_penalty(W, lam):
    """The orthogonality penalty of a weight array, one row per output unit."""
    pen, grad = ortho_penalty_filters(W.reshape(W.shape[0], -1), lam)
    return pen, grad.reshape(W.shape)


def test_train_penalises_skip_block_convolutions(rng, monkeypatch):
    """lam reaches both convolutions of every skip block: each step adds
    their penalty gradient, and the history reports their penalty."""
    net = make_skip_net(rng)
    X = rng.standard_normal((16, 18))
    y = rng.integers(0, 2, size=16)
    keys = ("0.conv.filters", "0.skip.filters", "1.conv.filters", "1.skip.filters")
    steps = []

    def recording(params, grads, state, config):
        steps.append({k: (params[k].copy(), grads[k].copy()) for k in keys})
        return adam_step(params, grads, state, config)

    monkeypatch.setattr(learn, "adam_step", recording)
    lam, common = 0.5, dict(epochs=1, batch_size=16, seed=0)
    trained, history = train(net, (X, y), TrainConfig(lam=lam, **common))
    train(net, (X, y), TrainConfig(**common))
    penalised, plain = steps  # one step each, on the same batch
    for key in keys:
        W, g = penalised[key]
        expected = _weight_penalty(W, lam)[1]
        assert np.any(expected != 0.0)
        assert np.allclose(g - plain[key][1], expected, rtol=1e-9, atol=1e-12)
    total = sum(_weight_penalty(trained.layers[i].params()[f], lam)[0]
                for i in (0, 1) for f in ("conv.filters", "skip.filters"))
    assert history[0]["filter_penalty"] > 0.0
    assert history[0]["filter_penalty"] == pytest.approx(total, rel=1e-12)


def test_gamma_needs_a_dense_final_layer(rng):
    net = L.Network([L.Dense(rng.standard_normal((3, 2)), np.zeros(3)), L.Activation("relu", 3)],
                    (2,), 3)
    X, y = rng.standard_normal((12, 2)), np.arange(12) % 3
    with pytest.raises(StructureError, match="Dense final layer"):
        train(net, (X, y), TrainConfig(epochs=1, gamma=1.0))
    # the inner Dense layer is no template head: it gets lam like any weight
    _, history = train(net, (X, y), TrainConfig(epochs=1, lam=0.1))
    assert history[0]["template_penalty"] == 0.0 and history[0]["filter_penalty"] > 0.0


def test_train_validates_labels(rng):
    net = L.make_mlp([2, 4, 2], seed=0)
    with pytest.raises(DomainError):
        train(net, (np.zeros((3, 2)), np.array([0, 1, 5])), TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(DomainError):
        TrainConfig(beta_mode="warm")
    with pytest.raises(DomainError):
        TrainConfig(beta_mode="beta", beta=1.0)
    # outside beta mode a learnable beta was accepted and nothing trained it
    for mode in ("hard", "soft"):
        with pytest.raises(DomainError, match=f"learnable beta needs beta_mode 'beta', not '{mode}'"):
            TrainConfig(beta_mode=mode, beta_learnable=True)


def test_train_config_beta_learnable_is_a_bool(rng):
    # a truthy non-bool turned learning on, and an array raised a bare ValueError
    for bad in ("no", "yes", 1, 0, 1.0, None, np.array([1, 0]), np.array(True)):
        with pytest.raises(DomainError, match="beta_learnable must be True or False"):
            TrainConfig(beta_mode="beta", beta_learnable=bad)
    for flag in (True, False, np.True_, np.False_):
        config = TrainConfig(beta_mode="beta", beta_learnable=flag)
        assert config.beta_learnable is bool(flag)
    # a learnable beta moves; a fixed one is never reported
    net = L.make_mlp([2, 4, 2], seed=0)
    X, y = two_blob_data(rng, n=20)
    _, fixed = train(net, (X, y), TrainConfig(epochs=1, beta_mode="beta", beta_learnable=np.False_))
    assert "betas" not in fixed[-1]


def test_train_config_rejects_bad_batch_and_penalties():
    for bad in ({"batch_size": 0}, {"gamma": -5.0}, {"lam": -0.1}):
        with pytest.raises(DomainError):
            TrainConfig(**bad)


def test_unknown_regime_names_are_rejected(rng):
    net = L.make_mlp([2, 4, 2], seed=0)
    X, y = two_blob_data(rng, n=8)
    with pytest.raises(DomainError, match="hrad"):
        gradients(net, X, y, mode="hrad", beta=0.7)
    with pytest.raises(DomainError, match="Beta"):
        gradients(net, X, y, mode="Beta", beta=0.7)


def test_empty_dataset_fails_loudly():
    net = L.make_mlp([2, 4, 2], seed=0)
    X, y = np.zeros((0, 2)), np.zeros(0, dtype=np.int64)
    with pytest.raises(ShapeError):
        train(net, (X, y), TrainConfig(epochs=1))
    with pytest.raises(ShapeError):
        evaluate(net, X, y)
    with pytest.raises(ShapeError):
        gradients(net, X, y)


def bn_mlp(rng):
    """dense -> batch norm -> relu -> dense on 2-D inputs, 3 classes."""
    return L.Network(
        [
            L.Dense(rng.standard_normal((5, 2)), np.zeros(5)),
            L.BatchNorm(np.zeros(5), np.ones(5), np.ones(5), np.zeros(5)),
            L.Activation("relu", 5),
            L.Dense(rng.standard_normal((3, 5)), np.zeros(3)),
        ],
        (2,), 3,
    )


def test_history_is_the_inference_view(rng):
    X, y = two_blob_data(rng, n=60)
    X = X + [0.0, 2.0]  # shifted so batch statistics and the stored ones differ
    runs = (
        (L.make_mlp([2, 5, 2], seed=1), TrainConfig(epochs=2, batch_size=16, beta_mode="soft")),
        (bn_mlp(rng), TrainConfig(epochs=2, batch_size=16)),
    )
    for net, cfg in runs:
        trained, history = train(net, (X, y), cfg)
        assert (history[-1]["loss"], history[-1]["accuracy"]) == evaluate(trained, X, y)


def test_history_runs_one_dataset_forward_per_epoch(rng, monkeypatch):
    X, y = two_blob_data(rng, n=60)
    rows = []
    forward = L.Dense.forward
    monkeypatch.setattr(L.Dense, "forward",
                        lambda self, Z, *args: rows.append(Z.shape[0]) or forward(self, Z, *args))
    net = L.make_mlp([2, 5, 2], seed=1)  # two dense layers per forward
    train(net, (X, y), TrainConfig(epochs=3, batch_size=16))
    assert rows.count(60) == 3 * 2


def test_train_runs_no_boundary_scan(rng, monkeypatch):
    calls = []
    for cls in (L.Layer, L.Activation, L.MaxPool, L.SkipBlock):
        def counted(self, cache, gap, inner=cls.near_boundary):
            calls.append(type(self).__name__)
            return inner(self, cache, gap)
        monkeypatch.setattr(cls, "near_boundary", counted)
    X, y = two_blob_data(rng, n=40)
    train(L.make_mlp([2, 5, 2], seed=1), (X, y), TrainConfig(epochs=2, batch_size=8))
    assert calls == []


def test_train_passes_layer_warnings_through(rng, monkeypatch):
    forward = L.Activation.forward

    def noisy(self, Z, *args):
        # only the training steps run a forward with batch statistics
        if args and args[-1] is True:
            warnings.warn("probe warning from a training step", RuntimeWarning)
        return forward(self, Z, *args)

    monkeypatch.setattr(L.Activation, "forward", noisy)
    X, y = two_blob_data(rng, n=40)
    with pytest.warns(RuntimeWarning, match="probe warning"):
        train(L.make_mlp([2, 5, 2], seed=1), (X, y), TrainConfig(epochs=1, beta_mode="soft"))


def test_every_layer_kind_trains_without_warnings():
    from test_analysis import every_kind_net

    rng = np.random.default_rng(4)
    net = every_kind_net(rng)
    X = rng.standard_normal((40, net.dims[0]))
    y = rng.integers(0, 3, size=40)
    for mode in ("hard", "soft", "beta"):
        cfg = TrainConfig(epochs=1, batch_size=16, beta_mode=mode, beta=0.7,
                          beta_learnable=mode == "beta", gamma=1.0, lam=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, history = train(net, (X, y), cfg)
        assert np.isfinite(history[-1]["loss"])


# --- factorial joint MAP -------------------------------------------------------------

def orthogonal_unit_params(rng, K, R, D):
    """Cross-unit orthogonal slopes via disjoint orthonormal subspaces."""
    basis = np.linalg.qr(rng.standard_normal((D, K * R)))[0].T
    A = np.zeros((K, R, D))
    for k in range(K):
        A[k] = basis[k * R : (k + 1) * R] * (1.0 + rng.random((R, 1)))
    return MasoParams(A, rng.standard_normal((K, R)))


def test_joint_map_matches_brute_force(rng):
    import itertools
    for _ in range(25):
        K, R, D = 3, 2, 8
        p = orthogonal_unit_params(rng, K, R, D)
        z = rng.standard_normal(D)
        codes = joint_map_factorial(p, z)
        best, best_cfg = -np.inf, None
        for cfg in itertools.product(range(R), repeat=K):
            a = sum(p.A[k, cfg[k]] for k in range(K))
            b = sum(p.B[k, cfg[k]] for k in range(K))
            v = float(a @ z + b)
            if v > best:
                best, best_cfg = v, cfg
        assert tuple(codes) == best_cfg and codes.dtype == np.int64


def test_joint_map_requires_orthogonality(rng):
    p = MasoParams(rng.standard_normal((3, 2, 4)), np.zeros((3, 2)))
    with pytest.raises(PreconditionError):
        joint_map_factorial(p, rng.standard_normal(4))


def test_accuracy_counts_argmax_wins():
    net = L.Network([L.Dense(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))], (2,), 2)
    X = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
    assert evaluate(net, X, np.array([0, 1, 1]))[1] == pytest.approx(2.0 / 3.0)


def test_accuracy_checks_its_labels():
    net = L.make_mlp([2, 4, 2], seed=0)
    X = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
    with pytest.raises(DomainError, match="label must be an integer, got 0.9"):
        evaluate(net, X, [0.9, 1.2, 0.1])
    with pytest.raises(ShapeError, match="one label per input row"):
        evaluate(net, X, [5])
    with pytest.raises(DomainError, match="label out of range"):
        evaluate(net, X, [0, 1, 5])


def test_train_recalibrates_batch_norm_statistics(rng):
    # the stored statistics (0, 1) are far from the shifted data's; left
    # stale they gave inference loss 6.13 against a batch-statistics 1.73
    X, y = two_blob_data(rng, n=60)
    X = X + [0.0, 2.0]
    trained, history = train(bn_mlp(rng), (X, y), TrainConfig(epochs=2, batch_size=16))
    bn_input = trained.layers[0].forward(X)[0]
    bn = trained.layers[1]
    assert np.array_equal(bn.mean, bn_input.mean(axis=0)) and np.array_equal(bn.var, bn_input.var(axis=0))
    inference = evaluate(trained, X, y)[0]
    assert abs(inference - gradients(trained, X, y)[0]) < 1e-9
    assert history[-1]["loss"] == inference
