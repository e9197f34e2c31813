"""Every pass over a network's layers is one `network_forward_batch` call."""

import numpy as np
import pytest

from masonet import layers as L
from masonet import partition
from masonet.analysis import (
    class_templates,
    decompose,
    partial_product_norms,
    resnet_ensemble_terms,
)
from masonet.learn import evaluate, gradients
from masonet.ndcore import DomainError, ShapeError
from masonet.partition import (
    grid_scan,
    layer_codes_batch,
    nearest_neighbors,
    region_stats,
)
from test_analysis import every_kind_net, make_skip_chain


def test_each_walk_runs_one_forward(rng, forward_calls):
    net = every_kind_net(rng)
    depth = len(net.layers)
    x = rng.standard_normal(net.dims[0])
    for upto in range(depth + 1):
        forward_calls.clear()
        decompose(net, x, upto)
        assert forward_calls == [(1, upto)]
    for walk, layers_run in ((class_templates, depth), (partial_product_norms, depth - 1)):
        forward_calls.clear()
        walk(net, x)
        assert forward_calls == [(1, layers_run)], walk.__name__
    chain = make_skip_chain(rng, blocks=3)
    forward_calls.clear()
    resnet_ensemble_terms(chain, rng.standard_normal(chain.dims[0]))
    assert forward_calls == [(1, 4)]


def test_each_scan_runs_one_forward_per_chunk(rng, forward_calls, monkeypatch):
    monkeypatch.setattr(partition, "_CHUNK_ROWS", 7)
    net = L.make_mlp([2, 6, 5, 3], seed=1)  # dense, relu, dense, relu, dense
    # the forward stops at the prefix's last selector: a dense layer after
    # it adds no code
    for prefix, stop in ((0, 0), (1, 0), (2, 2), (3, 2), (len(net.layers), 4)):
        forward_calls.clear()
        grid_scan(net, ((-1.0, 1.0), (-1.0, 1.0)), 5, prefix)  # 25 points
        assert forward_calls == [(7, stop)] * 3 + [(4, stop)]
        forward_calls.clear()
        layer_codes_batch(net, rng.standard_normal((1, 2)), prefix)
        assert forward_calls == [(1, stop)]


def test_loss_and_gradients_run_one_forward(rng, forward_calls):
    net = every_kind_net(rng)
    X = rng.standard_normal((5, net.dims[0]))
    y = rng.integers(0, net.class_count, 5)
    evaluate(net, X, y)
    assert forward_calls == [(5, len(net.layers))]
    for mode in ("hard", "soft", "beta"):
        forward_calls.clear()
        gradients(net, X, y, mode, beta=0.3)
        assert forward_calls == [(5, len(net.layers))], mode
        forward_calls.clear()
        gradients(net, X[0], y[0], mode, beta=0.3)
        assert forward_calls == [(1, len(net.layers))], mode


def test_every_entry_point_checks_width_and_prefix():
    net = L.make_mlp([3, 4, 2], seed=0)
    depth = len(net.layers)
    wide, row = np.zeros((4, 4)), np.zeros(4)
    calls = {
        "network_forward_batch": lambda X, p: L.network_forward_batch(net, X, p),
        "network_forward": lambda X, p: L.network_forward(net, X[0]),
        "decompose": lambda X, p: decompose(net, X[0], p),
        "class_templates": lambda X, p: class_templates(net, X[0]),
        "partial_product_norms": lambda X, p: partial_product_norms(net, X[0]),
        "layer_codes_batch": lambda X, p: layer_codes_batch(net, X, p),
        "region_stats": lambda X, p: region_stats(net, X, p),
        "nearest_neighbors": lambda X, p: nearest_neighbors(net, p, 0, X, 1),
        "evaluate": lambda X, p: evaluate(net, X, np.zeros(len(X), dtype=int)),
        "gradients": lambda X, p: gradients(net, X, np.zeros(len(X), dtype=int)),
        # a lattice box with one side per column of X, and two for the wide X
        "grid_scan": lambda X, p: grid_scan(net, ((0, 1),) * (3 if X.shape[1] == 3 else 2), 2, p),
    }
    takes_prefix = {"network_forward_batch", "decompose", "layer_codes_batch", "region_stats",
                    "nearest_neighbors", "grid_scan"}
    # a fractional, boolean or string prefix used to raise a bare TypeError or
    # to run one layer
    bad_prefixes = (1.5, True, "1")
    for name, call in calls.items():
        with pytest.raises(ShapeError, match="does not match input dim 3|expects 3 input dims"):
            call(wide, depth)
        if name in takes_prefix:
            for prefix in (-1, depth + 1):
                with pytest.raises(ShapeError, match=f"layer prefix {prefix} out of range"):
                    call(np.zeros((4, 3)), prefix)
            for prefix in bad_prefixes:
                with pytest.raises(DomainError, match=f"layer prefix must be an integer, got {prefix}"):
                    call(np.zeros((4, 3)), prefix)
    # decompose picks its path from the prefix before it runs the forward
    one_layer = L.Network([L.Dense(np.eye(3), np.zeros(3))], (3,), 3)
    for prefix in bad_prefixes:
        with pytest.raises(DomainError, match="layer prefix must be an integer"):
            decompose(one_layer, np.zeros(3), prefix)
    chain = make_skip_chain(np.random.default_rng(0))
    with pytest.raises(ShapeError, match="does not match input dim 18"):
        resnet_ensemble_terms(chain, row)
