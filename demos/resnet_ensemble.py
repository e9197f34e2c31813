"""Skip connections read as an ensemble of affine paths.

Within one partition region, each skip block applies (C_skip + A_act C),
so a chain of blocks multiplies out into 2^blocks products: every term
picks either the skip path or the conv path at each block.  Their sum is
exactly the slope matrix of the collapsed affine map at that input.
The script exits nonzero when the printed residual exceeds criterion 1's
bound 1e-6 (1 + |f|), with f the decomposed slope.
"""

import sys

import numpy as np

from masonet import (
    Activation,
    Conv,
    Dense,
    Network,
    SkipBlock,
    decompose,
    partial_product_norms,
    resnet_ensemble_terms,
)

rng = np.random.default_rng(2)


def block():
    conv = Conv(rng.standard_normal((1, 1, 3, 3)) * 0.5, rng.standard_normal(1) * 0.1,
                (1, 1), "same-zero", (1, 3, 3))
    skip = Conv(rng.standard_normal((1, 1, 1, 1)) * 0.5, np.zeros(1),
                (1, 1), "same-zero", (1, 3, 3))
    return SkipBlock(conv, Activation("relu", 9), skip, rng.standard_normal(9) * 0.1)


net = Network(
    [block(), block(), block(),
     Dense(rng.standard_normal((4, 9)) * 0.4, rng.standard_normal(4))],
    (1, 3, 3), 4,
)

x = rng.standard_normal(9)
terms = resnet_ensemble_terms(net, x)
form = decompose(net, x, upto_layer=3)
print(f"{len(terms)} path terms from 3 blocks "
      "(term index bits: block i -> skip (0) or conv path (1))")
for i, t in enumerate(terms):
    bits = format(i, "03b")[::-1]
    print(f"  term {i} (paths {bits}): frobenius norm {np.linalg.norm(t):9.4f}")
residual = np.abs(sum(terms) - form.A)
print(f"|sum of terms - decomposed slope| = {np.max(residual):.2e}")
ok = np.all(residual <= 1e-6 * (1.0 + np.abs(form.A)))

# depth profile of the collapsed products, shallow to deep
norms = partial_product_norms(net, x)
print("\npartial product norms by depth:", [f"{v:.3f}" for v in norms])
if not ok:
    sys.exit("the sum of terms misses the decomposed slope by more than criterion 1's bound 1e-6 (1 + |f|)")
