"""Exact affine view of a conv/pool classifier at a single input.

Builds conv -> relu -> maxpool -> dense on an 8x8 image, then extracts
the affine map (A[x], b[x]) the network applies inside the input's
partition region.  The forward pass and A[x] x + b[x] agree to float
round-off, and the rows of the collapsed map are per-class templates:
each logit is literally a matched-filter response <template, x> + bias.
The script exits nonzero when a residual it prints exceeds criterion 1's
bound 1e-6 (1 + |f|).
"""

import sys

import numpy as np

from masonet import (
    Activation,
    Conv,
    Dense,
    MaxPool,
    Network,
    class_templates,
    decompose,
    network_forward,
    pool_regions_2d,
)


def within_bound(got, f) -> bool:
    """Criterion 1: |got - f| <= 1e-6 (1 + |f|) in every entry."""
    return bool(np.all(np.abs(got - f) <= 1e-6 * (1.0 + np.abs(f))))


rng = np.random.default_rng(0)

regions, _ = pool_regions_2d((4, 8, 8), (2, 2), (2, 2))
net = Network(
    [
        Conv(rng.standard_normal((4, 1, 3, 3)) * 0.5, rng.standard_normal(4) * 0.1,
             (1, 1), "same-zero", (1, 8, 8)),
        Activation("relu", 256),
        MaxPool(regions, 256),
        Dense(rng.standard_normal((10, 64)) * 0.3, rng.standard_normal(10) * 0.1),
    ],
    (1, 8, 8),
    10,
)

x = rng.standard_normal(64)
logits, _ = network_forward(net, x)
form = decompose(net, x)
ok = within_bound(form(x), logits)

print("network forward:      ", np.round(logits[:4], 6), "...")
print("affine A[x] x + b[x]: ", np.round((form.A @ x + form.b)[:4], 6), "...")
print(f"max |difference|:      {np.max(np.abs(logits - form(x))):.3e}")
print(f"A[x] shape {form.A.shape}: one signal-length row per class")

# the same map, read as matched filters for the class logits
T, biases = class_templates(net, x)
k = int(np.argmax(logits))
print(f"\npredicted class {k}; its logit rebuilt from the template:")
print(f"  <template_{k}, x> + bias = {T[k] @ x + biases[k]:.6f}  (logit {logits[k]:.6f})")
ok &= within_bound(T @ x + biases, logits)

# the affine map is locally constant: nearby inputs in the same region
# reuse it exactly, so the residual stays at round-off without recomputing
for eps in (1e-6, 1e-4):
    x2 = x + eps * rng.standard_normal(64)
    out2, _ = network_forward(net, x2)
    print(f"perturbation {eps:.0e}: reuse residual {np.max(np.abs(out2 - form(x2))):.3e}")
    ok &= within_bound(form(x2), out2)
if not ok:
    sys.exit("a residual exceeds criterion 1's bound 1e-6 (1 + |f|)")
