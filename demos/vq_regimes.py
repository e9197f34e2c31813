"""One relu unit under the three selection regimes.

Hard selection picks the best affine piece (the usual relu).  Soft
selection weighs pieces by a softmax of their scores.  The beta regime
interpolates: the selection optimizes beta * fit + (1 - beta) * entropy,
whose closed form is a softmax at inverse temperature beta / (1 - beta).
On relu that produces exactly the swish family, with SiGLU at beta = 0.5.
"""

import numpy as np

from masonet import Activation, entropy_objective, forward

relu = Activation("relu", 1).as_maso()


print(f"{'u':>6} {'hard':>9} {'soft':>9} {'beta=0.9':>9} {'selection row':>22}")
for u in (-3.0, -0.5, 0.0, 0.5, 3.0):
    z = np.array([u])
    hard, soft = forward(relu, z)[0], forward(relu, z, 0.5)[0]
    weighted, T = forward(relu, z, 0.9)
    print(f"{u:6.1f} {hard[0]:9.4f} {soft[0]:9.4f} {weighted[0]:9.4f}   {np.round(T[0], 4)}")

# swish identity: beta-VQ relu output is u * sigmoid(eta u), eta = beta/(1-beta);
# one forward runs the whole grid, one input per row
grid = np.linspace(-6, 6, 1201)
for beta in (0.25, 0.5, 0.75):
    eta = beta / (1 - beta)
    got = forward(relu, grid[:, None], beta)[0][:, 0]
    swish = grid / (1 + np.exp(-eta * grid))
    print(f"beta={beta}: max |beta-VQ - swish| = {np.max(np.abs(got - swish)):.2e}"
          + ("  (this is SiGLU)" if beta == 0.5 else ""))

# the selection row really is the optimum of the entropy objective
z = np.array([1.3])
beta = 0.7
_, T = forward(relu, z, beta)
best = entropy_objective(relu, z, T, beta)[0]
rng = np.random.default_rng(0)
rows = rng.dirichlet(np.ones(2), size=2000)[:, None, :]  # 2,000 random simplex rows
values = entropy_objective(relu, np.tile(z, (2000, 1)), rows, beta)[:, 0]
worse = int(np.count_nonzero(values > best + 1e-12))
print(f"\nrandom simplex rows beating the closed form: {worse}/2000")
