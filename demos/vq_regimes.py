"""One relu unit under the three selection regimes.

Hard selection picks the best affine piece (the usual relu).  Soft
selection weighs pieces by a softmax of their scores.  The beta regime
interpolates: the selection optimizes beta * fit + (1 - beta) * entropy,
whose closed form is a softmax at inverse temperature beta / (1 - beta).
On relu that produces exactly the swish family, with SiGLU at beta = 0.5.
"""

import numpy as np

from masonet import (
    Activation,
    BetaParam,
    beta_vq_infer,
    entropy_objective,
    forward_hard,
    forward_with_selection,
    svq_infer,
)

relu = Activation("relu", 1).as_maso()


def outputs(u, beta):
    z = np.array([u])
    hard, sel = forward_hard(relu, z)
    soft = forward_with_selection(relu, z, svq_infer(relu, z))
    bsel = beta_vq_infer(relu, z, BetaParam(beta))
    return hard[0], soft[0], forward_with_selection(relu, z, bsel)[0], bsel


print(f"{'u':>6} {'hard':>9} {'soft':>9} {'beta=0.9':>9} {'selection row':>22}")
for u in (-3.0, -0.5, 0.0, 0.5, 3.0):
    h, s, b, sel = outputs(u, 0.9)
    print(f"{u:6.1f} {h:9.4f} {s:9.4f} {b:9.4f}   {np.round(sel.T[0], 4)}")

# swish identity: beta-VQ relu output is u * sigmoid(eta u), eta = beta/(1-beta)
grid = np.linspace(-6, 6, 1201)
for beta in (0.25, 0.5, 0.75):
    eta = beta / (1 - beta)
    got = np.array([outputs(u, beta)[2] for u in grid])
    swish = grid / (1 + np.exp(-eta * grid))
    print(f"beta={beta}: max |beta-VQ - swish| = {np.max(np.abs(got - swish)):.2e}"
          + ("  (this is SiGLU)" if beta == 0.5 else ""))

# the selection row really is the optimum of the entropy objective
z = np.array([1.3])
beta = BetaParam(0.7)
T = beta_vq_infer(relu, z, beta)
best = entropy_objective(relu, z, T, beta)[0]
rng = np.random.default_rng(0)
worse = 0
for _ in range(2000):
    t = rng.dirichlet(np.ones(2))
    from masonet.maso import SoftSelection
    if entropy_objective(relu, z, SoftSelection(t[None, :]), beta)[0] > best + 1e-12:
        worse += 1
print(f"\nrandom simplex rows beating the closed form: {worse}/2000")
