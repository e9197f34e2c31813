"""Max-affine fitting: exact recovery and the error decay law.

A convex function sampled on a grid is approximated by the max of R
affine pieces.  Data that already comes from a max-affine function is
recovered to round-off; for a strictly convex target like x^2 the sup
error decays like c/R^2 (log-log slope about -2 on this smooth case,
comfortably beating the guaranteed -1).
"""

import numpy as np

from masonet import FitProblem, fit_max_affine, sup_error, universality_curve

# exact recovery of a planted 3-piece function
A_true = np.array([[-2.0], [0.5], [3.0]])
b_true = np.array([0.0, 0.3, -1.2])
x = np.linspace(-2, 2, 401)
y = np.max(x[:, None] * A_true.T + b_true, axis=1)
spline = fit_max_affine(FitProblem(x, y, 3))
print("planted 3-piece max-affine:")
print(f"  recovered slopes  {np.round(np.sort(spline.A[0, :, 0]), 10)}")
print(f"  sup error {sup_error(x, y, spline):.2e}")

# error decay on x^2 over [-1, 1]
x = np.linspace(-1, 1, 2001)
curve, slope, c = universality_curve(x, x**2, [2, 4, 8, 16, 32, 64])
print("\nfitting x^2 on [-1, 1]:")
print(f"  {'R':>4} {'sup error':>12} {'R * error':>12}")
for r, e in curve:
    print(f"  {r:4d} {e:12.3e} {r * e:12.3e}")
print(f"  log-log slope {slope:.3f}; c = max R*error = {c:.3e}")

# a 2-D convex bowl works the same way, pieces form a faceted paraboloid;
# the alternating fit is seed-sensitive in d > 1, so restart a few times
rng = np.random.default_rng(0)
X2 = rng.uniform(-1, 1, size=(2000, 2))
y2 = np.sum(X2**2, axis=1)
for R in (4, 16, 64):
    best = min(
        sup_error(X2, y2, fit_max_affine(FitProblem(X2, y2, R, seed=s)))
        for s in range(3)
    )
    print(f"2-D bowl, R={R:3d}: sup error {best:.3e} (best of 3 restarts)")
