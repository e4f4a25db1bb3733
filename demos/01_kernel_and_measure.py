"""Tour of the log-domain basics: Mehler kernel values and Gaussian measures.

Everything that can over- or underflow is carried as its natural log,
so quantities like gamma(B) ~ exp(-900) for a ball centered at |c| = 30
stay fully resolved.
"""

import numpy as np

from mehler import (
    Annulus,
    Ball,
    FullSpace,
    gamma_log,
    integrate_gamma_log,
    make_maximal_admissible_ball,
    mehler_log,
    mehler_log_values,
    set_distance,
)

print("=" * 64)
print("Mehler kernel, log domain")
print("=" * 64)

for t in (0.1, 1.0, 5.0):
    v = mehler_log(t, [1.0, 0.5], [-0.3, 2.0])
    print(f"t={t:<4}  log M_t = {v.log_magnitude:+.12f}   M_t = {v.to_float():.10g}")

big = mehler_log(0.1, [30.0], [30.0])
print(f"\ndeep in the tail: log M_0.1(30, 30) = {big.log_magnitude:.6f}"
      f"  (linear value would overflow: representable={big.is_finite_float()})")

x, y = np.array([1.3, -0.4]), np.array([0.2, 2.2])
print("\nsymmetry, bit for bit:",
      float(mehler_log_values(0.7, x, y)) == float(mehler_log_values(0.7, y, x)))

print("\nconservation (integral of M_t(x, .) dgamma = 1):")
for t in (0.1, 1.0):
    total = integrate_gamma_log(
        lambda pts: mehler_log_values(t, pts, np.array([[3.0]])),
        FullSpace(1))
    print(f"  t={t}:  integral = {total.to_float():.12f}")

print()
print("=" * 64)
print("Gaussian measures of admissible balls and their annuli")
print("=" * 64)

for c in (0.0, 2.0, 8.0, 30.0):
    ball = make_maximal_admissible_ball([c])
    lg = gamma_log(ball)
    print(f"|c|={c:<5} r={ball.radius:<8.4g} log gamma(B) = {lg.log_magnitude:+.6f}")

ball = make_maximal_admissible_ball([8.0])
print("\nannuli around B(8, 1/8):")
for k in range(4):
    ann = Annulus(ball, k)
    lg = gamma_log(ann)
    d = set_distance(ball, ann)
    print(f"  C_{k}: radii [{ann.inner_radius:.4g}, {ann.outer_radius:.4g}]"
          f"  dist(B, C_k) = {d:.4g}  log gamma = {lg.log_magnitude:+.4f}")

print("\nmeasures in n = 2 (one axis integral):")
for ball in (Ball([0.0, 0.0], 1.0), Ball([5.0, 0.0], 0.2)):
    print(f"  {ball}: log gamma = {gamma_log(ball).log_magnitude:+.8f}")
