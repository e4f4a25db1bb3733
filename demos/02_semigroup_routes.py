"""Applying e^{tL}: three independent routes that must agree.

1. kernel form: log-domain quadrature of the Mehler kernel over the set,
2. translation form: adaptive quadrature of f(e^{-t}x + sqrt(1-e^{-2t})u),
3. erf closed form, available for interval indicators in n = 1.

Their mutual agreement is the package's backbone oracle; Hermite
polynomials and exponentials give eigen-decay and moment cross-checks.
"""

import math

import numpy as np
from scipy.special import eval_hermite

from mehler import (
    Ball,
    apply_indicator_closed_log,
    apply_indicator_log,
    apply_via_translation,
)

t, a, b, y = 0.5, 7.875, 8.125, 8.5
ball = Ball([8.0], 0.125)

kern = apply_indicator_log(t, ball, [y]).log_magnitude
closed = apply_indicator_closed_log(t, a, b, y)


def indicator(pts):
    z = pts[:, 0]
    return ((z >= a) & (z < b)).astype(float)


trans = apply_via_translation(t, indicator, [y], breakpoints=(a, b))

print("e^{tL} 1_B(y) at t=0.5, B = B(8, 1/8), y = 8.5:")
print(f"  kernel form      log = {kern:.12f}")
print(f"  erf closed form  log = {closed:.12f}")
print(f"  translation form log = {math.log(trans):.12f}")
print(f"  worst pairwise relative gap: "
      f"{max(abs(math.expm1(kern - closed)), abs(trans / math.exp(closed) - 1)):.2e}")

print("\nHermite eigenfunctions: e^{tL} H_k = e^{-kt} H_k")
print(f"{'k':>3} {'x':>6} {'numeric':>18} {'e^{-kt} H_k(x)':>18} {'rel err':>10}")
for k in range(6):
    x = 1.5
    got = apply_via_translation(t, lambda pts, k=k: eval_hermite(k, pts[:, 0]), [x],
                                breakpoints=())
    want = math.exp(-k * t) * float(eval_hermite(k, x))
    print(f"{k:>3} {x:>6} {got:>18.10f} {want:>18.10f} "
          f"{abs(got / want - 1):>10.2e}")

print("\nexponential moments: e^{tL} e^{lam .}(x) = "
      "exp(lam e^{-t} x + lam^2 (1 - e^{-2t})/4)")
for lam in (0.5, 1.0, 2.0):
    x = 1.2
    got = apply_via_translation(t, lambda pts, lam=lam: np.exp(lam * pts[:, 0]), [x],
                                breakpoints=())
    want = math.exp(lam * math.exp(-t) * x - lam * lam * math.expm1(-2 * t) / 4)
    print(f"  lam={lam}:  numeric {got:.12f}   closed {want:.12f}")
