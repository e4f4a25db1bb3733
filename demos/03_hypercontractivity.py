"""Sharpness of the L^p -> L^2 contraction threshold.

For the exponential family f(x) = e^{lam x} the ratio
||e^{tL} f||_2 / ||f||_p equals exp(lam^2 (1 + e^{-2t} - p)/4) exactly:
it crosses 1 precisely at p = 1 + e^{-2t}.  The numeric column repeats
the computation by quadrature with no closed forms involved: Gauss-Hermite
for both norms, the L^2 one as ||e^{tL} f||_2^2 = <f, e^{2tL} f>, one 2-D
integral of f(x) f(e^{-2t} x + sqrt(1 - e^{-4t}) u) (self-adjointness,
the semigroup law and the translation route).
"""

from mehler import hypercontractivity_check, nelson_min_p

t, lam = 0.5, 2.0
threshold = nelson_min_p(t)
print(f"t = {t}, lambda = {lam}, contraction threshold p* = 1 + e^(-2t) "
      f"= {threshold:.10f}\n")

print(f"{'p':>8} {'closed form':>14} {'numeric':>14}  verdict")
for p in (1.05, 1.15, 1.25, 1.3678794411714423, 1.5, 1.75, 2.0):
    res = hypercontractivity_check(t, p, lam)
    verdict = "contracts" if p >= threshold else "expands"
    marker = "  <- threshold" if abs(p - threshold) < 1e-12 else ""
    print(f"{p:>8.4f} {res.ratio_closed_form:>14.8f} "
          f"{res.ratio_numeric:>14.8f}  {verdict}{marker}")

print("\nthe threshold moves with t:")
for tv in (0.1, 0.25, 0.5, 1.0, 2.0):
    print(f"  t={tv:<5} p* = {nelson_min_p(tv):.8f}")
