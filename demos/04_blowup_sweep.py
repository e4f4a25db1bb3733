"""The negative result, numerically: implied-constant blow-up.

Take the off-diagonal template with f = 1_B on maximal admissible balls
B(c, 1/c) and annuli C_1(B), and divide out its whole right side.  If the
template held, the quotient would stay bounded along the family; instead,
below the failure threshold t* its log grows like slope * |c_B|^2 with

    slope = 2/(e^t + 1) - 1 + (1/p - 1/q),

and the least-squares fit over the sweep reproduces that slope.  Above
t* the same quotient decays.  The slope carries no dimension: the same
sweep in n = 2 and 3 (each a few milliseconds, the whole grid in one
refinement of the axial annulus rule) fits it as well.
"""

from mehler import OffDiagHypothesis, failure_threshold, sweep_blowup

hyp = OffDiagHypothesis(p=1.0, q=2.0)  # theta = 0, c = 1/2 defaults
grid = [4.0, 6.0, 8.0, 10.0, 12.0]
t_star = failure_threshold(hyp.p, hyp.q)
print(f"template: p={hyp.p}, q={hyp.q}, theta={hyp.theta}, c={hyp.c}")
print(f"failure threshold t* = log 3 = {t_star:.10f}\n")

for t in (0.5, t_star, 1.5):
    res = sweep_blowup(hyp, t, k=1, n=1, cB_grid=grid)
    tag = ("t < t*: estimates fail, constant blows up" if t < t_star else
           "t = t*: boundary, slope ~ 0" if t == t_star else
           "t > t*: constant decays along this family")
    print(f"t = {t:.4f}  ({tag})")
    print(f"  {'|c_B|':>6} {'log LHS':>12} {'log gamma(B)':>14} {'log implied':>12}")
    for row in res.rows:
        print(f"  {row.cB_norm:>6.1f} {row.log_lhs:>12.4f} "
              f"{row.log_gammaB:>14.4f} {row.log_implied_const:>12.4f}")
    print(f"  fitted slope vs |c_B|^2: {res.fitted_slope:+.6f}   "
          f"predicted: {res.predicted_slope:+.6f}\n")

for n in (2, 3):
    res = sweep_blowup(hyp, 0.5, k=1, n=n, cB_grid=grid)
    print(f"n = {n}, t = 0.5000")
    print(f"  {'|c_B|':>6} {'log LHS':>12} {'log gamma(B)':>14} {'log implied':>12}")
    for row in res.rows:
        print(f"  {row.cB_norm:>6.1f} {row.log_lhs:>12.4f} "
              f"{row.log_gammaB:>14.4f} {row.log_implied_const:>12.4f}")
    print(f"  fitted slope vs |c_B|^2: {res.fitted_slope:+.6f}   "
          f"predicted: {res.predicted_slope:+.6f}\n")

print("equivalent CLI invocations:")
for n in (1, 2, 3):
    print(f"  mehler sweep --t 0.5 --p 1 --q 2 --k 1 --n {n} "
          "--cmin 4 --cmax 12 --steps 5")
