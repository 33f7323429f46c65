#!/usr/bin/env python3
# Exact solutions from heat data: pick m solutions of v_t = v_xx, solve
# the associated linear algebraic system exactly, and certify the result
# by substituting it back into the coupled system.

from fractions import Fraction

from burgers_hierarchy import (
    HeatSolution,
    certify,
    heat_constant,
    heat_exponential,
    heat_gaussian,
    heat_polynomial,
    heat_sum,
    solve_exact,
)
from burgers_hierarchy.hopfcole import mix_heat_solutions
from burgers_hierarchy.symcore import X

# classical single-component examples first: the traveling wave ...
wave_data = heat_sum([(1, heat_constant(1)), (1, heat_exponential(1, sign=-1))])
wave = solve_exact(1, [wave_data])
print("traveling wave: u =", wave.numerators[0], "/", wave.det)
print("  certification:", certify(wave).mode)

# ... and a kink built from a Gaussian kernel
kernel = solve_exact(1, [heat_gaussian(1)])
print("gaussian-kernel profile: u(0.5, 1.0) =", kernel.evaluate(0.5, 1.0)[0])
print("  certification:", certify(kernel).mode)

# a coupled pair with a rational solution; the determinant 4t - 2x^2 is
# attached as a domain guard (the solution blows up on 2t = x^2)
pair = solve_exact(2, [HeatSolution(X, label="x"), heat_polynomial(2)])
print("\ncoupled pair from (x, x^2 + 2t):")
for a, num in enumerate(pair.numerators, start=1):
    print(f"  u{a} = ({num}) / ({pair.det})")
print("  guard at (t,x)=(0.5, 1.0):", pair.guard_ok(0.5, 1.0),
      " at (0.5, 3.0):", pair.guard_ok(0.5, 3.0))

# four components from heat polynomials, also certified symbolically
quad = solve_exact(4, [heat_polynomial(n) for n in (1, 2, 3, 4)])
print(f"\nfour components from heat polynomials: {certify(quad).mode} certification")

# the construction is gauge invariant: mixing the heat data by any
# invertible constant matrix leaves the solved components unchanged
mixed = solve_exact(2, mix_heat_solutions(
    [HeatSolution(X, label="x"), heat_polynomial(2)],
    [[1, 2], [Fraction(1, 2), -1]],
))
t, x = 0.4, 2.5
print("\ngauge invariance: |u_mixed - u_base| =",
      max(abs(a - b) for a, b in zip(pair.evaluate(t, x), mixed.evaluate(t, x))))
