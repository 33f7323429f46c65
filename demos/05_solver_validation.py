#!/usr/bin/env python3
# Cross-validate the exact solutions against the finite-difference
# solver: Dirichlet data from the closed form, semi-implicit stepping,
# and refinement ladders confirming second order in space and time.

from burgers_hierarchy import (
    HeatSolution,
    heat_constant,
    heat_exponential,
    heat_polynomial,
    heat_sum,
    solve_exact,
)
from burgers_hierarchy.fdsolve import (
    Grid1D,
    convergence_study,
    error_norms,
    field_from_exact,
    make_boundary,
    solve_ivp,
)
from burgers_hierarchy.symcore import X

wave = solve_exact(1, [heat_sum([(1, heat_constant(1)),
                                 (1, heat_exponential(1, sign=-1))])])

grid = Grid1D(-10.0, 10.0, 400, 1e-4, 0.5)
initial = field_from_exact(wave, grid, 0.0)
bc = make_boundary(wave, grid)
print("traveling wave, nx=400, dt=1e-4, t_end=0.5 ...")
final = solve_ivp(1, initial, grid, [0.25, 0.5], bc)
for state in final:
    exact = field_from_exact(wave, grid, state.time)
    l2, linf = error_norms(state, exact, grid.dx)
    print(f"  t={state.time:4.2f}:  L2={l2:.3e}  Linf={linf:.3e}")

print("\nrefinement ladder (dt = 0.1 dx, second order in space and time):")
ladder = convergence_study(1, wave, [100, 200, 400], -10.0, 10.0, 0.5)
for entry, order in zip(ladder.entries[1:], ladder.orders_l2):
    print(f"  nx={entry.nx:4d}: L2={entry.l2:.3e}  observed order {order:.3f}")

print("\nsame study for the coupled pair on a determinant-safe domain:")
pair = solve_exact(2, [HeatSolution(X, label="x"), heat_polynomial(2)])
ladder2 = convergence_study(2, pair, [100, 200, 400], 2.0, 4.0, 0.1)
for entry, order in zip(ladder2.entries[1:], ladder2.orders_l2):
    print(f"  nx={entry.nx:4d}: L2={entry.l2:.3e}  observed order {order:.3f}")
