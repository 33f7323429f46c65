#!/usr/bin/env python3
# Mechanical verification of the conditional-symmetry chain: for each m,
# prolong the generator to second order, restrict to the solution
# manifold, and watch every coefficient land in the span of the
# (m+2)-component follow-up system.  Also extracts the algebraic
# constraint on the advective ansatz coefficient kappa.

import json
import time

from burgers_hierarchy import verify_kappa_constraint, verify_theorem

# verify_theorem raises VerificationError unless the claim holds, so a
# returned report is a verified one
print("theorem verification, m = 1..6")
for m in range(1, 7):
    t0 = time.perf_counter()
    report = verify_theorem(m)
    ms = (time.perf_counter() - t0) * 1000.0
    n_coeffs = sum(len(v) for v in report["coefficient_map"].values())
    print(f"  m={m}: ok   {n_coeffs} collected coefficients, {ms:.0f} ms")

# the m=1 coefficient map shows the familiar pattern: the residual is
# (1/4) * [ D1*u^2 + D2*u - 2*D1*u_x + D3 ] in the follow-up residuals D_b
print("\nm=1 coefficient map (monomial -> follow-up components):")
print(json.dumps(verify_theorem(1)["coefficient_map"]["1"], indent=2, sort_keys=True))

# the constant kappa in xi = kappa*u_1 + f(t,x)/2 is pinned by an exact
# polynomial constraint: three roots for one component, two for systems
print("\nkappa constraints:")
for m in (1, 2, 3):
    print(f"  m={m}: {verify_kappa_constraint(m)} = 0")
