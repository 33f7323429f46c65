"""Toolkit for the family of coupled Burgers-like systems.

The package constructs the m-component systems and their companion
matrix form, mechanically verifies their conditional (nonclassical) and
classical point symmetries, produces exact solutions from linear heat
data via the matrix linearization, and cross-validates those solutions
against a finite-difference solver.
"""

# The package root exports what the demos and the README's library
# examples import from it; everything else is imported from its module.
from .parser import parse_expr
from .hierarchy import (
    build_companion,
    build_delta,
    build_symmetry_field,
    companion_row_permutation,
    matrix_burgers_residual,
)
from .prolong import verify_kappa_constraint, verify_theorem
from .liealg import generators, structure_constants
from .hopfcole import (
    HeatSolution,
    certify,
    heat_constant,
    heat_exponential,
    heat_gaussian,
    heat_polynomial,
    heat_sum,
    solve_exact,
)

__version__ = "0.1.0"
