"""Classical point symmetries of the coupled systems.

Every member of the family admits five generators -- time and space
translation, scaling, a Galilean boost, and a projective transformation.
The closed forms differ per m but all five-dimensional algebras close
with the same rational structure constants, which is how the cross-m
isomorphism is checked here: entrywise equality of the tables in the
given bases (stronger than, and implying, abstract isomorphism).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hierarchy import VectorField, tier_of
from .linalg import rref
from .symcore import Expr, ONE, T, X, ZERO, coefficient_rows, jet, rational


class NonClosureError(Exception):
    """A commutator left the five-generator span."""


def generators(m: int) -> list[VectorField]:
    """The five generators in their three closed forms (m = 1, m = 2, m >= 3)."""
    if m < 1:
        raise ValueError("m must be positive")
    k = tier_of(m)

    def u(a: int) -> Expr:
        return jet(k, a)

    zeros = (ZERO,) * m

    xi1 = VectorField(m, k, ONE, ZERO, zeros, name="Xi1")
    xi2 = VectorField(m, k, ZERO, ONE, zeros, name="Xi2")

    if m == 1:
        xi3 = VectorField(m, k, 2 * T, X, (-u(1),), name="Xi3")
        xi4 = VectorField(m, k, ZERO, T, (ONE,), name="Xi4")
        xi5 = VectorField(m, k, T ** 2, T * X, (X - T * u(1),), name="Xi5")
    elif m == 2:
        xi3 = VectorField(m, k, 2 * T, X, (-u(1), -2 * u(2)), name="Xi3")
        xi4 = VectorField(m, k, ZERO, T, (rational(2), -u(1)), name="Xi4")
        xi5 = VectorField(
            m, k, T ** 2, T * X,
            (2 * X - T * u(1), -(X * u(1) + 2 * T * u(2) + 2)),
            name="Xi5",
        )
    else:
        xi3 = VectorField(
            m, k, 2 * T, X,
            tuple(-rational(a) * u(a) for a in range(1, m + 1)),
            name="Xi3",
        )
        etas4 = [Expr.from_rational(m)]
        etas4 += [rational(a - m - 1) * u(a - 1) for a in range(2, m + 1)]
        xi4 = VectorField(m, k, ZERO, T, tuple(etas4), name="Xi4")
        etas5 = [rational(m) * X - T * u(1)]
        etas5.append(-(rational(m - 1) * (X * u(1) + m) + 2 * T * u(2)))
        for a in range(3, m + 1):
            etas5.append(
                -(rational(a) * T * u(a)
                  + rational(m - a + 1) * (X * u(a - 1) - rational(m - a + 2) * u(a - 2)))
            )
        xi5 = VectorField(m, k, T ** 2, T * X, tuple(etas5), name="Xi5")

    return [xi1, xi2, xi3, xi4, xi5]


def commutator(a: VectorField, b: VectorField) -> VectorField:
    """Lie bracket [a, b], coefficientwise a(b_i) - b(a_i)."""
    if (a.m, a.tier) != (b.m, b.tier):
        raise ValueError("commutator requires fields over the same variable set")
    return VectorField(
        a.m,
        a.tier,
        a.apply_to(b.tau) - b.apply_to(a.tau),
        a.apply_to(b.xi) - b.apply_to(a.xi),
        tuple(a.apply_to(eb) - b.apply_to(ea) for ea, eb in zip(a.etas, b.etas)),
        name=f"[{a.name},{b.name}]",
    )


def _field_components(f: VectorField) -> list[Expr]:
    return [f.tau, f.xi, *f.etas]


def _expand_in_basis(target: VectorField, basis: list[VectorField]) -> list[Fraction]:
    """Exact rational coordinates of target in the basis, or raise."""
    rows: list[list[Fraction]] = []  # basis coefficients, then target's
    n = len(basis)
    for ci in range(len(_field_components(target))):
        comps = [_field_components(f)[ci] for f in basis]
        comps.append(_field_components(target)[ci])
        rows.extend(coefficient_rows(comps))

    # exact elimination on the (overdetermined) system; rows past the
    # rank are zero on the basis side and must have zero rhs
    aug, pivots = rref(rows, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        raise NonClosureError(
            f"{target.name} does not lie in the span of the generators"
        )
    sol = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        sol[c] = aug[r][n]
    return sol


@dataclass(frozen=True)
class StructureConstants:
    """c[i][j][k] with [Xi_i, Xi_j] = sum_k c_ij^k Xi_k (0-based storage)."""

    m: int
    c: tuple

    def entry(self, i: int, j: int, k: int) -> Fraction:
        """1-based accessor."""
        return self.c[i - 1][j - 1][k - 1]

    def antisymmetry_holds(self) -> bool:
        n = len(self.c)
        return all(
            self.c[i][j][k] == -self.c[j][i][k]
            for i in range(n) for j in range(n) for k in range(n)
        )

    def jacobi_residual(self) -> Fraction:
        """Sum of absolute Jacobi defects; zero for a genuine bracket."""
        n = len(self.c)
        total = Fraction(0)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for s in range(n):
                        acc = Fraction(0)
                        for l in range(n):
                            acc += self.c[i][j][l] * self.c[l][k][s]
                            acc += self.c[j][k][l] * self.c[l][i][s]
                            acc += self.c[k][i][l] * self.c[l][j][s]
                        total += abs(acc)
        return total

    def table_text(self) -> str:
        """5x5 commutator table with entries as basis combinations."""
        n = len(self.c)
        cells = [[_combo_str(self.c[i][j]) for j in range(n)] for i in range(n)]
        width = max(max(len(s) for s in row) for row in cells)
        width = max(width, 8)
        header = " " * 10 + "".join(f"{'Xi' + str(j + 1):>{width + 2}}" for j in range(n))
        lines = [header]
        for i in range(n):
            lines.append(
                f"{'[Xi' + str(i + 1) + ', .]':>10}"
                + "".join(f"{cells[i][j]:>{width + 2}}" for j in range(n))
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        out = {}
        n = len(self.c)
        for i in range(n):
            for j in range(n):
                combo = {
                    str(k + 1): str(self.c[i][j][k])
                    for k in range(n) if self.c[i][j][k] != 0
                }
                if combo:
                    out[f"[{i + 1},{j + 1}]"] = combo
        return {"m": self.m, "brackets": out}


def _combo_str(coeffs) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"Xi{k + 1}")
        elif c == -1:
            parts.append(f"-Xi{k + 1}")
        else:
            parts.append(f"{c}*Xi{k + 1}")
    return "+".join(parts).replace("+-", "-") if parts else "0"


def structure_constants(m: int) -> StructureConstants:
    """Expand every bracket of the generators in their own basis;
    raises :class:`NonClosureError` if a bracket escapes."""
    basis = generators(m)
    n = len(basis)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            sol = _expand_in_basis(commutator(basis[i], basis[j]), basis)
            for k in range(n):
                c[i][j][k] = sol[k]
                c[j][i][k] = -sol[k]
    frozen = tuple(tuple(tuple(row) for row in plane) for plane in c)
    return StructureConstants(m, frozen)


@dataclass(frozen=True)
class IsomorphismReport:
    m1: int
    m2: int
    identical: bool

    def to_json_dict(self) -> dict:
        return {"m1": self.m1, "m2": self.m2, "identical_tables": self.identical}


def isomorphism_check(m1: int, m2: int) -> IsomorphismReport:
    """Entrywise comparison of the two structure-constant tables."""
    t1 = structure_constants(m1)
    t2 = structure_constants(m2)
    return IsomorphismReport(m1, m2, t1.c == t2.c)
