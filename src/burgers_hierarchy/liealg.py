"""Classical point symmetries of the coupled systems.

Every member of the family admits five generators -- time and space
translation, scaling, a Galilean boost, and a projective transformation
-- given by one closed form in m.  All the five-dimensional algebras
close with the same rational structure constants, kept as a sparse map
from each bracket [Xi_i, Xi_j], i < j, to its nonzero coefficients, which
one sparse exact elimination (:func:`~burgers_hierarchy.linalg.rref`)
yields for all brackets at once.  :func:`structure_constants` returns
only a table that is a Lie algebra: it raises :class:`NonClosureError`
when a bracket leaves the span or the table breaks the Jacobi identity.
The cross-m isomorphism is checked as equality of these maps in the
given bases (stronger than, and implying, abstract isomorphism).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .hierarchy import VectorField, _check_m, components
from .linalg import rref
from .symcore import ONE, T, X, ZERO, coefficient_rows, rational


class NonClosureError(Exception):
    """A commutator left the five-generator span or broke the Jacobi identity."""


def generators(m: int) -> list[VectorField]:
    """The five generators in their closed form for m components, read
    through :func:`~burgers_hierarchy.hierarchy.components` (u_0 = -1)."""
    _check_m(m)
    u = components(m)
    zeros = (ZERO,) * m
    xi1 = VectorField(m, ONE, ZERO, zeros, name="Xi1")
    xi2 = VectorField(m, ZERO, ONE, zeros, name="Xi2")
    etas3 = tuple(-rational(a) * u(a) for a in range(1, m + 1))
    xi3 = VectorField(m, 2 * T, X, etas3, name="Xi3")
    etas4 = tuple(rational(a - m - 1) * u(a - 1) for a in range(1, m + 1))
    xi4 = VectorField(m, ZERO, T, etas4, name="Xi4")
    etas5 = tuple(
        -(rational(a) * T * u(a)
          + rational(m - a + 1) * (X * u(a - 1) - rational(m - a + 2) * u(a - 2)))
        for a in range(1, m + 1)
    )
    xi5 = VectorField(m, T ** 2, T * X, etas5, name="Xi5")
    return [xi1, xi2, xi3, xi4, xi5]


def commutator(a: VectorField, b: VectorField) -> VectorField:
    """Lie bracket [a, b], coefficientwise a(b_i) - b(a_i)."""
    if a.m != b.m:
        raise ValueError("commutator requires fields over the same variable set")
    return VectorField(
        a.m,
        a.apply_to(b.tau) - b.apply_to(a.tau),
        a.apply_to(b.xi) - b.apply_to(a.xi),
        tuple(a.apply_to(eb) - b.apply_to(ea) for ea, eb in zip(a.etas, b.etas)),
        name=f"[{a.name},{b.name}]",
    )


def _expand_in_basis(targets: list[VectorField],
                     basis: list[VectorField]) -> list[dict[int, Fraction]]:
    """Exact rational coordinates of each target in the basis, as
    {k: c} over the 1-based basis index k with c != 0, from one sparse
    elimination with one right-hand column per target, or raise."""
    n = len(basis)
    rows: list[dict[int, Fraction]] = []  # basis columns 0..n-1, then the targets'
    for comps in zip(*((f.tau, f.xi, *f.etas) for f in [*basis, *targets])):
        rows.extend(coefficient_rows(comps))

    # exact elimination on the (overdetermined) system; rows past the
    # rank hold no basis column and must hold no target column either
    aug, pivots = rref(rows, n)
    for col, target in enumerate(targets, start=n):
        if any(col in row for row in aug[len(pivots):]):
            raise NonClosureError(
                f"{target.name} does not lie in the span of the generators"
            )
    return [{k + 1: row[col] for k, row in zip(pivots, aug) if col in row}
            for col in range(n, n + len(targets))]


@dataclass(frozen=True)
class StructureConstants:
    """[Xi_i, Xi_j] = sum_k c_ij^k Xi_k over n generators (1-based),
    stored as brackets[(i, j)] = {k: c_ij^k} for i < j and nonzero c_ij^k
    only; antisymmetry holds by construction."""

    m: int
    n: int
    brackets: dict

    def _bracket(self, i: int, j: int) -> dict:
        """{k: c_ij^k} for any i, j: [Xi_j, Xi_i] = -[Xi_i, Xi_j]."""
        if i > j:
            return {k: -c for k, c in self.brackets.get((j, i), {}).items()}
        return self.brackets.get((i, j), {})

    def entry(self, i: int, j: int, k: int) -> Fraction:
        return self._bracket(i, j).get(k, Fraction(0))

    def jacobi_residual(self) -> Fraction:
        """Sum of absolute Jacobi defects over i < j < k; zero for a
        genuine bracket (triples with a repeated index vanish by
        antisymmetry)."""
        total = Fraction(0)
        for i, j, k in combinations(range(1, self.n + 1), 3):
            defect: dict[int, Fraction] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for l, c_ab in self._bracket(a, b).items():
                    for s, c_lc in self._bracket(l, c).items():
                        defect[s] = defect.get(s, 0) + c_ab * c_lc
            total += sum(abs(v) for v in defect.values())
        return total

    def table_text(self) -> str:
        """nxn commutator table with entries as basis combinations."""
        n = self.n
        cells = [[_combo_str(self._bracket(i, j)) for j in range(1, n + 1)]
                 for i in range(1, n + 1)]
        width = max(8, *(len(s) for row in cells for s in row))
        header = " " * 10 + "".join(f"{'Xi' + str(j + 1):>{width + 2}}" for j in range(n))
        lines = [header]
        for i in range(n):
            lines.append(
                f"{'[Xi' + str(i + 1) + ', .]':>10}"
                + "".join(f"{cells[i][j]:>{width + 2}}" for j in range(n))
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """Both orders [i,j] and [j,i] of every nonzero bracket."""
        out = {}
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                combo = self._bracket(i, j)
                if combo:
                    out[f"[{i},{j}]"] = {str(k): str(c) for k, c in sorted(combo.items())}
        return {"m": self.m, "brackets": out}


def _combo_str(combo: dict) -> str:
    parts = []
    for k, c in sorted(combo.items()):
        if c == 1:
            parts.append(f"Xi{k}")
        elif c == -1:
            parts.append(f"-Xi{k}")
        else:
            parts.append(f"{c}*Xi{k}")
    return "+".join(parts).replace("+-", "-") if parts else "0"


def structure_constants(m: int) -> StructureConstants:
    """Expand every bracket of the generators in their own basis; raises
    :class:`NonClosureError` if a bracket escapes or breaks the Jacobi identity."""
    basis = generators(m)
    pairs = list(combinations(range(1, len(basis) + 1), 2))
    coords = _expand_in_basis(
        [commutator(basis[i - 1], basis[j - 1]) for i, j in pairs], basis
    )
    brackets = {pair: combo for pair, combo in zip(pairs, coords) if combo}
    table = StructureConstants(m, len(basis), brackets)
    if table.jacobi_residual() != 0:
        raise NonClosureError(f"m={m}: bracket table is not a Lie algebra")
    return table
