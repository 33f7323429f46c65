"""Exact linear algebra over the polynomial expression ring.

Fraction-free (Bareiss) elimination keeps every intermediate entry a
polynomial; the one division it performs per step is exact by
construction and is carried out by multivariate long division under a
graded lexicographic term order.
"""

from __future__ import annotations

from fractions import Fraction

from .symcore import Expr, ONE, ZERO


class InexactDivisionError(ArithmeticError):
    pass


def exact_divide(p: Expr, d: Expr) -> Expr:
    """Return q with p == q*d, raising if no polynomial quotient exists."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if d.is_rational():
        return p / d.as_rational()
    if p.is_zero():
        return ZERO

    atoms = sorted({a for mon in list(p._terms) + list(d._terms) for a, _ in mon},
                   key=lambda a: a.sort_key())
    index = {a: i for i, a in enumerate(atoms)}

    def vec(mon):
        v = [0] * len(atoms)
        for a, k in mon:
            v[index[a]] = k
        return tuple(v)

    def order_key(mon):
        v = vec(mon)
        return (sum(v), v)

    def leading(terms):
        return max(terms, key=order_key)

    d_lead = leading(d._terms)
    d_lv = vec(d_lead)
    d_lc = d._terms[d_lead]

    quotient: dict = {}
    rem = dict(p._terms)
    while rem:
        p_lead = leading(rem)
        p_lv = vec(p_lead)
        if any(pe < de for pe, de in zip(p_lv, d_lv)):
            raise InexactDivisionError("leading term not divisible")
        q_mon = tuple(
            (a, pe - de)
            for a, pe, de in zip(atoms, p_lv, d_lv)
            if pe - de > 0
        )
        q_coeff = rem[p_lead] / d_lc
        quotient[q_mon] = quotient.get(q_mon, Fraction(0)) + q_coeff
        q_term = Expr({q_mon: q_coeff})
        for mon, c in (q_term * d)._terms.items():
            s = rem.get(mon, Fraction(0)) - c
            if s:
                rem[mon] = s
            else:
                rem.pop(mon, None)
    return Expr._make(quotient)


def bareiss_determinant(matrix: list[list[Expr]]) -> Expr:
    """Determinant by fraction-free Gaussian elimination with row pivoting."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    a = [list(row) for row in matrix]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not a[r][k].is_zero()), None)
            if pivot is None:
                return ZERO
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = exact_divide(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
            a[i][k] = ZERO
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else -det


def cramer_solve(matrix: list[list[Expr]], rhs: list[Expr]) -> tuple[Expr, list[Expr]]:
    """Solve matrix * w = rhs exactly: returns (det, numerators) with
    w_j = numerators[j] / det.  det must not be identically zero."""
    det = bareiss_determinant(matrix)
    if det.is_zero():
        raise ZeroDivisionError("matrix is singular over the expression ring")
    numerators = []
    n = len(matrix)
    for j in range(n):
        replaced = [
            [rhs[i] if c == j else matrix[i][c] for c in range(n)]
            for i in range(n)
        ]
        numerators.append(bareiss_determinant(replaced))
    return det, numerators


def rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Exact Gauss-Jordan reduction of ``rows``, pivoting in the first
    ``ncols`` columns only (later columns ride along, e.g. a right-hand
    side).  Returns the reduced rows and the pivot columns; pivot r sits
    in row r, and rows from len(pivots) on are zero in the first ncols."""
    aug = [row[:] for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(aug)) if aug[r][col] != 0), None)
        if piv is None:
            continue
        aug[r0], aug[piv] = aug[piv], aug[r0]
        pv = aug[r0][col]
        aug[r0] = [v / pv for v in aug[r0]]
        for r in range(len(aug)):
            if r != r0 and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[r0])]
        pivots.append(col)
    return aug, pivots


def rational_nullvector(vectors: list[dict]) -> list[Fraction] | None:
    """A nonzero rational combination summing to zero, if one exists.

    ``vectors`` are sparse monomial->Fraction mappings (Expr term dicts).
    """
    n = len(vectors)
    monomials = sorted({m for v in vectors for m in v},
                       key=lambda mon: tuple((a.sort_key(), k) for a, k in mon))
    rows = [[v.get(mon, Fraction(0)) for v in vectors] for mon in monomials]
    aug, pivots = rref(rows, n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    sol = [Fraction(0)] * n
    sol[c0] = Fraction(1)
    for r, col in enumerate(pivots):
        sol[col] = -aug[r][c0]
    return sol
