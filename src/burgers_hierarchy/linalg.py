"""Exact linear algebra over the polynomial expression ring.

Fraction-free (Bareiss) elimination keeps every intermediate entry a
polynomial; the one division it performs per step is exact by
construction and is carried out by the kernel's multivariate long
division (:func:`symcore.exact_divide`, re-exported here).  Rational
Gauss-Jordan reduction (:func:`rref`) works on sparse rows and never
stores or subtracts a zero entry.
"""

from __future__ import annotations

from fractions import Fraction

from .symcore import ONE, ZERO, Expr, InexactDivisionError, coefficient_rows, exact_divide


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
    w_j = numerators[j] / det.  Raises ZeroDivisionError, before any
    numerator is built, when det is identically zero."""
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


def rref(rows: list[dict[int, Fraction]],
         ncols: int) -> tuple[list[dict[int, Fraction]], list[int]]:
    """Exact Gauss-Jordan reduction of sparse ``rows`` ({column: nonzero
    entry}, as :func:`coefficient_rows` gives), pivoting in the first
    ``ncols`` columns only (later columns ride along, e.g. a right-hand
    side), without modifying ``rows``.  Returns the reduced rows, again
    sparse, and the pivot columns; pivot r sits in row r, and rows from
    len(pivots) on hold no column below ncols."""
    aug = [dict(row) for row in rows]
    pivots: list[int] = []
    for col in range(ncols):
        r0 = len(pivots)
        piv = next((r for r in range(r0, len(aug)) if col in aug[r]), None)
        if piv is None:
            continue
        aug[r0], aug[piv] = aug[piv], aug[r0]
        pv = aug[r0][col]
        prow = aug[r0] = {c: v / pv for c, v in aug[r0].items()}
        for row in aug:
            f = row.get(col)
            if f is not None and row is not prow:
                for c, w in prow.items():
                    row[c] = row.get(c, 0) - f * w
                    if not row[c]:
                        del row[c]
        pivots.append(col)
    return aug, pivots


def rational_nullvector(vectors: list[Expr]) -> list[Fraction] | None:
    """A nonzero rational combination of ``vectors`` summing to zero, if
    one exists; the combination is made of Fractions."""
    n = len(vectors)
    aug, pivots = rref(coefficient_rows(vectors), n)
    free = [c for c in range(n) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    sol = [Fraction(0)] * n
    sol[c0] = Fraction(1)
    for row, col in zip(aug, pivots):
        sol[col] = -row.get(c0, Fraction(0))
    return sol
