"""Fraction-free elimination cross-checked against dense rational
elimination and the defining identity M*w = b*det."""

from fractions import Fraction
import random

import pytest

from burgers_hierarchy.linalg import (
    InexactDivisionError,
    bareiss_determinant,
    cramer_solve,
    exact_divide,
    rational_nullvector,
    rref,
)
from burgers_hierarchy.symcore import Expr, ONE, T, X, ZERO, jet, rational
from tests_support import reordered


def fraction_det(rows):
    """Plain fraction Gaussian elimination (the oracle)."""
    n = len(rows)
    a = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    return det


class TestExactDivide:
    def test_simple(self):
        p = (X + T) * (X - T)
        assert exact_divide(p, X + T) == X - T

    def test_multivariate(self):
        u = jet(1, 1)
        q = 3 * u * X + T ** 2
        d = u ** 2 - X
        assert exact_divide(q * d, d) == q

    def test_inexact_raises(self):
        with pytest.raises(InexactDivisionError):
            exact_divide(X ** 2 + 1, X + 1)

    def test_inexact_remainder_stays_within_degrees(self):
        # q^70 / (q - p^2) would grow p^140 in the remainder when q owns the
        # higher field; one of the two pairs does, whatever the interning order
        a, b = jet(5, 1), jet(5, 2)
        for p, q in ((a, b), (b, a)):
            with pytest.raises(InexactDivisionError):
                exact_divide(q ** 70, q - p ** 2)

    def test_rational_divisor(self):
        assert exact_divide(3 * X, rational(3)) == X


class TestBareiss:
    def test_matches_fraction_oracle_random(self):
        rng = random.Random(99)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                         for _ in range(n)] for _ in range(n)]
                mat = [[Expr.from_rational(v) for v in row] for row in rows]
                got = bareiss_determinant(mat)
                assert got == Expr.from_rational(fraction_det(rows))

    def test_symbolic_2x2(self):
        u = jet(1, 1)
        mat = [[X, ONE], [u, T]]
        assert bareiss_determinant(mat) == X * T - u

    def test_needs_pivot_swap(self):
        mat = [[ZERO, ONE], [ONE, X]]
        assert bareiss_determinant(mat) == -ONE

    def test_singular(self):
        mat = [[X, X], [X, X]]
        assert bareiss_determinant(mat).is_zero()

    def test_symbolic_3x3_vandermonde(self):
        a, b, c = T, X, jet(1, 1)
        mat = [[ONE, a, a ** 2], [ONE, b, b ** 2], [ONE, c, c ** 2]]
        expected = (b - a) * (c - a) * (c - b)
        assert bareiss_determinant(mat) == expected


class TestCramer:
    def test_defining_identity(self):
        rng = random.Random(7)
        u = jet(1, 1)
        pool = [ONE, T, X, u, X * T, u + X]
        for _ in range(10):
            mat = [[rng.choice(pool) for _ in range(3)] for _ in range(3)]
            rhs = [rng.choice(pool) for _ in range(3)]
            try:
                det, nums = cramer_solve(mat, rhs)
            except ZeroDivisionError:
                continue
            for i in range(3):
                acc = ZERO
                for j in range(3):
                    acc = acc + mat[i][j] * nums[j]
                assert acc == rhs[i] * det


class TestNullvector:
    def test_dependent(self):
        v1, v2, v3 = X, 2 * X, T
        ns = rational_nullvector([v1, v2, v3])
        assert ns is not None
        combo = ns[0] * v1 + ns[1] * v2 + ns[2] * v3
        assert combo.is_zero()

    def test_independent(self):
        assert rational_nullvector([X, T, ONE]) is None

    def test_witness_does_not_depend_on_term_order(self):
        # the coefficient rows follow term insertion order; the reduced row echelon
        # form, and with it the witness, does not
        v1, v2 = (X + T) ** 3 - 2, X ** 2 * T + rational(1, 3) * X
        vectors = [v1, v2, 3 * v1 - v2 / 2 + X, X, T ** 2]
        twins = [reordered(v) for v in vectors]
        assert [list(w._terms) for w in twins] != [list(v._terms) for v in vectors]
        witness = rational_nullvector(vectors)
        assert witness == [3, Fraction(-1, 2), -1, 1, 0]
        assert rational_nullvector(twins) == witness


class TestRref:
    def test_pivots_only_in_leading_columns(self):
        # x + y = 3, 2x + 2y = 6, x - y = 1: rank 2, consistent
        rows = [{c: Fraction(v) for c, v in enumerate(r) if v}
                for r in ([1, 1, 3], [2, 2, 6], [1, -1, 1])]
        aug, pivots = rref(rows, 2)
        assert pivots == [0, 1]
        assert aug[0] == {0: 1, 2: 2} and aug[1] == {1: 1, 2: 1}
        assert aug[2] == {}
        assert rows[0] == {0: 1, 1: 1, 2: 3}   # input left untouched

    def test_skips_zero_column(self):
        rows = [{1: Fraction(2), 2: Fraction(4)}]
        aug, pivots = rref(rows, 2)
        assert pivots == [1] and aug == [{1: 1, 2: 2}]
        assert rref([], 2) == ([], [])
