"""Generators, commutators, structure constants, cross-m comparison."""

import dataclasses
from fractions import Fraction
from itertools import combinations, product

import pytest

from burgers_hierarchy import liealg
from burgers_hierarchy.hierarchy import VectorField, tier_of
from burgers_hierarchy.liealg import (
    NonClosureError,
    _expand_in_basis,
    commutator,
    generators,
    structure_constants,
)
from burgers_hierarchy.prolong import verify_classical
from burgers_hierarchy.symcore import ONE, T, X, ZERO, jet
from tests_support import reordered


def reference_generator_etas(m: int) -> tuple:
    """The Xi4 and Xi5 etas with the first components written out
    separately: a = 1 for both, a = 2 for Xi5 when m > 1."""
    k = tier_of(m)

    def u(a):
        return jet(k, a)

    etas4 = [m * ONE] + [(a - m - 1) * u(a - 1) for a in range(2, m + 1)]
    etas5 = [m * X - T * u(1)]
    if m > 1:
        etas5.append(-((m - 1) * (X * u(1) + m) + 2 * T * u(2)))
    for a in range(3, m + 1):
        etas5.append(-(a * T * u(a) + (m - a + 1) * (X * u(a - 1) - (m - a + 2) * u(a - 2))))
    return tuple(etas4), tuple(etas5)


class TestGenerators:
    @pytest.mark.parametrize("m", range(1, 33))
    def test_matches_case_by_case_reference(self, m):
        k = tier_of(m)
        xi1, xi2, xi3, xi4, xi5 = generators(m)
        zeros = (ZERO,) * m
        assert (xi1.tau, xi1.xi, xi1.etas) == (ONE, ZERO, zeros)
        assert (xi2.tau, xi2.xi, xi2.etas) == (ZERO, ONE, zeros)
        assert (xi3.tau, xi3.xi) == (2 * T, X)
        assert xi3.etas == tuple(-a * jet(k, a) for a in range(1, m + 1))
        assert (xi4.tau, xi4.xi, xi5.tau, xi5.xi) == (ZERO, T, T ** 2, T * X)
        assert (xi4.etas, xi5.etas) == reference_generator_etas(m)

    def test_single_component_closed_forms(self):
        xi1, xi2, xi3, xi4, xi5 = generators(1)
        u = jet(1, 1)
        assert (xi1.tau, xi1.xi, xi1.etas) == (ONE, ZERO, (ZERO,))
        assert (xi2.tau, xi2.xi, xi2.etas) == (ZERO, ONE, (ZERO,))
        assert (xi3.tau, xi3.xi, xi3.etas) == (2 * T, X, (-u,))
        assert (xi4.tau, xi4.xi, xi4.etas) == (ZERO, T, (ONE,))
        assert (xi5.tau, xi5.xi, xi5.etas) == (T ** 2, T * X, (X - T * u,))

    def test_pair_closed_forms(self):
        _, _, xi3, xi4, xi5 = generators(2)
        u1, u2 = jet(1, 1), jet(1, 2)
        assert xi3.etas == (-u1, -2 * u2)
        assert xi4.xi == T and xi4.etas == (2 * ONE, -u1)
        assert xi5.etas == (2 * X - T * u1, -(X * u1 + 2 * T * u2 + 2))

    def test_triple_closed_forms(self):
        _, _, xi3, xi4, xi5 = generators(3)
        u1, u2, u3 = jet(2, 1), jet(2, 2), jet(2, 3)
        assert xi3.etas == (-u1, -2 * u2, -3 * u3)
        assert xi4.etas == (3 * ONE, -2 * u1, -u2)
        assert xi5.etas[0] == 3 * X - T * u1
        assert xi5.etas[1] == -(2 * (X * u1 + 3) + 2 * T * u2)
        assert xi5.etas[2] == -(3 * T * u3 + (X * u2 - 2 * u1))

    def test_pair_specializes_general_formulas(self):
        # the m=2 closed forms agree with the m>=3 sum formulas
        # evaluated at m=2 (checked, not assumed)
        _, _, xi3, xi4, xi5 = generators(2)
        u1, u2 = jet(1, 1), jet(1, 2)
        assert xi4.etas == (2 * ONE, (2 - 2 - 1) * u1)
        assert xi5.etas[1] == -((2 - 1) * (X * u1 + 2) + 2 * T * u2)

    @pytest.mark.parametrize("m", [0, -1, 1.0])
    def test_bad_m(self, m):
        with pytest.raises(ValueError, match=f"^m must be a positive integer, got {m!r}$"):
            generators(m)


class TestCommutator:
    def test_translations_commute(self):
        xs = generators(1)
        zero = commutator(xs[0], xs[1])
        assert zero.tau.is_zero() and zero.xi.is_zero()
        assert all(e.is_zero() for e in zero.etas)

    def test_projective_bracket(self):
        xs = generators(1)
        assert_fields_equal(commutator(xs[0], xs[4]), xs[2])  # [Xi1, Xi5] = Xi3

    def test_scaling_galilean_bracket(self):
        xs = generators(1)
        assert_fields_equal(commutator(xs[2], xs[3]), xs[3])  # [Xi3, Xi4] = Xi4

    def test_variable_set_mismatch(self):
        with pytest.raises(ValueError):
            commutator(generators(1)[0], generators(2)[0])


def assert_fields_equal(a: VectorField, b: VectorField):
    assert a.tau == b.tau and a.xi == b.xi and a.etas == b.etas


class TestStructureConstants:
    def test_known_entries(self):
        table = structure_constants(1)
        assert table.entry(1, 3, 1) == 2
        assert table.entry(2, 3, 2) == 1
        assert table.entry(1, 5, 3) == 1
        assert table.entry(3, 5, 5) == 2

    def test_antisymmetry_and_jacobi(self):
        table = structure_constants(1)
        assert all(table.entry(i, j, k) == -table.entry(j, i, k)
                   for i, j, k in product(range(1, 6), repeat=3))
        assert table.jacobi_residual() == 0

    @pytest.mark.parametrize("m", range(1, 9))
    def test_closure_all_m(self, m):
        table = structure_constants(m)
        assert table.jacobi_residual() == 0
        assert all(isinstance(c, Fraction)
                   for combo in table.brackets.values() for c in combo.values())

    @pytest.mark.parametrize("m", range(2, 9))
    def test_same_table_as_single_component(self, m):
        assert structure_constants(m).brackets == structure_constants(1).brackets

    def test_non_closure_detected(self):
        # [d/dx, x^2 d/du] = 2x d/du escapes the span of the pair
        basis = [
            VectorField(1, ZERO, ONE, (ZERO,), name="a"),
            VectorField(1, ZERO, ZERO, (X ** 2,), name="b"),
        ]
        with pytest.raises(NonClosureError):
            _expand_in_basis([commutator(basis[0], basis[1])], basis)

    def test_table_rendering(self):
        table = structure_constants(2)
        text = table.table_text()
        assert "2*Xi1" in text
        doc = table.to_json_dict()
        assert doc["brackets"]["[1,3]"] == {"1": "2"}

    def test_json_lists_both_orders(self):
        brackets = structure_constants(1).to_json_dict()["brackets"]
        assert len(brackets) == 14
        assert {f"[{key[3]},{key[1]}]" for key in brackets} == set(brackets)
        assert brackets["[3,1]"] == {"1": "-2"}

    def test_jacobi_detects_a_wrong_coefficient(self):
        # [Xi3, Xi4] = Xi4 becomes 2*Xi4: still antisymmetric, no longer a Lie bracket
        table = structure_constants(1)
        assert table.brackets[(3, 4)] == {4: 1}
        broken = dataclasses.replace(table, brackets={**table.brackets, (3, 4): {4: Fraction(2)}})
        assert broken.jacobi_residual() != 0
        assert 6 * broken.jacobi_residual() == dense_jacobi_residual(broken)

    def test_table_breaking_jacobi_raises(self, monkeypatch):
        monkeypatch.setattr(liealg.StructureConstants, "jacobi_residual", lambda self: Fraction(1))
        with pytest.raises(NonClosureError, match=r"^m=2: bracket table is not a Lie algebra$"):
            structure_constants(2)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_sparse_jacobi_matches_dense_sum(self, m):
        table = structure_constants(m)
        assert table.jacobi_residual() == dense_jacobi_residual(table) == 0

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_brackets_do_not_depend_on_term_order(self, m):
        # the coefficient rows follow term insertion order; the reduced row echelon
        # form, and with it every bracket, does not
        def twin(f):
            return VectorField(f.m, reordered(f.tau), reordered(f.xi),
                               tuple(map(reordered, f.etas)), name=f.name)

        basis = generators(m)
        targets = [commutator(a, b) for a, b in combinations(basis, 2)]
        expected = _expand_in_basis(targets, basis)
        assert _expand_in_basis([twin(f) for f in targets], [twin(f) for f in basis]) == expected
        assert {pair: combo for pair, combo in zip(combinations(range(1, 6), 2), expected)
                if combo} == structure_constants(m).brackets

    @pytest.mark.parametrize("m", [1, 4])
    def test_one_elimination_per_table(self, m, monkeypatch):
        calls = []
        rref = liealg.rref

        def counting_rref(*args):
            calls.append(args)
            return rref(*args)

        monkeypatch.setattr(liealg, "rref", counting_rref)
        structure_constants(m)
        assert len(calls) == 1


def dense_jacobi_residual(table) -> Fraction:
    """The Jacobi defect summed over all ordered triples and all n^5
    products of entries, as an independent reference."""
    n = table.n
    idx = range(1, n + 1)
    c = {(i, j, k): table.entry(i, j, k) for i, j, k in product(idx, repeat=3)}
    total = Fraction(0)
    for i, j, k, s in product(idx, repeat=4):
        total += abs(sum(c[i, j, l] * c[l, k, s] + c[j, k, l] * c[l, i, s]
                         + c[k, i, l] * c[l, j, s] for l in idx))
    return total


class TestClassicalInvariance:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_every_generator_is_a_symmetry(self, m):
        assert list(verify_classical(m)["generators"].values()) == ["ok"] * 5
