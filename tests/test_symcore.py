"""Kernel invariants: canonical form, exact arithmetic, derivatives,
substitution, coefficient collection."""

from fractions import Fraction
import math
import random

import numpy as np
import pytest

from burgers_hierarchy import cli, prolong
from burgers_hierarchy.linalg import exact_divide, rational_nullvector
from burgers_hierarchy.symcore import (
    Expr,
    FuncApp,
    JetCoord,
    NonPolynomialError,
    ONE,
    OpaqueSymbol,
    SubstitutionMap,
    SymbolicError,
    T,
    T_ATOM,
    X,
    X_ATOM,
    ZERO,
    collect_coefficients,
    cosh,
    eval_expr,
    exp,
    jet,
    partial_derivative,
    powers_of,
    rational,
    sin,
    tanh,
    total_derivative,
)
from tests_support import reference_eval_expr

U = jet(1, 1)
UX = jet(1, 1, nx=1)
UT = jet(1, 1, nt=1)
UXX = jet(1, 1, nx=2)


def random_expr(rng, depth=2):
    atoms = [T, X, U, UX, jet(1, 2), jet(2, 1), OpaqueSymbol("f", (T_ATOM, X_ATOM)).expr()]
    e = ZERO
    for _ in range(rng.randint(1, 5)):
        term = rational(rng.randint(-4, 4), rng.randint(1, 4))
        for _ in range(rng.randint(0, 3)):
            term = term * rng.choice(atoms)
        e = e + term
    if depth > 0 and rng.random() < 0.3:
        e = e + exp(random_expr(rng, depth - 1))
    return e


class TestCanonicalForm:
    def test_like_terms_merge(self):
        assert U + U == 2 * U

    def test_rational_normalization(self):
        assert rational(2, 4) == rational(1, 2)

    def test_add_sub_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            e1, e2 = random_expr(rng), random_expr(rng)
            assert (e1 + e2) - e2 == e1

    def test_structural_equality_and_hash(self):
        a = (U + X) * (U - X)
        b = U * U - X * X
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_and_one(self):
        assert (U - U).is_zero()
        assert U ** 0 == ONE

    def test_power_expands(self):
        assert (U + 1) ** 2 == U * U + 2 * U + 1

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            U + 0.5
        with pytest.raises(TypeError):
            U * 1.5

    def test_no_floats_introduced(self):
        e = (3 * U - rational(1, 3) * X) ** 3
        assert all(isinstance(c, Fraction) for _, c in e.terms())

    def test_division_by_rational_only(self):
        assert U / 2 == rational(1, 2) * U
        with pytest.raises(NonPolynomialError):
            U / X


class TestDerivatives:
    def test_product_rule(self):
        assert total_derivative(U * UX, "x") == UX ** 2 + U * UXX

    def test_independent_variables(self):
        assert total_derivative(X, "t").is_zero()
        assert total_derivative(T, "x").is_zero()
        assert total_derivative(T, "t") == ONE

    def test_opaque_chain_rule(self):
        xi = OpaqueSymbol("xi", (T_ATOM, X_ATOM, JetCoord(1, 1)))
        d = total_derivative(xi.expr(), "x")
        assert d == xi.d(X_ATOM) + xi.d(JetCoord(1, 1)) * UX

    def test_total_derivatives_commute(self):
        rng = random.Random(11)
        for _ in range(30):
            e = random_expr(rng)
            dtx = total_derivative(total_derivative(e, "t"), "x")
            dxt = total_derivative(total_derivative(e, "x"), "t")
            assert dtx == dxt

    def test_elementary_functions(self):
        assert total_derivative(exp(2 * X), "x") == 2 * exp(2 * X)
        assert total_derivative(sin(X), "x") == Expr.from_atom(
            next(iter(cos_x().atoms()))
        )
        assert total_derivative(tanh(X), "x") == 1 - tanh(X) ** 2
        assert total_derivative(cosh(X), "t").is_zero()

    def test_partial_vs_total_on_jets(self):
        # partials treat jet coordinates as independent ring generators
        assert partial_derivative(U * UX, JetCoord(1, 1)) == UX
        assert partial_derivative(UX, JetCoord(1, 1)).is_zero()

    def test_linearity(self):
        rng = random.Random(13)
        for _ in range(20):
            e1, e2 = random_expr(rng), random_expr(rng)
            lhs = total_derivative(3 * e1 - rational(1, 2) * e2, "x")
            rhs = 3 * total_derivative(e1, "x") - rational(1, 2) * total_derivative(e2, "x")
            assert lhs == rhs


def cos_x():
    from burgers_hierarchy.symcore import cos

    return cos(X)


class TestSubstitution:
    def test_manifold_style_rule(self):
        rules = SubstitutionMap([(JetCoord(1, 1, nx=2), UT + U * UX)])
        assert rules.apply(UXX - U * UX) == UT

    def test_empty_rules_identity(self):
        e = U * UX + X
        assert SubstitutionMap([]).apply(e) == e

    def test_lhs_removed(self):
        rules = SubstitutionMap([(JetCoord(1, 1, nt=1), 2 * UX)])
        out = rules.apply(UT * UT + UT)
        assert JetCoord(1, 1, nt=1) not in out.atoms()
        assert out == 4 * UX ** 2 + 2 * UX

    def test_self_reference_rejected(self):
        with pytest.raises(ValueError):
            SubstitutionMap([(JetCoord(1, 1), U + 1)])

    def test_cycle_detected_at_construction(self):
        a, b = JetCoord(1, 1), JetCoord(1, 2)
        with pytest.raises(ValueError):
            SubstitutionMap([(a, jet(1, 2)), (b, jet(1, 1))])

    def test_substitutes_inside_function_arguments(self):
        rules = SubstitutionMap([(JetCoord(1, 1), X)])
        assert rules.apply(exp(U)) == exp(X)

    def test_differentiated_rule_consistency(self):
        # rewrite u_tx via the x-derivative of a rule for u_t, check
        # against independent expansion
        eta = OpaqueSymbol("eta", (T_ATOM, X_ATOM, JetCoord(1, 1)))
        xi = OpaqueSymbol("xi", (T_ATOM, X_ATOM, JetCoord(1, 1)))
        q_rhs = eta.expr() - xi.expr() * UX
        d_rhs = total_derivative(q_rhs, "x")
        direct = (
            eta.d(X_ATOM) + eta.d(JetCoord(1, 1)) * UX
            - (xi.d(X_ATOM) + xi.d(JetCoord(1, 1)) * UX) * UX
            - xi.expr() * UXX
        )
        assert d_rhs == direct
        rules = SubstitutionMap([(JetCoord(1, 1, 1, 1), d_rhs)])
        assert rules.apply(jet(1, 1, 1, 1)) == d_rhs
        assert JetCoord(1, 1, 1, 1) not in rules.apply(jet(1, 1, 1, 1)).atoms()


class TestCollect:
    def test_cubic_coefficient_from_generic_ansatz(self):
        # the top coefficient of the single-component determining
        # polynomial is the second u-derivative of xi
        from burgers_hierarchy.prolong import determining_polynomials, generic_ansatz

        field, syms = generic_ansatz(1)
        poly = determining_polynomials(field)[0]
        coeffs = collect_coefficients(poly, [UX])
        assert coeffs[UX ** 3] == syms["xi"].d(JetCoord(1, 1), JetCoord(1, 1))

    def test_zero_gives_empty_mapping(self):
        assert collect_coefficients(ZERO, [UX]) == {}

    def test_bilinear_split(self):
        a = OpaqueSymbol("a", (T_ATOM, X_ATOM)).expr()
        b = OpaqueSymbol("b", (T_ATOM, X_ATOM)).expr()
        vx = jet(1, 2, nx=1)
        coeffs = collect_coefficients(a * UX * vx + b, [UX, vx])
        assert coeffs == {UX * vx: a, ONE: b}

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            e = random_expr(rng)
            try:
                coeffs = collect_coefficients(e, [UX, U])
            except NonPolynomialError:
                continue
            total = ZERO
            for mono, c in coeffs.items():
                total = total + mono * c
            assert total == e

    def test_powers_of_round_trip(self):
        assert powers_of(3 * U ** 2 * X + U * T + 5, JetCoord(1, 1)) == {2: 3 * X, 1: T, 0: rational(5)}
        assert powers_of(ZERO, JetCoord(1, 1)) == {}
        rng = random.Random(6)
        for _ in range(30):
            e = random_expr(rng)
            parts = powers_of(e, JetCoord(1, 1))
            assert all(U.atoms().isdisjoint(c.atoms()) for c in parts.values())
            total = ZERO
            for k, c in parts.items():
                total = total + c * U ** k
            assert total == e

    def test_non_polynomial_dependence_rejected(self):
        with pytest.raises(NonPolynomialError):
            collect_coefficients(exp(U), [U])
        xi = OpaqueSymbol("xi", (T_ATOM, X_ATOM, JetCoord(1, 1)))
        with pytest.raises(NonPolynomialError):
            collect_coefficients(xi.expr(), [U])


class TestTiersAndEval:
    def test_tiers_distinguish_atoms(self):
        assert jet(1, 1) != jet(2, 1)

    def test_eval(self):
        e = 2 * T + X ** 2 + exp(X)
        assert eval_expr(e, {T_ATOM: 0.5, X_ATOM: 2.0}) == pytest.approx(1 + 4 + math.exp(2))

    def test_eval_matches_per_occurrence_oracle(self):
        u, ux = JetCoord(1, 1), JetCoord(1, 1, nx=1)
        inner = FuncApp("exp", T * U + X)
        outer = FuncApp("sin", X - 2 * Expr.from_atom(inner))  # a function of a function
        e = (3 * Expr.from_atom(outer) ** 2 * U - rational(1, 3) * Expr.from_atom(inner) * U ** 3
             + Expr.from_atom(outer) * T + UX)
        envs = [
            {T_ATOM: 0.5, X_ATOM: -0.0, u: 2, ux: np.float64(-1.5)},
            {T_ATOM: np.float64(0.25), X_ATOM: 1.0, u: -0.0, ux: math.nan},
            {T_ATOM: 0.5, X_ATOM: 2.0, u: -math.inf, ux: 0.0},
        ]
        for env in envs:
            for given in ({}, {inner: 7}, {outer: -0.0}):
                full = {**env, **given}
                assert eval_expr(e, full).hex() == reference_eval_expr(e, full).hex()

    def test_eval_missing_atom(self):
        # the first atom in term order without a value is named
        e = T * U + exp(X) * UX
        known = {T_ATOM: 1.0, JetCoord(1, 1): 2.0, JetCoord(1, 1, nx=1): 3.0}
        for env, name in (({T_ATOM: 1.0}, "u[1,1]"), (known, "x")):
            for fn in (eval_expr, reference_eval_expr):
                with pytest.raises(SymbolicError) as err:
                    fn(e, env)
                assert str(err.value) == f"no numeric value for atom {name}"

    def test_render_deterministic(self):
        e = (U + X) ** 2 - exp(T)
        assert str(e) == str((U + X) ** 2 - exp(T))


class TestPackedKernel:
    """Coefficients are int numerators over one denominator in lowest
    terms, and leave the kernel as Fractions; every exponent stays inside
    its bit field of the packed monomial."""

    def test_int_and_fraction_coefficients_agree(self):
        for a, b in ((rational(4, 2) * U, 2 * U), (Fraction(6, 3) * U, U + U),
                     (rational(1, 2) * U * 2, U), (U / Fraction(1, 2), 2 * U)):
            assert a == b
            assert hash(a) == hash(b)
            assert a.render() == b.render()
        assert rational(4, 2) == 2 and rational(4, 2).as_rational() == Fraction(2)
        assert all(type(c) is Fraction for _, c in (2 * U + rational(1, 3)).terms())

    def test_integral_inputs_give_fractions(self):
        assert exact_divide(3 * X * T, 2 * T) == rational(3, 2) * X
        assert all(type(c) is Fraction for _, c in exact_divide(3 * X * T, 2 * T).terms())
        ns = rational_nullvector([3 * X, 2 * X])
        assert ns == [Fraction(-2, 3), Fraction(1)]
        assert all(type(c) is Fraction for c in ns)

    def test_a_scaled_atom_is_not_an_atom(self):
        # u/2 holds the single numerator 1, over the denominator 2
        with pytest.raises(ValueError, match="not a single atom"):
            SubstitutionMap([(U / 2, X)])
        with pytest.raises(ValueError, match="not a single atom"):
            collect_coefficients(U * UX, [U / 2])

    def test_function_arguments_order_by_rational_value(self):
        # exp(3x/4) sorts before exp(x) since 3/4 < 1, whatever the numerators
        assert (exp(X) + exp(3 * X / 4)).render() == "exp(3/4*x) + exp(x)"
        assert (exp(X / 2) + exp(X / 3)).render() == "exp(1/3*x) + exp(1/2*x)"

    def test_exponent_limits(self):
        assert (U ** 127).term_count() == 1
        assert partial_derivative(U ** 127, JetCoord(1, 1)) == 127 * U ** 126
        assert total_derivative(T ** 1000 * X ** 70000, "x") == 70000 * T ** 1000 * X ** 69999
        for build in (lambda: U ** 128, lambda: U ** 100 * U ** 28,
                      lambda: exp(X) ** 64 * exp(X) ** 64):
            with pytest.raises(OverflowError, match="exceeds 127"):
                build()

    def test_overflow_is_exit_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(prolong, "verify_theorem", lambda m: U ** 200)
        assert cli.main(["verify", "theorem", "--m", "1", "--out-dir", str(tmp_path)]) == 3
        assert "u[1,1]" in capsys.readouterr().err
