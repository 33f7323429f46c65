"""Prolongation formulas, manifold restriction, determining
polynomials (checked term-by-term against longhand transcriptions of
the expected cubics for one and two components), theorem verification, kappa constraints."""

import collections
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import burgers_hierarchy
from burgers_hierarchy import cli, fdsolve, hierarchy, hopfcole, liealg, linalg, prolong, symcore
from burgers_hierarchy.hierarchy import VectorField, build_delta, build_symmetry_field
from burgers_hierarchy.hopfcole import heat_polynomial, solve_exact
from burgers_hierarchy.liealg import generators
from burgers_hierarchy.prolong import (
    ManifoldRules,
    VerificationError,
    determining_polynomials,
    generic_ansatz,
    invariance_residuals,
    manifold_rules,
    prolong2,
    verify_classical,
    verify_kappa_constraint,
    verify_theorem,
)
from burgers_hierarchy.symcore import (
    JetCoord,
    ONE,
    T,
    T_ATOM,
    X,
    X_ATOM,
    ZERO,
    collect_coefficients,
    exp,
    jet,
    sin,
)
from tests_support import (kappa_coefficients, prolong2_characteristic, reference_apply,
                           reference_prolonged_apply, reordered, sabotage_symmetry_field)

U = jet(1, 1)
UX = jet(1, 1, nx=1)
UXX = jet(1, 1, nx=2)
ROOT = Path(__file__).resolve().parent.parent
PACKAGE_MODULES = (burgers_hierarchy, symcore, hierarchy, prolong, liealg, linalg, hopfcole, fdsolve,
                   cli)


class TestProlongationFormulas:
    def test_time_translation_trivial(self):
        field = VectorField(1, ONE, ZERO, (ZERO,), name="d/dt")
        pf = prolong2(field)
        for coeffs in (pf.eta_t, pf.eta_x, pf.eta_xx):
            assert all(c.is_zero() for c in coeffs)

    def test_galilean_single_component(self):
        # t d/dx + d/du: first-order t coefficient is -u_x, x coefficient 0
        field = VectorField(1, ZERO, T, (ONE,), name="galilean")
        pf = prolong2(field)
        assert pf.eta_t[0] == -UX
        assert pf.eta_x[0].is_zero()
        assert pf.eta_xx[0].is_zero()

    def test_scaling_single_component(self):
        # 2t d/dt + x d/dx - u d/du
        field = VectorField(1, 2 * T, X, (-U,), name="scaling")
        pf = prolong2(field)
        assert pf.eta_x[0] == -2 * UX
        assert pf.eta_xx[0] == -3 * UXX

    # the direct recursion against the characteristic form on every
    # reference field with m components: first the ansatze with opaque
    # coefficients, then the fields with explicit ones (the generators,
    # the conditional symmetry field, the elementary field)
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_two_code_paths_agree_generic(self, m):
        fields = [f for f in reference_cases() if f.m == m and f.name in OPAQUE_ANSATZE]
        assert fields
        for field in fields:
            a, b = prolong2(field), prolong2_characteristic(field)
            assert (a.eta_t, a.eta_x, a.eta_xx) == (b.eta_t, b.eta_x, b.eta_xx), field.name

    @pytest.mark.parametrize("m", range(1, 9))
    def test_two_code_paths_agree_classical(self, m):
        fields = [f for f in reference_cases() if f.m == m and f.name not in OPAQUE_ANSATZE]
        assert fields
        for field in fields:
            a, b = prolong2(field), prolong2_characteristic(field)
            assert (a.eta_t, a.eta_x, a.eta_xx) == (b.eta_t, b.eta_x, b.eta_xx), field.name

    def test_prolongation_linearity(self):
        # rational combinations of tau = 0 fields prolong linearly
        f1 = VectorField(1, ZERO, T, (ONE,))
        f2 = VectorField(1, ZERO, X, (U,))
        a, b = Fraction(3), Fraction(-1, 2)
        combo = VectorField(1, ZERO, a * f1.xi + b * f2.xi,
                            (a * f1.etas[0] + b * f2.etas[0],))
        pc, p1, p2 = prolong2(combo), prolong2(f1), prolong2(f2)
        for attr in ("eta_t", "eta_x", "eta_xx"):
            got = getattr(pc, attr)[0]
            expected = a * getattr(p1, attr)[0] + b * getattr(p2, attr)[0]
            assert got == expected

    @pytest.mark.parametrize("coord", [jet(1, 1, nx=3), jet(1, 1, nt=2)], ids=["u_xxx", "u_tt"])
    def test_apply_to_rejects_unprolonged_coordinates(self, coord):
        # only u, u_t, u_x and u_xx carry a prolonged coefficient; another
        # derivative must not be dropped silently
        pf = prolong2(VectorField(1, ONE, X, (U,)))
        with pytest.raises(ValueError):
            pf.apply_to(U * coord + UXX)


def elementary_field():
    """m = 2 field whose coefficients hold exp and sin of jet coordinates."""
    u1, u2 = jet(1, 1), jet(1, 2)
    return VectorField(2, ONE + T * u1, exp(u1) * X, (sin(u2 * X) + u1 ** 2, exp(u1 + T) * u2),
                       name="elementary")


OPAQUE_ANSATZE = ("generic", "kappa-ansatz")


def reference_cases():
    for m in range(1, 9):
        yield build_symmetry_field(m)
        yield from generators(m)
    for m in range(1, 4):
        yield generic_ansatz(m)[0]
    for m in range(1, 5):
        yield prolong._kappa_ansatz(m)[0]
    yield elementary_field()


class TestActionAgainstSumOfPartials:
    """``VectorField.apply_to`` and ``ProlongedField.apply_to`` are one
    derivation each; they must equal the sum of partial derivatives,
    one per coordinate."""

    @pytest.mark.parametrize("field", list(reference_cases()),
                             ids=lambda f: f"{f.name}-m{f.m}")
    def test_on_residuals(self, field):
        pf = prolong2(field)
        for res in build_delta(field.m).residuals:
            assert field.apply_to(res) == reference_apply(field, res)
            assert pf.apply_to(res) == reference_prolonged_apply(pf, res)

    def test_through_function_arguments(self):
        # the field's own coefficients hold exp and sin of jet coordinates,
        # so the action chains through function applications
        field = elementary_field()
        pf = prolong2(field)
        for e in (field.tau, field.xi, *field.etas, exp(jet(1, 1, nx=1)) * sin(jet(1, 2, nt=1))):
            assert field.apply_to(e) == reference_apply(field, e)
            assert pf.apply_to(e) == reference_prolonged_apply(pf, e)


class TestManifoldRules:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_two_rules_per_component(self, m):
        field, _ = generic_ansatz(m)
        k = field.tier
        assert set(manifold_rules(field).rules) == {
            JetCoord(k, a, nt, nx) for a in range(1, m + 1) for nt, nx in [(1, 0), (0, 2)]
        }

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_idempotent(self, m):
        field, _ = generic_ansatz(m)
        rules = manifold_rules(field)
        k = field.tier
        probe = jet(k, 1, nt=1) * jet(k, m, nx=2) + jet(k, m, nt=1) + jet(k, 1, nx=2)
        once = rules.apply(probe)
        assert rules.apply(once) == once

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_system_residuals_vanish_on_manifold(self, m):
        field, _ = generic_ansatz(m)
        rules = manifold_rules(field)
        for r in build_delta(m).residuals:
            assert rules.apply(r).is_zero()

    @pytest.mark.parametrize("m", [1, 2])
    def test_only_low_order_coordinates_survive(self, m):
        field, _ = generic_ansatz(m)
        rules = manifold_rules(field)
        k = field.tier
        probe = jet(k, 1, nt=1) * jet(k, m, nx=2) + jet(k, m, nt=1) ** 2 + jet(k, 1, nx=2)
        out = rules.apply(probe)
        for atom in out.atoms():
            if isinstance(atom, JetCoord) and atom.tier == k:
                assert atom.nt == 0 and atom.nx <= 1

    def test_requires_unit_tau(self):
        field = VectorField(1, 2 * T, X, (-U,))
        with pytest.raises(ValueError):
            manifold_rules(field)


def expected_cubic_single(xi, eta, u, ux):
    """The expected third-degree polynomial for one component, longhand."""
    du = JetCoord(1, 1)
    return (
        xi.d(du, du) * ux ** 3
        + (2 * xi.d(X_ATOM, du) - eta.d(du, du) + 2 * xi.d(du) * u
           - 2 * xi.expr() * xi.d(du)) * ux ** 2
        + (xi.d(X_ATOM, X_ATOM) - 2 * eta.d(X_ATOM, du) - xi.d(T_ATOM)
           + xi.d(X_ATOM) * u - 2 * xi.expr() * xi.d(X_ATOM)
           + 2 * xi.d(du) * eta.expr() + eta.expr()) * ux
        + (-eta.d(X_ATOM, X_ATOM) + 2 * xi.d(X_ATOM) * eta.expr()
           + eta.d(T_ATOM) + eta.d(X_ATOM) * u)
    )


def expected_cubic_pair(xi, e1, e2, u1, u2, u1x, u2x):
    """The two expected invariance polynomials for a coupled pair, longhand."""
    d1, d2 = JetCoord(1, 1), JetCoord(1, 2)
    x, t = X_ATOM, T_ATOM
    first = (
        xi.d(d1, d1) * u1x ** 3
        + 2 * xi.d(d1, d2) * u1x ** 2 * u2x
        + xi.d(d2, d2) * u1x * u2x ** 2
        + (2 * xi.d(x, d1) - e1.d(d1, d1) + 2 * xi.d(d1) * u1
           - 2 * xi.expr() * xi.d(d1) + xi.d(d2) * u2) * u1x ** 2
        + (2 * xi.d(x, d2) - 2 * e1.d(d1, d2) + 2 * xi.d(d1)
           - 2 * xi.expr() * xi.d(d2) + xi.d(d2) * u1) * u1x * u2x
        + (xi.d(d2) - e1.d(d2, d2)) * u2x ** 2
        + (xi.d(x, x) - 2 * e1.d(x, d1) - xi.d(t) + xi.d(x) * u1
           - 2 * xi.expr() * xi.d(x) + 2 * e1.expr() * xi.d(d1)
           - e1.d(d2) * u2 + e2.d(d1) + e1.expr()) * u1x
        + (-2 * e1.d(x, d2) + xi.d(x) + 2 * e1.expr() * xi.d(d2)
           - e1.d(d1) + e1.d(d2) * u1 + e2.d(d2)) * u2x
        + (-e1.d(x, x) + 2 * e1.expr() * xi.d(x) + e1.d(t)
           + e1.d(x) * u1 + e2.d(x))
    )
    second = (
        xi.d(d1, d1) * u1x ** 2 * u2x
        + 2 * xi.d(d1, d2) * u1x * u2x ** 2
        + xi.d(d2, d2) * u2x ** 3
        + (xi.d(d1) * u2 - e2.d(d1, d1)) * u1x ** 2
        + (2 * xi.d(x, d1) - 2 * e2.d(d1, d2) + xi.d(d1) * u1
           - 2 * xi.expr() * xi.d(d1) + 2 * xi.d(d2) * u2) * u1x * u2x
        + (2 * xi.d(x, d2) - e2.d(d2, d2) + xi.d(d1)
           - 2 * xi.expr() * xi.d(d2)) * u2x ** 2
        + (xi.d(x) * u2 - 2 * e2.d(x, d1) + 2 * e2.expr() * xi.d(d1)
           + e1.d(d1) * u2 - e2.d(d1) * u1 - e2.d(d2) * u2 + e2.expr()) * u1x
        + (xi.d(x, x) - 2 * e2.d(x, d2) - xi.d(t) - 2 * xi.expr() * xi.d(x)
           + 2 * e2.expr() * xi.d(d2) + e1.d(d2) * u2 - e2.d(d1)) * u2x
        + (-e2.d(x, x) + 2 * e2.expr() * xi.d(x) + e2.d(t) + e1.d(x) * u2)
    )
    return [first, second]


class TestDeterminingPolynomials:
    def test_derivative_dependent_field_rejected(self):
        # eta = u_x prolongs to u_tx and u_xxx, which the manifold rules
        # do not eliminate
        with pytest.raises(ValueError):
            determining_polynomials(VectorField(1, ONE, ZERO, (UX,)))

    def test_single_component_matches_longhand(self):
        field, syms = generic_ansatz(1)
        computed = determining_polynomials(field)[0]
        expected = expected_cubic_single(syms["xi"], syms["eta1"], U, UX)
        assert computed == expected

    def test_single_component_term_by_term(self):
        field, syms = generic_ansatz(1)
        computed = collect_coefficients(determining_polynomials(field)[0], [UX])
        expected = collect_coefficients(
            expected_cubic_single(syms["xi"], syms["eta1"], U, UX), [UX]
        )
        assert set(computed) == set(expected)
        for mono in expected:
            assert computed[mono] == expected[mono], f"mismatch at {mono}"

    def test_pair_matches_longhand(self):
        field, syms = generic_ansatz(2)
        computed = determining_polynomials(field)
        u1, u2 = jet(1, 1), jet(1, 2)
        u1x, u2x = jet(1, 1, nx=1), jet(1, 2, nx=1)
        expected = expected_cubic_pair(
            syms["xi"], syms["eta1"], syms["eta2"], u1, u2, u1x, u2x
        )
        assert computed[0] == expected[0]
        assert computed[1] == expected[1]

    def test_pair_term_by_term(self):
        field, syms = generic_ansatz(2)
        u1x, u2x = jet(1, 1, nx=1), jet(1, 2, nx=1)
        computed = determining_polynomials(field)
        expected = expected_cubic_pair(
            syms["xi"], syms["eta1"], syms["eta2"], jet(1, 1), jet(1, 2), u1x, u2x
        )
        for got, want in zip(computed, expected):
            cg = collect_coefficients(got, [u1x, u2x])
            cw = collect_coefficients(want, [u1x, u2x])
            assert set(cg) == set(cw)
            for mono in cw:
                assert cg[mono] == cw[mono], f"mismatch at {mono}"

    def test_quoted_mixed_coefficient(self):
        # coefficient of (u_2,x)^2 in the first equation: xi_u2 - eta1_u2u2
        field, syms = generic_ansatz(2)
        poly = determining_polynomials(field)[0]
        u2x = jet(1, 2, nx=1)
        coeff = collect_coefficients(poly, [jet(1, 1, nx=1), u2x])[u2x ** 2]
        d2 = JetCoord(1, 2)
        assert coeff == syms["xi"].d(d2) - syms["eta1"].d(d2, d2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_classical_generators_reduce_to_zero(self, m):
        # classical restriction only: substitute the solved forms
        system = build_delta(m)
        solved = system.solved_rules()
        for field in generators(m):
            for res in invariance_residuals(system, field):
                assert solved.apply(res).is_zero(), field.name

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_field_reduces_to_follow_up_time_derivatives(self, m):
        # hold the fresh symbols steady in x: what survives restriction is
        # a combination of their time derivatives alone (substitution oracle)
        from burgers_hierarchy.symcore import SubstitutionMap

        field = build_symmetry_field(m)
        restricted = determining_polynomials(field)
        k = field.tier
        kill_x = SubstitutionMap([
            (JetCoord(k + 1, b, nt, nx), ZERO)
            for b in range(1, m + 3)
            for nt, nx in [(0, 1), (0, 2), (1, 1), (0, 3)]
        ])
        t_atoms = {JetCoord(k + 1, b, nt=1) for b in range(1, m + 3)}
        for res in restricted:
            out = kill_x.apply(res)
            assert not out.is_zero()
            for mono, _ in out.terms():
                hits = [a for a, _ in mono if a in t_atoms]
                assert len(hits) == 1, f"monomial {mono} lacks a lone time derivative"
            # and zeroing the time derivatives too kills everything
            kill_t = SubstitutionMap([(a, ZERO) for a in t_atoms])
            assert kill_t.apply(out).is_zero()


class TestTheorem:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_verifies(self, m):
        report = verify_theorem(m)
        assert report["m"] == m
        assert set(report["coefficient_map"]) == {str(a) for a in range(1, m + 1)}

    @pytest.mark.parametrize("m", [7, 8, 9, 10])
    def test_verifies_beyond_golden_instances(self, m):
        # self-generated instances past the hand-checked sizes
        assert verify_theorem(m)["m"] == m

    def test_m1_coefficient_map_structure(self):
        report = verify_theorem(1)
        eq1 = report["coefficient_map"]["1"]
        assert eq1["u[1,1]^2"] == {"1": "1/4"}
        assert eq1["u[1,1]"] == {"2": "1/4"}
        assert eq1["u[1,1]_x"] == {"1": "-1/2"}
        assert eq1["1"] == {"3": "1/4"}

    def test_broken_field_fails_loudly(self, monkeypatch):
        # verify_theorem itself rejects the field with w_1 added to xi
        def broken(m):
            field = build_symmetry_field(m)
            return VectorField(m, field.tau, field.xi + jet(2, 1), field.etas, name="broken")

        monkeypatch.setattr(prolong, "build_symmetry_field", broken)
        with pytest.raises(VerificationError) as exc:
            verify_theorem(1)
        assert str(exc.value) == ("m=1, eq 1: coefficient of u[1,1]^2 is not a combination of "
                                  "the follow-up residuals; leftover 1/2*u[2,1]*u[2,1]_x")

    def test_final_check_rejects_disagreeing_solved_forms(self, monkeypatch):
        # solved forms u_b,t -> u_b,t - R_b + u_b,x pass the coefficient
        # check, which reads the residuals, and fail only the final check
        def skewed(system):
            k = system.tier
            return symcore.SubstitutionMap(
                (JetCoord(k, b, nt=1), jet(k, b, nt=1) - res + jet(k, b, nx=1))
                for b, res in enumerate(system.residuals, start=1))

        monkeypatch.setattr(hierarchy.PdeSystem, "solved_rules", skewed)
        with pytest.raises(VerificationError) as exc:
            verify_theorem(1)
        assert str(exc.value) == (
            "m=1, eq 1: nonzero final residual 1/4*u[1,1]^2*u[2,1]_x + 1/4*u[1,1]*u[2,2]_x"
            " - 1/2*u[1,1]_x*u[2,1]_x + 1/4*u[2,3]_x")

    @pytest.mark.parametrize("extra, message", [
        (lambda u, w: u(1), "not a combination of the follow-up residuals; leftover u[2,1]_x"),
        # a follow-up time derivative times a follow-up variable
        (lambda u, w: w(1) * w(1, nt=1),
         "not linear with rational weights in the follow-up time derivatives"),
    ], ids=["leftover", "irrational-weight"])
    def test_sabotaged_field_names_the_coefficient(self, monkeypatch, extra, message):
        sabotage_symmetry_field(monkeypatch, extra)
        with pytest.raises(VerificationError) as exc:
            verify_theorem(2)
        assert str(exc.value) == f"m=2, eq 1: coefficient of u[1,1] is {message}"

    def test_report_json_shape(self):
        # status and meta.wall_time_ms are the CLI's (test_cli.TestVerify)
        doc = verify_theorem(2)
        assert set(doc) == {"m", "coefficient_map", "term_counts"}
        assert doc["term_counts"]["1"] > 0

    def test_coefficient_map_does_not_depend_on_term_order(self, monkeypatch):
        # collect_coefficients groups monomials in insertion order; the map's
        # keys reach JSON only through sort_keys
        expected = verify_theorem(3)
        restricted = determining_polynomials(build_symmetry_field(3))
        twins = [reordered(p) for p in restricted]
        assert [list(p._terms) for p in twins] != [list(p._terms) for p in restricted]
        monkeypatch.setattr(prolong, "determining_polynomials", lambda field: twins)
        got = verify_theorem(3)
        assert got["coefficient_map"] == expected["coefficient_map"]
        assert got["term_counts"] == expected["term_counts"]


class TestClassical:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_all_generators(self, m):
        report = verify_classical(m)
        assert report["m"] == m
        assert list(report["generators"].values()) == ["ok"] * 5

    def test_non_symmetry_rejected(self, monkeypatch):
        fake = VectorField(1, ZERO, ZERO, (X,), name="fake")
        monkeypatch.setattr(prolong, "generators", lambda m: [fake])
        with pytest.raises(VerificationError):
            verify_classical(1)


THIRD_ORDER_ATOMS = textwrap.dedent("""
    import sys
    from burgers_hierarchy import cli, symcore

    runs = [(kind, "1..6") for kind in ("theorem", "classical", "liealg")] + [("kappa", "1..4")]
    for kind, ms in runs:
        assert cli.main(["verify", kind, "--m", ms, "--out-dir", sys.argv[1]]) == 0, kind
    print("third order:", *(a.render() for a in symcore._ATOMS
                             if isinstance(a, symcore.JetCoord) and a.nt + a.nx >= 3))
""")


def test_verify_interns_no_third_order_coordinate(tmp_path):
    # every residual holds derivatives of order at most two, so a third-order
    # coordinate is interned only to cancel, and widens every packed
    # monomial after it.  The atom table is process-wide, so the check runs
    # in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", THIRD_ORDER_ATOMS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "third order:"


KAPPA_M1 = [Fraction(0), Fraction(-1), Fraction(-1), Fraction(2)]   # k(k-1)(2k+1)
KAPPA_GEN = [Fraction(0), Fraction(1), Fraction(2)]                 # k(2k+1)


def poly_divides(divisor, poly):
    rem = list(poly)
    while True:
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(divisor):
            break
        f = rem[-1] / divisor[-1]
        shift = len(rem) - len(divisor)
        for i, c in enumerate(divisor):
            rem[shift + i] -= f * c
    return not any(rem)


class TestKappa:
    def test_single_component_constraint(self):
        coeffs = kappa_coefficients(verify_kappa_constraint(1))
        assert poly_divides(KAPPA_M1, coeffs)
        assert len(coeffs) - 1 == 3  # exactly cubic

    @pytest.mark.parametrize("m", [2, 3])
    def test_coupled_constraint(self, m):
        coeffs = kappa_coefficients(verify_kappa_constraint(m))
        assert poly_divides(KAPPA_GEN, coeffs)
        assert coeffs[0] == 0  # kappa divides it

    def test_m1_not_divisible_by_coupled_extra_root(self):
        # the single-component constraint has the extra root kappa = 1
        coeffs = kappa_coefficients(verify_kappa_constraint(1))
        # evaluate at kappa = 1: must vanish
        assert sum(coeffs) == 0
        coeffs2 = kappa_coefficients(verify_kappa_constraint(2))
        assert sum(coeffs2) != 0

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_factor_matches_the_paper(self, m):
        factor, label = prolong.kappa_factor(m)
        assert kappa_coefficients(factor) == (KAPPA_M1 if m == 1 else KAPPA_GEN)
        assert label == ("kappa*(kappa-1)*(2*kappa+1)" if m == 1 else "kappa*(2*kappa+1)")

    @pytest.mark.parametrize("obstructions, constraint", [
        # kappa alone is not divisible by kappa*(2*kappa+1)
        (lambda k: [k], "kappa"),
        (lambda k: [k * (2 * k + 1) * (k - 3), (2 * k + 1) * (k + 5)], "kappa + 1/2"),
    ], ids=["kappa", "gcd"])
    def test_constraint_without_the_factor_raises(self, monkeypatch, obstructions, constraint):
        monkeypatch.setattr(prolong, "_kappa_obstructions_multi",
                            lambda m: obstructions(prolong.KAPPA.expr()))
        with pytest.raises(VerificationError) as exc:
            verify_kappa_constraint(2)
        assert str(exc.value) == f"m=2: constraint {constraint} is not divisible by the expected factor"

    def test_constraint_is_the_gcd_of_non_proportional_obstructions(self, monkeypatch):
        # real obstructions are rational multiples of one polynomial, so
        # Euclid's algorithm there stops after one step
        k = prolong.KAPPA.expr()
        monkeypatch.setattr(prolong, "_kappa_obstructions_multi",
                            lambda m: [k * (2 * k + 1) * (k - 3), 4 * k * (2 * k + 1) * (k + 5)])
        assert verify_kappa_constraint(2).render() == "kappa^2 + 1/2*kappa"


class TestBenchmarkTracerNames:
    """perfbench/tracing.py wraps these names by attribute, in their home
    module and in every package module that imported them by name, so the
    program must reach them through those attributes."""

    FUNCTIONS = ("total_derivative", "partial_derivative", "collect_coefficients", "eval_expr")
    METHODS = ((symcore.Expr, "__mul__"), (symcore.Expr, "__rmul__"),
               (symcore.SubstitutionMap, "apply"), (symcore.SubstitutionMap, "__init__"),
               (ManifoldRules, "apply"))

    def test_names_are_called_through_their_attributes(self, monkeypatch):
        calls = collections.Counter()

        def counting(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in self.FUNCTIONS:
            fn = getattr(symcore, name)
            wrapper = counting(fn, name)
            for mod in PACKAGE_MODULES:
                if getattr(mod, name, None) is fn:
                    monkeypatch.setattr(mod, name, wrapper)
        for cls, attr in self.METHODS:
            monkeypatch.setattr(cls, attr, counting(getattr(cls, attr), f"{cls.__name__}.{attr}"))

        verify_theorem(2)
        assert 2 * U == U + U
        solve_exact(1, [heat_polynomial(1)]).guard_ok(0.5, 1.0)
        expected = set(self.FUNCTIONS) | {f"{c.__name__}.{a}" for c, a in self.METHODS}
        assert set(calls) == expected
