"""Property tests for the packed kernel, substitution and the Bareiss
determinant.

Products of packed monomials are compared against a product over decoded
(atom, exponent) monomials, and the ring axioms, the commutation of D_t
and D_x, the Leibniz rule of :func:`derivation`, the action of a vector
field against its sum of partial derivatives, and the render/parse round
trip are checked on random polynomials.  The int-over-denominator
coefficients are compared against a plain ``{decoded monomial: Fraction}``
reference for every kernel operation on polynomials with rational
coefficients, with the lowest-terms invariant checked after each one.
``SubstitutionMap`` takes independent rules, whose
right-hand sides hold no left-hand atom, and applies them in one pass;
these tests compare that against the plain fixpoint of one-pass
substitution on random independent rule sets, and check that random
sets in which a right-hand side uses a left-hand atom (chains and
cycles, directly or inside exp()) are rejected.  The
fraction-free determinant is compared against cofactor expansion.  Every
nonsingular catalog drawn from the heat-data grammar certifies
symbolically, and its compiled float plan (``ExactSolution.evaluate``)
equals ``eval_expr`` on the point's environment bit for bit.  Float
values depend only on the polynomial: one polynomial built with its
terms added in two orders gives the same bits from ``eval_expr`` and
from the compiled plan, also for the determinant and numerators of a
catalog solution.
``eval_expr``, which resolves each distinct atom once per call, equals a
per-occurrence oracle bit for bit on random polynomials with nested
function applications.  The sparse ``rref`` equals a dense Gauss-Jordan
reference on random rational matrices with zero columns, repeated rows
and rank deficiency, and leaves its input unmodified.  A
finite-difference step that needs several CFL substeps matches the dense
Crank-Nicolson oracle on both boundaries.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from burgers_hierarchy.fdsolve import C_ADV, Grid1D, GridField, step
from burgers_hierarchy.hierarchy import VectorField
from burgers_hierarchy.hopfcole import (
    ExactSolution,
    SingularSystemError,
    catalog_from_json,
    certify,
    solve_exact,
)
from burgers_hierarchy.linalg import bareiss_determinant, rref
from burgers_hierarchy.parser import parse_expr
from burgers_hierarchy.symcore import (
    ONE,
    T,
    T_ATOM,
    X,
    X_ATOM,
    ZERO,
    Expr,
    FuncApp,
    InexactDivisionError,
    JetCoord,
    SubstitutionMap,
    SymbolicError,
    _FUNC_EVAL,
    _float_form,
    _nested_atoms,
    coefficient_rows,
    contains_atom,
    derivation,
    eval_expr,
    exact_divide,
    exp,
    rational,
    total_derivative,
)
from test_fdsolve import assert_close_to_oracle, dense_substep, moving_boundary
from tests_support import (
    densify,
    reference_apply,
    reference_eval_expr,
    reference_rref,
    reordered,
    summed,
)

ATOMS = [JetCoord(1, a, nx=nx) for a in (1, 2) for nx in (0, 1, 2)]
PROPERTY = settings(max_examples=25, deadline=None)


def poly(draw, atoms, max_terms=3):
    """Small polynomial over ``atoms``, sometimes with an exp() factor."""
    if not atoms:
        return rational(draw(st.integers(-3, 3)))
    out = ZERO
    for _ in range(draw(st.integers(1, max_terms))):
        term = rational(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        for a in draw(st.lists(st.sampled_from(atoms), max_size=2)):
            term = term * Expr.from_atom(a)
        if draw(st.integers(0, 4)) == 0:
            term = term * exp(Expr.from_atom(draw(st.sampled_from(atoms))))
        out = out + term
    return out


RING_ATOMS = [T_ATOM, X_ATOM] + ATOMS


@st.composite
def ring_elements(draw):
    """Up to four terms over t, x and jet coordinates with exponents up to
    three, some with an exp() factor of a small polynomial."""
    return poly_with_powers(draw, depth=1)


def poly_with_powers(draw, depth):
    out = ZERO
    for _ in range(draw(st.integers(0, 4))):
        term = rational(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
        for a in draw(st.lists(st.sampled_from(RING_ATOMS), max_size=3)):
            term = term * Expr.from_atom(a) ** draw(st.integers(1, 3))
        if depth and draw(st.integers(0, 3)) == 0:
            term = term * exp(poly_with_powers(draw, depth - 1))
        out = out + term
    return out


# -- references over decoded monomials: {frozenset((atom, exponent)): Fraction}


def reference(e: Expr) -> dict:
    return {frozenset(mon): c for mon, c in e.terms()}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for mon, c in b.items():
        out[mon] = out.get(mon, 0) + sign * c
    return {mon: c for mon, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            powers = dict(m1)
            for atom, k in m2:
                powers[atom] = powers.get(atom, 0) + k
            mon = frozenset(powers.items())
            out[mon] = out.get(mon, 0) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


def ref_pow(a: dict, n: int) -> dict:
    out = {frozenset(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivation(a: dict, images: dict) -> dict:
    out = {}
    for mon, c in a.items():
        for atom, k in mon:
            if atom in images:
                rest = frozenset((b, j - (b == atom)) for b, j in mon if b != atom or j > 1)
                out = ref_add(out, ref_mul({rest: c * k}, images[atom]))
    return out


def ref_substitute(a: dict, rules: dict) -> dict:
    out = {}
    for mon, c in a.items():
        prod = {frozenset((b, k) for b, k in mon if b not in rules): c}
        for b, k in mon:
            if b in rules:
                prod = ref_mul(prod, ref_pow(rules[b], k))
        out = ref_add(out, prod)
    return out


@PROPERTY
@given(ring_elements(), ring_elements())
def test_product_matches_tuple_reference(a, b):
    assert reference(a * b) == ref_mul(reference(a), reference(b))


@PROPERTY
@given(ring_elements(), ring_elements(),
       st.dictionaries(st.sampled_from(RING_ATOMS), ring_elements(), max_size=4))
def test_derivation_leibniz_rule(a, b, images):
    def d(e):
        return derivation(e, images.get)

    assert d(a * b) == a * d(b) + b * d(a)


@PROPERTY
@given(ring_elements(), ring_elements(), ring_elements(), ring_elements(), ring_elements())
def test_vector_field_action_is_sum_of_partials(tau, xi, eta1, eta2, e):
    # m = 2 lives at tier 1, the tier of RING_ATOMS
    field = VectorField(2, tau, xi, (eta1, eta2))
    assert field.apply_to(e) == reference_apply(field, e)


@PROPERTY
@given(ring_elements(), ring_elements(), ring_elements())
def test_ring_axioms(a, b, c):
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a - a).is_zero() and (a * ZERO).is_zero()
    assert a * ONE == a and a + ZERO == a


@PROPERTY
@given(ring_elements())
def test_total_derivatives_commute(e):
    assert total_derivative(total_derivative(e, "t"), "x") == \
        total_derivative(total_derivative(e, "x"), "t")


@PROPERTY
@given(ring_elements())
def test_render_parse_round_trip(e):
    assert parse_expr(e.render()) == e


# -- int coefficients over one denominator, against the Fraction reference

RATIONALS = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))


@st.composite
def rational_polys(draw, atoms=RING_ATOMS):
    """(Expr, reference) for up to four terms c * monomial, c = n/d with
    d in 1..12; the reference maps frozenset monomials to Fractions."""
    e, ref = ZERO, {}
    for _ in range(draw(st.integers(0, 4))):
        c = draw(RATIONALS)
        powers = {}
        for a in draw(st.lists(st.sampled_from(atoms), max_size=3)):
            powers[a] = powers.get(a, 0) + draw(st.integers(1, 3))
        term = Expr.from_rational(c)
        for a, k in powers.items():
            term = term * Expr.from_atom(a) ** k
        e = e + term
        ref = ref_add(ref, {frozenset(powers.items()): c})
    return e, ref


def assert_lowest_terms(e: Expr):
    assert type(e._den) is int and e._den > 0
    assert all(type(c) is int and c for c in e._terms.values())
    # so _den == 1 when every coefficient is integral, and zero is ({}, 1)
    assert math.gcd(e._den, *e._terms.values()) == 1


def assert_matches(e: Expr, ref: dict):
    assert_lowest_terms(e)
    assert reference(e) == ref


@PROPERTY
@given(rational_polys(), rational_polys(), RATIONALS, st.integers(0, 3))
def test_arithmetic_matches_fraction_reference(a_ref, b_ref, q, n):
    (a, ra), (b, rb) = a_ref, b_ref
    assert_matches(a, ra)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, rb, -1))
    assert_matches(-a, ref_add({}, ra, -1))
    assert_matches(a * b, ref_mul(ra, rb))
    quotient = {mon: c / q for mon, c in ra.items()}
    assert_matches(a / q, quotient)
    assert_matches(a / Expr.from_rational(q), quotient)
    assert_matches(a ** n, ref_pow(ra, n))
    assert_matches(q * a + b, ref_add({mon: q * c for mon, c in ra.items()}, rb))


@PROPERTY
@given(rational_polys(),
       st.dictionaries(st.sampled_from(RING_ATOMS), rational_polys(), max_size=3))
def test_derivation_matches_fraction_reference(a_ref, images):
    a, ra = a_ref
    out = derivation(a, {atom: e for atom, (e, _) in images.items()}.get)
    assert_matches(out, ref_derivation(ra, {atom: r for atom, (_, r) in images.items()}))


@st.composite
def rational_rules(draw):
    """Rules for one to three jet coordinates, each right-hand side over t,
    x and the other jet coordinates."""
    order = draw(st.permutations(ATOMS))
    k = draw(st.integers(1, 3))
    free = [T_ATOM, X_ATOM] + list(order[k:])
    return {atom: draw(rational_polys(free)) for atom in order[:k]}


@PROPERTY
@given(rational_polys(), rational_rules())
def test_substitution_matches_fraction_reference(a_ref, rules):
    a, ra = a_ref
    out = SubstitutionMap({atom: e for atom, (e, _) in rules.items()}).apply(a)
    assert_matches(out, ref_substitute(ra, {atom: r for atom, (_, r) in rules.items()}))


@PROPERTY
@given(rational_polys(), rational_polys())
def test_exact_divide_matches_fraction_reference(q_ref, d_ref):
    (q, rq), (d, rd) = q_ref, d_ref
    assume(rd)
    p = ZERO
    for mon, c in ref_mul(rq, rd).items():  # q * d, built without the kernel's product
        term = Expr.from_rational(c)
        for atom, k in mon:
            term = term * Expr.from_atom(atom) ** k
        p = p + term
    assert_matches(exact_divide(p, d), rq)
    if not d.is_rational():
        with pytest.raises(InexactDivisionError):
            exact_divide(p + 1, d)


@PROPERTY
@given(rational_polys())
def test_equal_values_have_one_representation(a_ref):
    e, _ = a_ref
    for other in ((e / 6) * 6, e + e - e, (e * 7) / 7, e / 2 + e * rational(1, 2)):
        assert_lowest_terms(other)
        assert other._terms == e._terms and other._den == e._den
        assert other == e and hash(other) == hash(e)


@PROPERTY
@given(rational_polys(), rational_polys(), RATIONALS)
def test_values_leaving_the_kernel_match_fraction_reference(a_ref, b_ref, q):
    (a, ra), (b, rb) = a_ref, b_ref
    # coefficient_rows: one sparse row per monomial, nonzero Fractions only
    rows = coefficient_rows([a, b])
    assert all(type(v) is Fraction and v != 0 for row in rows for v in row.values())
    assert sorted(map(tuple, densify(rows, 2))) == sorted(
        (ra.get(mon, Fraction(0)), rb.get(mon, Fraction(0))) for mon in set(ra) | set(rb))
    # as_rational
    for c in (q, Fraction(0), Fraction(q.denominator)):
        for e in (Expr.from_rational(c), a - a + c):
            assert type(e.as_rational()) is Fraction and e.as_rational() == c
    # the float plan rounds each coefficient as float(Fraction) does, also
    # for numerators and denominators far past 2**53
    big = Fraction(10 ** 30 + 1, 3 ** 40)
    for e, ref in ((a, ra), (a * big, {mon: c * big for mon, c in ra.items()})):
        atoms, plan = _float_form(e)
        assert len(plan) == len(ref)
        assert {frozenset((atoms[i], k) for i, k in mon): v.hex() for v, mon in plan} == \
            {mon: float(c).hex() for mon, c in ref.items()}


@st.composite
def rational_matrices(draw):
    """(dense rows, width, ncols): up to six rows of small rationals, some
    columns zeroed, some rows repeated or combined from others, and
    0 <= ncols <= width."""
    width = draw(st.integers(1, 6))
    entries = st.one_of(st.just(Fraction(0)), RATIONALS)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
        r1, r2 = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        q = draw(RATIONALS)
        rows.append([q * v + w for v, w in zip(r1, r2)])
    zero_cols = draw(st.sets(st.integers(0, width - 1), max_size=width))
    rows = [[Fraction(0) if c in zero_cols else v for c, v in enumerate(r)] for r in rows]
    return draw(st.permutations(rows)), width, draw(st.integers(0, width))


@PROPERTY
@given(rational_matrices())
# the rows past the rank follow from which row each pivot is taken from
@example(([[Fraction(1), Fraction(v)] for v in (1, 2, 3)], 2, 1))
@example(([], 3, 2))
def test_rref_matches_dense_reference(matrix):
    dense, width, ncols = matrix
    rows = [{c: v for c, v in enumerate(r) if v} for r in dense]
    before = [dict(r) for r in rows]
    aug, pivots = rref(rows, ncols)
    ref_aug, ref_pivots = reference_rref(dense, ncols)
    assert pivots == ref_pivots
    assert densify(aug, width) == ref_aug
    assert all(type(v) is Fraction and v != 0 for row in aug for v in row.values())
    assert all(c >= ncols for row in aug[len(pivots):] for c in row)
    assert rows == before


@st.composite
def independent_rules(draw):
    """Rules for a random subset of ATOMS whose right-hand sides use only
    the atoms outside that subset."""
    order = draw(st.permutations(ATOMS))
    split = draw(st.integers(0, len(ATOMS)))
    lhs, free = order[:split], order[split:]
    return [(atom, poly(draw, free)) for atom in lhs]


@st.composite
def probes(draw):
    return poly(draw, ATOMS, max_terms=4)


def one_pass(e: Expr, raw: dict) -> Expr:
    out = ZERO
    for mon, c in e.terms():
        factor = rational(c.numerator, c.denominator)
        for a, k in mon:
            if a in raw:
                factor = factor * raw[a] ** k
            elif isinstance(a, FuncApp):
                factor = factor * Expr.from_atom(FuncApp(a.fname, one_pass(a.arg, raw))) ** k
            else:
                factor = factor * Expr.from_atom(a) ** k
        out = out + factor
    return out


def fixpoint_oracle(e: Expr, rules) -> Expr:
    raw = dict(rules)
    for _ in range(len(raw) + 2):
        new = one_pass(e, raw)
        if new == e:
            return e
        e = new
    raise AssertionError("independent rules did not reach a fixpoint")


@PROPERTY
@given(independent_rules(), probes())
def test_apply_matches_fixpoint_oracle(rules, e):
    assert SubstitutionMap(rules).apply(e) == fixpoint_oracle(e, rules)


@PROPERTY
@given(independent_rules(), probes())
def test_apply_is_idempotent(rules, e):
    sm = SubstitutionMap(rules)
    once = sm.apply(e)
    assert sm.apply(once) == once


@PROPERTY
@given(independent_rules(), probes())
def test_no_left_hand_atom_survives(rules, e):
    sm = SubstitutionMap(rules)
    out = sm.apply(e)
    for atom in sm.rules:
        assert not contains_atom(out, atom)
        for rhs in sm.rules.values():
            assert not contains_atom(rhs, atom)


@st.composite
def dependent_rules(draw):
    """A chain a1 -> a2 -> ... -> an of rules, closed into a cycle (a
    one-atom cycle is a self-reference) or ended by a rule over the other
    atoms, plus rules for some of the other atoms; each link uses the
    next atom directly or inside exp()."""
    order = draw(st.permutations(ATOMS))
    length = draw(st.integers(1, len(ATOMS)))
    chain, rest = order[:length], order[length:]
    cyclic = length == 1 or draw(st.booleans())
    rules = []
    for i, atom in enumerate(chain):
        if i == length - 1 and not cyclic:
            rules.append((atom, poly(draw, rest)))
            continue
        nxt = Expr.from_atom(chain[(i + 1) % length])
        link = exp(nxt) if draw(st.booleans()) else nxt
        weight = rational(draw(st.integers(-3, 3).filter(bool)))
        rules.append((atom, weight * link + poly(draw, rest)))
    for i, atom in enumerate(rest):
        if draw(st.booleans()):
            rules.append((atom, poly(draw, rest[i + 1:])))
    return draw(st.permutations(rules))


@PROPERTY
@given(dependent_rules())
def test_dependent_rules_rejected(rules):
    with pytest.raises(ValueError):
        SubstitutionMap(rules)


def test_cycle_through_function_argument_rejected():
    a, b = JetCoord(1, 1), JetCoord(1, 2)
    with pytest.raises(ValueError):
        SubstitutionMap([(a, exp(Expr.from_atom(b))), (b, Expr.from_atom(a))])


def test_function_application_lhs_rejected():
    with pytest.raises(ValueError):
        SubstitutionMap([(FuncApp("exp", ONE), ZERO)])


@st.composite
def small_polys_in_tx(draw):
    """Up to three terms c * x^i * t^j with i, j <= 2; zero a third of
    the time, so pivots vanish and Bareiss has to swap rows."""
    if draw(st.integers(0, 2)) == 0:
        return ZERO
    out = ZERO
    for _ in range(draw(st.integers(1, 3))):
        c = rational(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        out = out + c * X ** draw(st.integers(0, 2)) * T ** draw(st.integers(0, 2))
    return out


def cofactor_det(rows):
    """Laplace expansion along the first row (the oracle)."""
    if len(rows) == 1:
        return rows[0][0]
    det = ZERO
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = entry * cofactor_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


@PROPERTY
@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(st.lists(small_polys_in_tx(), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_bareiss_matches_cofactor_expansion(rows):
    assert bareiss_determinant(rows) == cofactor_det(rows)


LEAVES = st.sampled_from(
    [{"kind": "constant", "value": v} for v in ("1", "-2", "1/3")]
    + [{"kind": "exponential", "a": a, "sign": s} for a in ("1", "2", "1/2") for s in (1, -1)]
    + [{"kind": "trig", "a": a, "func": f} for a in ("1", "2", "1/2") for f in ("sin", "cos")]
    + [{"kind": "heat_polynomial", "degree": n} for n in range(5)]
    + [{"kind": "gaussian", "t0": t0} for t0 in ("1", "3/2")])
ENTRIES = st.one_of(LEAVES, st.builds(
    lambda terms: {"kind": "sum", "terms": [{"coeff": c, "term": t} for c, t in terms]},
    st.lists(st.tuples(st.sampled_from(["1", "-1", "1/2", "3"]), LEAVES),
             min_size=1, max_size=2)))


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda m: st.lists(ENTRIES, min_size=m, max_size=m)))
def test_catalog_solutions_certify_symbolically(catalog):
    """Every nonsingular draw from the catalog grammar has all residuals
    R_a identically zero, so certify proves it."""
    try:
        sol = solve_exact(len(catalog), catalog_from_json(catalog))
    except SingularSystemError:
        assume(False)
    assert all(r.num.is_zero() for r in sol.residuals())
    assert certify(sol).mode == "symbolic"


def bits(values):
    """Exact images of floats: ``float.hex`` also tells -0.0 from 0.0."""
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda m: st.lists(ENTRIES, min_size=m, max_size=m)),
       st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4),
       st.integers(1, 3), st.integers(-3, 3))
# v_k = exp(k^2 t + k x) + P_{k+1}, k = 1..4: D has 158 terms and each numerator
# over 64, so the plan adds each sum in more than one statement
@example([{"kind": "sum", "terms": [
    {"coeff": "1", "term": {"kind": "exponential", "a": str(k)}},
    {"coeff": "1", "term": {"kind": "heat_polynomial", "degree": k + 1}}]} for k in range(1, 5)],
    [(0.5, -1.25), (1.5, 0.75)], 1, -2)
def test_float_plan_matches_eval_expr(catalog, points, t_int, x_int):
    """evaluate (the plan compiled from the terms) gives the floats of
    eval_expr on _env exactly; int and np.float64 input gives the Python
    floats of the equal float input."""
    try:
        sol = solve_exact(len(catalog), catalog_from_json(catalog))
    except SingularSystemError:
        assume(False)
    for t, x in points:
        env = sol._env(t, x)
        d = eval_expr(sol.det, env)
        assume(d != 0.0)
        assert bits(sol.evaluate(t, x)) == bits([eval_expr(n, env) / d for n in sol.numerators])
        assert bits(sol.evaluate(np.float64(t), np.float64(x))) == bits(sol.evaluate(t, x))
    if eval_expr(sol.det, sol._env(t_int, x_int)) != 0.0:
        assert bits(sol.evaluate(t_int, x_int)) == bits(sol.evaluate(float(t_int), float(x_int)))


EVAL_ATOMS = [T_ATOM, X_ATOM, JetCoord(1, 1), JetCoord(1, 1, nx=1)]
ENV_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
    st.integers(-3, 3),
    st.floats(-2.0, 2.0).map(np.float64))


@st.composite
def funcapp_polys(draw, depth=2):
    """Up to four terms c * monomial over EVAL_ATOMS and one or two
    function applications, whose arguments are drawn the same way one
    level down (none at depth 0); exponents up to 3, so atoms repeat
    within and across terms."""
    factors = [Expr.from_atom(a) for a in EVAL_ATOMS]
    for _ in range(draw(st.integers(1, 2)) if depth else 0):
        arg = draw(funcapp_polys(depth - 1))
        factors.append(Expr.from_atom(FuncApp(draw(st.sampled_from(sorted(_FUNC_EVAL))), arg)))
    e = ZERO
    for _ in range(draw(st.integers(0, 4))):
        term = Expr.from_rational(draw(RATIONALS))
        for f in draw(st.lists(st.sampled_from(factors), max_size=3)):
            term = term * f ** draw(st.integers(1, 3))
        e = e + term
    return e


def eval_outcome(fn, e, env):
    """The float's hex, or the type and message of what fn raised."""
    try:
        v = fn(e, env)
    except (ArithmeticError, ValueError, SymbolicError) as exc:
        return type(exc), str(exc)
    assert type(v) is float
    return v.hex()


@settings(max_examples=100, deadline=None)
@given(funcapp_polys(), st.data())
def test_eval_expr_matches_per_occurrence_oracle(e, data):
    """eval_expr resolves each distinct atom once per call; the oracle
    looks every occurrence up again.  Values agree bit for bit whether a
    function application is given in env or evaluated from its argument,
    for env values -0.0, inf, nan, int and np.float64, and a missing atom
    raises the same SymbolicError.  Atoms resolve before any term is
    computed, so when a power overflows the one difference allowed is
    that a later atom's error may be raised instead."""
    env = {}
    for a in _nested_atoms(e):
        # function applications stay out of env half the time, other atoms one time in eight
        if data.draw(st.booleans() if isinstance(a, FuncApp) else st.integers(0, 7).map(bool)):
            env[a] = data.draw(ENV_VALUES)
    expected = eval_outcome(reference_eval_expr, e, env)
    got = eval_outcome(eval_expr, e, env)
    if isinstance(expected, tuple) and expected[0] is OverflowError:
        assert isinstance(got, tuple)
    else:
        assert got == expected


PLAN_ATOMS = [T_ATOM, X_ATOM, FuncApp("exp", X), FuncApp("sin", T - 2 * X)]
TERM_LISTS = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(PLAN_ATOMS), st.integers(1, 3), max_size=3)
              .map(lambda powers: tuple(powers.items())),
              st.builds(lambda q, s: q * Fraction(2) ** s, RATIONALS, st.integers(-60, 60))),
    min_size=1, max_size=12)


@PROPERTY
# 2**60 + 1 rounds to 2**60: summed in insertion order, the two builds give 0.0 and 1.0
@example(([(((T_ATOM, 1),), Fraction(2 ** 60)), ((), Fraction(1)),
           (((X_ATOM, 1),), Fraction(-2 ** 60))], [0, 2, 1]), 1.0, 1.0)
@given(TERM_LISTS.flatmap(lambda ts: st.tuples(st.just(ts), st.permutations(range(len(ts))))),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_float_values_depend_only_on_the_polynomial(terms_and_order, t, x):
    """One polynomial, its terms added in two orders, gives the same bits
    from eval_expr and from the plan compiled by ExactSolution.evaluate
    (the polynomial as the numerator over D = 1)."""
    terms, order = terms_and_order
    polys = summed(terms), summed([terms[i] for i in order])
    assert polys[0] == polys[1]
    env = {T_ATOM: t, X_ATOM: x}
    values = [eval_expr(e, env) for e in polys]
    values += [ExactSolution(1, [e], ONE, [[ONE]], None, {}, ["v1"]).evaluate(t, x)[0]
               for e in polys]
    assert len(set(bits(values))) == 1


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda m: st.lists(ENTRIES, min_size=m, max_size=m)),
       st.randoms(use_true_random=False),
       st.lists(st.tuples(st.floats(0.05, 2.0), st.floats(-3.0, 3.0)), min_size=1, max_size=4))
def test_exact_solution_floats_do_not_depend_on_term_order(catalog, rng, points):
    """The determinant and numerators rebuilt with their terms in a
    shuffled insertion order evaluate to the same bits."""
    try:
        sol = solve_exact(len(catalog), catalog_from_json(catalog))
    except SingularSystemError:
        assume(False)

    def shuffled(e):
        return reordered(e, lambda ts: rng.sample(ts, len(ts)))

    twin = dataclasses.replace(sol, numerators=[shuffled(n) for n in sol.numerators],
                               det=shuffled(sol.det))
    for t, x in points:
        assume(eval_expr(sol.det, sol._env(t, x)) != 0.0)
        assert bits(twin.evaluate(t, x)) == bits(sol.evaluate(t, x))


@PROPERTY
@given(st.integers(8, 40), st.integers(1, 3), st.sampled_from(["dirichlet", "periodic"]),
       st.integers(0, 2 ** 32 - 1), st.floats(1.2, 4.0))
def test_substepped_step_matches_dense_oracle(nx, m, boundary, seed, over):
    """dt is `over` times the CFL limit C_ADV dx / max|u_1| = dx, so the
    step takes 2 to 4 substeps; the oracle takes the same substeps."""
    vals = np.random.default_rng(seed).uniform(-0.5, 0.5, (m, nx))
    vals[0, 0] = 0.5  # max|u_1|
    dx = 1.0 / (nx - 1)
    dt = over * C_ADV * dx / 0.5
    grid = Grid1D(0.0, 1.0, nx, dt, dt, boundary=boundary)
    bc = moving_boundary(m) if boundary == "dirichlet" else None
    nsub = math.ceil(dt / (C_ADV * grid.dx / 0.5))
    assert nsub >= 2
    out = step(GridField(vals, 0.3), grid, bc)
    t, h, ref, history = 0.3, dt / nsub, vals, None
    for _ in range(nsub):
        ref, history = dense_substep(ref, t, h, grid, bc, history)
        t += h
    assert_close_to_oracle(out.values, ref)
