"""Property tests for the packed kernel, substitution and the Bareiss
determinant.

Products of packed monomials are compared against a product over decoded
(atom, exponent) monomials, and the ring axioms, the commutation of D_t
and D_x and the render/parse round trip are checked on random
polynomials.  ``SubstitutionMap`` takes independent rules, whose
right-hand sides hold no left-hand atom, and applies them in one pass;
these tests compare that against the plain fixpoint of one-pass
substitution on random independent rule sets, and check that random
sets in which a right-hand side uses a left-hand atom (chains and
cycles, directly or inside exp()) are rejected.  The
fraction-free determinant is compared against cofactor expansion.  Every
nonsingular catalog drawn from the heat-data grammar certifies
symbolically.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from burgers_hierarchy.hopfcole import SingularSystemError, catalog_from_json, certify, solve_exact
from burgers_hierarchy.linalg import bareiss_determinant
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
    JetCoord,
    SubstitutionMap,
    contains_atom,
    exp,
    rational,
    total_derivative,
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


def tuple_product(a: Expr, b: Expr) -> dict:
    """a*b over decoded (atom, exponent) monomials: the reference."""
    out = {}
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            powers = dict(m1)
            for atom, k in m2:
                powers[atom] = powers.get(atom, 0) + k
            mon = frozenset(powers.items())
            out[mon] = out.get(mon, 0) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


@PROPERTY
@given(ring_elements(), ring_elements())
def test_product_matches_tuple_reference(a, b):
    assert {frozenset(mon): c for mon, c in (a * b).terms()} == tuple_product(a, b)


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
