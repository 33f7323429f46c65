"""Second prolongation of vector fields and mechanical invariance checks.

The conditional-symmetry computation follows the standard scheme: extend
the generator to jet coordinates, apply it to each system residual, then
restrict to the solution manifold (the system itself and the invariant
surface conditions).  What remains is a polynomial in the first-order
x-derivatives whose coefficients are the determining quantities.  The
checks :func:`verify_theorem`, :func:`verify_classical` and
:func:`verify_kappa_constraint` raise :class:`VerificationError` when their
verdict fails.

Every residual u_a,t + u_a u_1,x - u_a,xx + u_{a+1},x holds only u_a,
u_a,t, u_a,x and u_a,xx, so only their coefficients eta^t, eta^x and
eta^xx are prolonged.  The prolonged field acts as one derivation (see
:func:`~burgers_hierarchy.symcore.derivation`), given by the images of
atoms: t, x and u_a go to tau, xi and eta_a, and u_a,t, u_a,x and u_a,xx
to eta^t, eta^x and eta^xx.  :func:`prolong2` computes them by the direct
coefficient recursion; the test suite cross-checks it against the
characteristic form, which builds and cancels third-order terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
import time

from .hierarchy import (PdeSystem, VectorField, build_delta, build_symmetry_field,
                        components, tier_of)
from .liealg import generators
from .symcore import (
    Atom,
    Expr,
    JetCoord,
    NonPolynomialError,
    ONE,
    OpaqueDeriv,
    OpaqueSymbol,
    SubstitutionMap,
    T_ATOM,
    X_ATOM,
    ZERO,
    collect_coefficients,
    derivation,
    jet,
    partial_derivative,
    powers_of,
    total_derivative,
)


class VerificationError(Exception):
    """A symmetry claim failed to verify; carries the offending residual."""


class ExtractionError(Exception):
    """A constraint could not be isolated as a pure polynomial in kappa."""


# ---------------------------------------------------------------------------
# prolongation


def _stray_coordinate(e: Expr, k: int, orders) -> JetCoord | None:
    """A tier-k jet coordinate of ``e`` whose (nt, nx) is not in
    ``orders``, or None."""
    return next((a for a in e.atoms() if isinstance(a, JetCoord) and a.tier == k
                 and (a.nt, a.nx) not in orders), None)


@dataclass(frozen=True)
class ProlongedField:
    """Second prolongation on the coordinates a residual holds: the
    coefficients eta^t, eta^x and eta^xx per component."""

    base: VectorField
    eta_t: tuple[Expr, ...]
    eta_x: tuple[Expr, ...]
    eta_xx: tuple[Expr, ...]

    def apply_to(self, e: Expr) -> Expr:
        """Action of the prolonged field on an expression in t, x and the
        coordinates u_a, u_a,t, u_a,x and u_a,xx of the base field's tier;
        any other derivative of that tier raises ``ValueError``."""
        stray = _stray_coordinate(e, self.base.tier, ((0, 0), (1, 0), (0, 1), (0, 2)))
        if stray is not None:
            raise ValueError(f"{stray.render()} is not a prolonged coordinate")
        return derivation(e, self.images.get)

    @cached_property
    def images(self) -> dict[Atom, Expr]:
        """The base field's images; u_a,t, u_a,x, u_a,xx go to eta^t, eta^x, eta^xx."""
        k, orders = self.base.tier, ((1, 0), (0, 1), (0, 2))
        out = dict(self.base.images)
        for a, coeffs in enumerate(zip(self.eta_t, self.eta_x, self.eta_xx), start=1):
            out.update((JetCoord(k, a, *o), c) for o, c in zip(orders, coeffs))
        return out


def prolong2(field: VectorField) -> ProlongedField:
    """Prolongation by the direct coefficient recursion,
    eta^{J,i} = D_i(eta^J) - D_i(tau)*u_a,Jt - D_i(xi)*u_a,Jx, with D_i(tau)
    and D_i(xi) taken once per field.  A zero factor builds no coordinate,
    so nothing is built only to cancel: no third-order coordinate, and no
    u_a,tx where D_x(tau) = 0."""
    k = field.tier
    d = {v: (total_derivative(field.tau, v), total_derivative(field.xi, v))
         for v in (T_ATOM, X_ATOM)}

    def step(eta_j: Expr, a: int, v, nt: int, nx: int) -> Expr:
        """eta^{J,v} of component a from eta^J, J = (nt, nx)."""
        out = total_derivative(eta_j, v)
        for f, order in zip(d[v], ((nt + 1, nx), (nt, nx + 1))):
            if not f.is_zero():
                out = out - f * jet(k, a, *order)
        return out

    eta_t, eta_x, eta_xx = [], [], []
    for a, eta in enumerate(field.etas, start=1):
        eta_t.append(step(eta, a, T_ATOM, 0, 0))
        eta_x.append(step(eta, a, X_ATOM, 0, 0))
        eta_xx.append(step(eta_x[-1], a, X_ATOM, 0, 1))
    return ProlongedField(field, tuple(eta_t), tuple(eta_x), tuple(eta_xx))


# ---------------------------------------------------------------------------
# the solution manifold


@dataclass(frozen=True)
class ManifoldRules:
    """Substitution rules cutting out the manifold: the invariant surface
    conditions eliminate u_a,t, and the system's solved form (already
    reduced by the surface conditions) eliminates u_a,xx.  No
    differential consequence is needed: with tau = 1 and xi, eta_a of
    order zero, eta^t, eta^x and eta^xx hold no coordinate beyond u_a,t,
    u_a,x and u_a,xx.  After application only u_a and u_a,x of the
    system's family survive."""

    rules: SubstitutionMap

    def apply(self, e: Expr) -> Expr:
        return self.rules.apply(e)


def manifold_rules(field: VectorField) -> ManifoldRules:
    if field.tau != ONE:
        raise ValueError("surface-condition rules require the normalized form tau = 1")
    m, k = field.m, field.tier
    u = components(m)
    rules: dict[JetCoord, Expr] = {}
    for a in range(1, m + 1):
        q_rhs = field.etas[a - 1] - field.xi * u(a, nx=1)
        # u_a,t from Q_a = 0
        rules[JetCoord(k, a, nt=1)] = q_rhs
        # u_a,xx from the solved form, with u_a,t already eliminated
        rules[JetCoord(k, a, nx=2)] = q_rhs + u(a) * u(1, nx=1) + u(a + 1, nx=1)
    return ManifoldRules(SubstitutionMap(rules))


# ---------------------------------------------------------------------------
# determining polynomials


def generic_ansatz(m: int):
    """Vector field with opaque xi(t, x, u_1..u_m) and eta_a(t, x, u_1..u_m).

    Returns (field, symbols) where symbols maps name -> OpaqueSymbol for
    use with the parser and for building expected coefficients.
    """
    k = tier_of(m)
    args = (T_ATOM, X_ATOM) + tuple(JetCoord(k, a) for a in range(1, m + 1))
    xi = OpaqueSymbol("xi", args)
    etas = [OpaqueSymbol(f"eta{a}", args) for a in range(1, m + 1)]
    field = VectorField(m, ONE, xi.expr(), tuple(s.expr() for s in etas), name="generic")
    return field, {s.name: s for s in [xi, *etas]}


def invariance_residuals(system: PdeSystem, field: VectorField) -> list[Expr]:
    """Second prolongation applied to each residual, unrestricted."""
    pf = prolong2(field)
    return [pf.apply_to(r) for r in system.residuals]


def determining_polynomials(ansatz: VectorField) -> list[Expr]:
    """Invariance residuals restricted to the manifold: polynomials in
    the first-order x-derivatives of the system's variables.  A residual
    that keeps another derivative of the system's tier (the ansatz
    coefficients depend on derivatives) raises ``ValueError``."""
    system = build_delta(ansatz.m)
    rules = manifold_rules(ansatz)
    restricted = [rules.apply(r) for r in invariance_residuals(system, ansatz)]
    for a, res in enumerate(restricted, start=1):
        stray = _stray_coordinate(res, ansatz.tier, ((0, 0), (0, 1)))
        if stray is not None:
            raise ValueError(f"equation {a}: {stray.render()} survives restriction")
    return restricted


# ---------------------------------------------------------------------------
# theorem verification


@dataclass
class TheoremReport:
    m: int
    status: str
    coefficient_map: dict
    term_counts: dict
    wall_time_ms: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "status": self.status,
            "coefficient_map": self.coefficient_map,
            "term_counts": self.term_counts,
            "meta": {"wall_time_ms": round(self.wall_time_ms, 3)},
        }


def verify_theorem(m: int) -> TheoremReport:
    """Mechanically verify the conditional-symmetry claim for the
    m-component system.

    The restricted invariance residuals are collected over monomials in
    {u_a, u_a,x}; every coefficient must be a rational combination of the
    residuals of the (m+2)-component follow-up system, and substituting
    that system's solved forms must annihilate everything.  Failure
    raises :class:`VerificationError`.
    """
    t0 = time.perf_counter()
    k = tier_of(m)
    field = build_symmetry_field(m)
    restricted = determining_polynomials(field)
    follow_up = build_delta(m + 2)  # tier of m+2 is k+1 by construction
    assert follow_up.tier == k + 1

    collect_vars = [JetCoord(k, a, nx=dx) for a in range(1, m + 1) for dx in (0, 1)]
    t_atoms = {JetCoord(k + 1, b, nt=1): b for b in range(1, m + 3)}

    coefficient_map: dict[str, dict[str, dict[str, str]]] = {}
    term_counts: dict[str, int] = {}
    for a, res in enumerate(restricted, start=1):
        term_counts[str(a)] = res.term_count()
        eq_map: dict[str, dict[str, str]] = {}
        for mono, coeff in collect_coefficients(res, collect_vars).items():
            combo: dict[str, str] = {}
            remainder = coeff
            for t_atom in sorted(coeff.atoms() & t_atoms.keys(), key=t_atoms.get):
                b = t_atoms[t_atom]
                q = partial_derivative(coeff, t_atom)
                if not q.is_rational():
                    raise VerificationError(
                        f"m={m}, eq {a}: coefficient of {mono} is not linear "
                        f"with rational weights in the follow-up time derivatives"
                    )
                remainder = remainder - q * follow_up.residuals[b - 1]
                combo[str(b)] = str(q.as_rational())
            if not remainder.is_zero():
                raise VerificationError(
                    f"m={m}, eq {a}: coefficient of {mono} is not a combination "
                    f"of the follow-up residuals; leftover {remainder}"
                )
            eq_map[mono.render()] = combo
        coefficient_map[str(a)] = eq_map

    # independent final check: rewrite the follow-up time derivatives via the
    # solved forms and demand canonical zero
    solved = follow_up.solved_rules()
    for a, res in enumerate(restricted, start=1):
        final = solved.apply(res)
        if not final.is_zero():
            raise VerificationError(f"m={m}, eq {a}: nonzero final residual {final}")

    dt_ms = (time.perf_counter() - t0) * 1000.0
    return TheoremReport(m, "ok", coefficient_map, term_counts, dt_ms)


@dataclass
class ClassicalReport:
    m: int
    status: str
    generators: dict
    wall_time_ms: float

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "status": self.status,
            "generators": self.generators,
            "meta": {"wall_time_ms": round(self.wall_time_ms, 3)},
        }


def verify_classical(m: int, fields: list[VectorField] | None = None) -> ClassicalReport:
    """Check that each classical generator annihilates the system after
    substituting the solved forms (plain invariance, no surface
    conditions)."""
    t0 = time.perf_counter()
    system = build_delta(m)
    solved = system.solved_rules()
    per_gen = {}
    for f in fields if fields is not None else generators(m):
        pf = prolong2(f)
        for a, res in enumerate(system.residuals, start=1):
            out = solved.apply(pf.apply_to(res))
            if not out.is_zero():
                raise VerificationError(
                    f"m={m}: generator {f.name or '?'} leaves equation {a} "
                    f"non-invariant: {out}"
                )
        per_gen[f.name or f"field{len(per_gen) + 1}"] = "ok"
    dt_ms = (time.perf_counter() - t0) * 1000.0
    return ClassicalReport(m, "ok", per_gen, dt_ms)


# ---------------------------------------------------------------------------
# constraints on the advective ansatz coefficient


def kappa_symbol() -> OpaqueSymbol:
    return OpaqueSymbol("kappa", ())


def kappa_poly_coefficients(e: Expr) -> list[Fraction]:
    """Coefficients [c0, c1, ...] of a polynomial in the kappa symbol."""
    parts = powers_of(e, OpaqueDeriv(kappa_symbol(), ()))
    if not all(c.is_rational() for c in parts.values()):
        raise ExtractionError(f"not a pure kappa polynomial: {e}")
    if not parts:
        return [Fraction(0)]
    return [parts.get(i, ZERO).as_rational() for i in range(max(parts) + 1)]


def poly_rem(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    """Remainder of p modulo a nonzero q, both coefficient lists
    [c0, c1, ...]; the result has no trailing zeros, so it is empty
    exactly when q divides p."""
    p, q = _trim(p), _trim(q)
    while len(p) >= len(q):
        f = p[-1] / q[-1]
        shift = len(p) - len(q)
        for i, c in enumerate(q):
            p[shift + i] -= f * c
        p = _trim(p)
    return p


def _trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd by Euclid; gcd(0, b) is b made monic."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, poly_rem(a, b)
    return [c / a[-1] for c in a] if a else a


def _poly_from_coeffs(coeffs: list[Fraction]) -> Expr:
    kap = kappa_symbol().expr()
    out = ZERO
    for i, c in enumerate(coeffs):
        out = out + Expr.from_rational(c) * kap ** i
    return out


def verify_kappa_constraint(m: int) -> Expr:
    """Extract the algebraic constraint on the constant kappa in the
    ansatz xi = kappa*u_1 + f(t,x)/2.

    For m >= 2 the pure x-derivative quadratic coefficients of the
    determining polynomials fix every second partial of the eta_a;
    equality of mixed third partials then yields scalar obstructions that
    are polynomials in kappa alone.  For m = 1 there is a single
    dependent variable, so instead the second-derivative condition is
    integrated (a polynomial quadrature in u_1) and the leading
    coefficient of the re-derived determining polynomial is extracted.
    Returns the monic gcd of the collected constraints, and raises
    :class:`VerificationError` unless :func:`kappa_factor` divides it.
    """
    if m >= 2:
        constraints = _kappa_obstructions_multi(m)
    else:
        constraints = _kappa_obstructions_single()
    if not constraints:
        raise ExtractionError(f"m={m}: no kappa constraint found")
    g: list[Fraction] = []
    for c in constraints:
        g = _poly_gcd(g, c)
    poly = _poly_from_coeffs(g)
    if poly_rem(g, kappa_factor(m)[0]):
        raise VerificationError(
            f"m={m}: constraint {poly} is not divisible by the expected factor")
    return poly


def kappa_factor(m: int) -> tuple[list[Fraction], str]:
    """The paper's factor of the kappa constraint: coefficients [c0, c1, ...] and text."""
    if m == 1:
        return [Fraction(0), Fraction(-1), Fraction(-1), Fraction(2)], "kappa*(kappa-1)*(2*kappa+1)"
    return [Fraction(0), Fraction(1), Fraction(2)], "kappa*(2*kappa+1)"


def _kappa_ansatz(m: int):
    """xi = kappa*u_1 + f(t,x)/2 with opaque eta_a; returns
    (field, kappa_atom, u_atoms)."""
    k = tier_of(m)
    kappa = kappa_symbol()
    f = OpaqueSymbol("f", (T_ATOM, X_ATOM))
    xi = kappa.expr() * jet(k, 1) + f.expr() / 2
    args = (T_ATOM, X_ATOM) + tuple(JetCoord(k, a) for a in range(1, m + 1))
    etas = tuple(OpaqueSymbol(f"eta{a}", args).expr() for a in range(1, m + 1))
    field = VectorField(m, ONE, xi, etas, name="kappa-ansatz")
    return field, OpaqueDeriv(kappa, ()), [JetCoord(k, a) for a in range(1, m + 1)]


def _solve_linear_atom(e: Expr, atom: OpaqueDeriv) -> Expr:
    """Solve e == 0 for an atom occurring linearly with rational weight."""
    slope = partial_derivative(e, atom)
    if slope.is_zero() or not slope.is_rational():
        raise ExtractionError(f"cannot solve for {atom.render()} in {e}")
    rest = e - slope * Expr.from_atom(atom)
    return -rest / slope.as_rational()


def _kappa_obstructions_multi(m: int) -> list[list[Fraction]]:
    field, kappa_atom, u_atoms = _kappa_ansatz(m)
    polys = determining_polynomials(field)
    k = field.tier
    ux = [JetCoord(k, a, nx=1) for a in range(1, m + 1)]

    # second partials eta_a,{u_b u_c} from the quadratic monomial coefficients
    second: list[dict[tuple[int, int], Expr]] = []
    for a, poly in enumerate(polys, start=1):
        coeffs = collect_coefficients(poly, ux)
        table: dict[tuple[int, int], Expr] = {}
        eta_sym = OpaqueSymbol(f"eta{a}", (T_ATOM, X_ATOM) + tuple(u_atoms))
        for b in range(1, m + 1):
            for c in range(b, m + 1):
                mono = Expr.from_atom(ux[b - 1]) * Expr.from_atom(ux[c - 1])
                coeff = coeffs.get(mono, ZERO)
                atom = OpaqueDeriv(eta_sym, _orders_for(m, b, c))
                # the quadratic coefficient always carries -1 or -2 times the
                # Hessian entry, so a vanishing coefficient means a broken ansatz
                table[(b, c)] = _solve_linear_atom(coeff, atom)
        second.append(table)

    # the third partial eta_a,{u_b u_c u_d}, b <= c <= d, is d/du_x of the
    # entry (lo, hi) in every distinct index order (x, lo, hi); all must agree
    obstructions: list[list[Fraction]] = []
    for table in second:
        for b, c, d in combinations_with_replacement(range(1, m + 1), 3):
            first, *rest = [partial_derivative(table[(lo, hi)], u_atoms[x - 1])
                            for x, lo, hi in dict.fromkeys([(d, b, c), (c, b, d), (b, c, d)])]
            for other in rest:
                diff = first - other
                # one polynomial in kappa per monomial in the other atoms
                others = diff.atoms() - {kappa_atom}
                for part in collect_coefficients(diff, others).values():
                    coeffs = kappa_poly_coefficients(part)
                    if any(coeffs):
                        obstructions.append(coeffs)
    return obstructions


def _orders_for(m: int, b: int, c: int) -> tuple[int, ...]:
    orders = [0] * (m + 2)
    orders[1 + b] += 1
    orders[1 + c] += 1
    return tuple(orders)


def _kappa_obstructions_single() -> list[list[Fraction]]:
    field, kappa_atom, (u_atom,) = _kappa_ansatz(1)
    poly = determining_polynomials(field)[0]
    k = field.tier
    ux = JetCoord(k, 1, nx=1)
    coeffs = collect_coefficients(poly, [ux])
    eta_sym = OpaqueSymbol("eta1", (T_ATOM, X_ATOM, u_atom))
    quad = coeffs.get(Expr.from_atom(ux) ** 2, ZERO)
    eta_uu = _solve_linear_atom(quad, OpaqueDeriv(eta_sym, (0, 0, 2)))

    # integrate eta_uu twice in u_1 (polynomial quadrature), with fresh
    # integration "constants" depending on (t, x)
    u = Expr.from_atom(u_atom)
    eta = _integrate_poly(_integrate_poly(eta_uu, u_atom), u_atom)
    eta = eta + OpaqueSymbol("c0", (T_ATOM, X_ATOM)).expr() * u \
        + OpaqueSymbol("e0", (T_ATOM, X_ATOM)).expr()
    solved_field = VectorField(1, ONE, field.xi, (eta,), name="kappa-solved")
    poly2 = determining_polynomials(solved_field)[0]

    obstructions = []
    for mono, coeff in collect_coefficients(poly2, [u_atom, ux]).items():
        try:
            coeffs = kappa_poly_coefficients(coeff)
        except ExtractionError:
            continue
        if any(coeffs):
            obstructions.append(coeffs)
    if not obstructions:
        raise ExtractionError("m=1: no pure kappa coefficient in the reduced polynomial")
    return obstructions


def _integrate_poly(e: Expr, atom: JetCoord) -> Expr:
    """Antiderivative in a jet coordinate of a polynomial expression."""
    for a in e.atoms():
        if isinstance(a, OpaqueDeriv) and atom in a.symbol.args:
            raise NonPolynomialError(f"cannot integrate {a.render()} in {atom.render()}")
    u = Expr.from_atom(atom)
    out = ZERO
    for k, c in powers_of(e, atom).items():
        out = out + c * u ** (k + 1) / (k + 1)
    return out
