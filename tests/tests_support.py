"""Shared helpers for the test suite."""

import dataclasses
from fractions import Fraction

from burgers_hierarchy import prolong
from burgers_hierarchy.hierarchy import build_symmetry_field, components
from burgers_hierarchy.prolong import ProlongedField
from burgers_hierarchy.symcore import (
    Expr,
    FuncApp,
    JetCoord,
    OpaqueSymbol,
    SymbolicError,
    T,
    T_ATOM,
    X,
    X_ATOM,
    ZERO,
    _FUNC_EVAL,
    _float_form,
    exp,
    jet,
    partial_derivative,
    powers_of,
    rational,
    sinh,
    total_derivative,
)

XI = OpaqueSymbol("xi", (T_ATOM, X_ATOM, JetCoord(1, 1)))


def random_kernel_expr(rng, depth=1):
    """Random canonical expression covering every atom kind."""
    atoms = [
        T,
        X,
        jet(1, 1),
        jet(1, 1, nx=1),
        jet(1, 2, nt=1),
        jet(2, 1),
        XI.expr(),
        XI.d(X_ATOM),
        XI.d(JetCoord(1, 1), JetCoord(1, 1)),
    ]
    e = ZERO
    for _ in range(rng.randint(1, 4)):
        term = rational(rng.randint(-5, 5), rng.randint(1, 3))
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(atoms)
            term = term * a ** rng.randint(1, 2)
        e = e + term
    if depth > 0 and rng.random() < 0.4:
        inner = random_kernel_expr(rng, depth - 1)
        e = e + rng.choice([exp, sinh])(inner)
    return e


def reference_apply(field, e):
    """tau*d_t e + xi*d_x e + sum eta_a*d_{u_a} e: the first-order action of
    a vector field as a sum of partial derivatives, one pass per
    coordinate."""
    k = field.tier
    out = field.tau * partial_derivative(e, T_ATOM) + field.xi * partial_derivative(e, X_ATOM)
    for a, eta in enumerate(field.etas, start=1):
        out = out + eta * partial_derivative(e, JetCoord(k, a))
    return out


def reference_prolonged_apply(pf, e):
    """The second prolongation's action as the field's reference action
    plus eta^t, eta^x and eta^xx times the partials by u_a,t, u_a,x and
    u_a,xx."""
    k = pf.base.tier
    out = reference_apply(pf.base, e)
    for a in range(1, pf.base.m + 1):
        for coeff, coord in ((pf.eta_t[a - 1], JetCoord(k, a, nt=1)),
                             (pf.eta_x[a - 1], JetCoord(k, a, nx=1)),
                             (pf.eta_xx[a - 1], JetCoord(k, a, nx=2))):
            out = out + coeff * partial_derivative(e, coord)
    return out


def summed(terms):
    """The sum of (monomial, coefficient) terms, added one by one in the
    given order, so the result holds its terms in that insertion order."""
    out = ZERO
    for mon, c in terms:
        term = Expr.from_rational(c)
        for a, k in mon:
            term = term * Expr.from_atom(a) ** k
        out = out + term
    return out


def reordered(e, order=reversed):
    """``e`` built again from ``order(e.terms())``: the same polynomial
    with another term insertion order."""
    return summed(order(list(e.terms())))


def reference_eval_expr(e, env):
    """Per-occurrence oracle for ``eval_expr``: every occurrence of an atom
    in every term looks the atom up in env again (a function application
    absent from env is evaluated again), and each term of the float layout
    is c * v_a ** k_a * v_b ** k_b ..., added to 0.0 in the term order of
    ``Expr.terms``."""

    def atom_value(a):
        if a in env:
            return float(env[a])
        if isinstance(a, FuncApp):
            return _FUNC_EVAL[a.fname](reference_eval_expr(a.arg, env))
        raise SymbolicError(f"no numeric value for atom {a.render()}")

    atoms, terms = _float_form(e)
    total = 0.0
    for val, factors in terms:
        for i, k in factors:
            val *= atom_value(atoms[i]) ** k
        total += val
    return total


def prolong2_characteristic(field):
    """Characteristic-form prolongation, an independent path for
    cross-checking the direct recursion in ``prolong.prolong2``: with
    W_a = eta_a - tau*u_a,t - xi*u_a,x, the coefficient attached to
    u_a,J is D_J(W_a) + tau*u_a,Jt + xi*u_a,Jx.  It builds third-order
    terms that cancel."""

    def dt(e):
        return total_derivative(e, T_ATOM)

    def dx(e):
        return total_derivative(e, X_ATOM)

    k, tau, xi = field.tier, field.tau, field.xi
    eta_t, eta_x, eta_xx = [], [], []
    for a, eta in enumerate(field.etas, start=1):
        w = eta - tau * jet(k, a, nt=1) - xi * jet(k, a, nx=1)
        dxw = dx(w)
        eta_t.append(dt(w) + tau * jet(k, a, nt=2) + xi * jet(k, a, 1, 1))
        eta_x.append(dxw + tau * jet(k, a, 1, 1) + xi * jet(k, a, nx=2))
        eta_xx.append(dx(dxw) + tau * jet(k, a, 1, 2) + xi * jet(k, a, nx=3))
    return ProlongedField(field, tuple(eta_t), tuple(eta_x), tuple(eta_xx))


def reference_rref(rows, ncols):
    """Dense exact Gauss-Jordan reduction of ``rows`` (lists of Fraction),
    pivoting in the first ``ncols`` columns only: the reference for the
    sparse ``linalg.rref``.  Returns the reduced rows and the pivot
    columns; pivot r sits in row r, and rows from len(pivots) on are zero
    in the first ncols."""
    aug = [row[:] for row in rows]
    pivots = []
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


def densify(rows, width):
    """Sparse {column: entry} rows as dense lists of Fraction."""
    return [[row.get(c, Fraction(0)) for c in range(width)] for row in rows]


def kappa_coefficients(e):
    """Coefficients [c0, c1, ...] of a nonzero polynomial in kappa alone."""
    parts = powers_of(e, prolong.KAPPA_ATOM)
    return [parts.get(i, ZERO).as_rational() for i in range(max(parts) + 1)]


def sabotage_symmetry_field(monkeypatch, extra):
    """Make ``verify_theorem`` use the symmetry field with ``extra(u, w)``
    added to eta_1, where u and w read the components of the system and
    of its follow-up."""
    def build(m):
        field = build_symmetry_field(m)
        eta1 = field.etas[0] + extra(components(m), components(m + 2))
        return dataclasses.replace(field, etas=(eta1, *field.etas[1:]))

    monkeypatch.setattr(prolong, "build_symmetry_field", build)
