"""Exact symbolic kernel for computations on jet space.

An :class:`Expr` is a multivariate polynomial with rational coefficients
over a set of *atoms*: independent variables (:class:`Var`), jet
coordinates (:class:`JetCoord`), partial derivatives of opaque function
symbols (:class:`OpaqueDeriv`), and applications of a small set of
elementary functions (:class:`FuncApp`).  Expressions are canonical by
construction -- sums of monomials with like terms merged and a fixed
total order on atoms -- so structural equality is plain ``==`` and
canonically zero means "the term dictionary is empty".

All arithmetic is exact (``fractions.Fraction``); floats are rejected.
Expressions are immutable and hashable, hence safe to share between
threads.

The tier label of a jet coordinate (the superscript used when several
families of dependent variables coexist) participates in atom identity:
``u[1,1]`` and ``u[2,1]`` are distinct coordinates.  Cross-tier
comparisons are done by explicit relabeling (:func:`relabel_tiers`),
never implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
from typing import Callable, Iterable, Iterator, Mapping, Union


class SymbolicError(Exception):
    """Base class for kernel errors."""


class NonPolynomialError(SymbolicError):
    """An operation required polynomial dependence on a coordinate."""


class SubstitutionCycleError(SymbolicError):
    """Substitution rules depend on each other in a cycle; raised when the
    rules are closed at construction."""


# ---------------------------------------------------------------------------
# atoms


class Atom:
    """Base class of the atomic quantities an Expr is a polynomial in."""

    __slots__ = ()

    def sort_key(self):
        raise NotImplementedError

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Atom):
    """An independent variable (t or x)."""

    name: str

    def sort_key(self):
        return (0, self.name)

    def render(self) -> str:
        return self.name


T_ATOM = Var("t")
X_ATOM = Var("x")


@dataclass(frozen=True)
class JetCoord(Atom):
    """Jet coordinate: dependent variable ``alpha`` of family ``tier``
    differentiated ``nt`` times in t and ``nx`` times in x.

    ``(nt, nx) == (0, 0)`` is the undifferentiated variable.
    """

    tier: int
    alpha: int
    nt: int = 0
    nx: int = 0

    def __post_init__(self):
        if self.tier < 1 or self.alpha < 1:
            raise ValueError("tier and alpha are 1-based")
        if self.nt < 0 or self.nx < 0:
            raise ValueError("derivative counts must be nonnegative")

    def bumped(self, v: Var) -> "JetCoord":
        if v == T_ATOM:
            return JetCoord(self.tier, self.alpha, self.nt + 1, self.nx)
        if v == X_ATOM:
            return JetCoord(self.tier, self.alpha, self.nt, self.nx + 1)
        raise ValueError(f"unknown independent variable {v!r}")

    def sort_key(self):
        return (1, self.tier, self.alpha, self.nt, self.nx)

    def render(self) -> str:
        return f"u[{self.tier},{self.alpha}]" + "_t" * self.nt + "_x" * self.nx


@dataclass(frozen=True)
class OpaqueSymbol:
    """An undetermined function with a declared argument signature.

    Partial derivatives of an opaque symbol stay unevaluated atoms; total
    derivatives chain over the declared arguments.  A symbol with no
    arguments is an arbitrary constant.
    """

    name: str
    args: tuple[Atom, ...] = ()

    def __post_init__(self):
        if len(set(self.args)) != len(self.args):
            raise ValueError("opaque symbol arguments must be distinct")
        for a in self.args:
            if not isinstance(a, (Var, JetCoord)):
                raise ValueError("opaque arguments must be variables or jet coordinates")

    def expr(self) -> "Expr":
        return Expr.from_atom(OpaqueDeriv(self, (0,) * len(self.args)))

    def d(self, *wrt: Atom) -> "Expr":
        """Partial-derivative atom of this symbol, e.g. ``xi.d(x, u1)``."""
        orders = [0] * len(self.args)
        for a in wrt:
            orders[self.slot(a)] += 1
        return Expr.from_atom(OpaqueDeriv(self, tuple(orders)))

    def slot(self, a: Atom) -> int:
        try:
            return self.args.index(a)
        except ValueError:
            raise ValueError(f"{a.render()} is not an argument of {self.name}") from None


@dataclass(frozen=True)
class OpaqueDeriv(Atom):
    """Partial derivative of an opaque symbol; ``orders[i]`` counts
    derivatives with respect to argument slot ``i``."""

    symbol: OpaqueSymbol
    orders: tuple[int, ...]

    def __post_init__(self):
        if len(self.orders) != len(self.symbol.args):
            raise ValueError("order multi-index must match the argument signature")

    def bumped(self, slot: int) -> "OpaqueDeriv":
        orders = list(self.orders)
        orders[slot] += 1
        return OpaqueDeriv(self.symbol, tuple(orders))

    def sort_key(self):
        return (2, self.symbol.name, self.orders)

    def render(self) -> str:
        if not any(self.orders):
            return self.symbol.name
        slots = []
        for i, k in enumerate(self.orders):
            slots.extend([str(i + 1)] * k)
        return f"pd({self.symbol.name},{','.join(slots)})"


@dataclass(frozen=True)
class FuncApp(Atom):
    """Application of an elementary function to a polynomial argument."""

    fname: str
    arg: "Expr"

    def __post_init__(self):
        if self.fname not in _FUNC_DERIVATIVE:
            raise ValueError(f"unknown elementary function {self.fname!r}")

    def sort_key(self):
        return (3, self.fname, self.arg._canonical_key())

    def render(self) -> str:
        return f"{self.fname}({self.arg.render()})"


# ---------------------------------------------------------------------------
# expressions

Monomial = tuple  # tuple[tuple[Atom, int], ...], atoms sorted, exponents >= 1
Scalar = Union[int, Fraction]


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise TypeError("floats are not allowed inside symbolic expressions")
    raise TypeError(f"cannot interpret {v!r} as a rational number")


class Expr:
    """Canonical polynomial over atoms with Fraction coefficients."""

    __slots__ = ("_terms", "_key", "_hashval")

    def __init__(self, terms: dict):
        # internal -- use the factory helpers below
        self._terms = terms
        self._key = None
        self._hashval = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def _make(terms: dict) -> "Expr":
        return Expr({m: c for m, c in terms.items() if c != 0})

    @staticmethod
    def zero() -> "Expr":
        return ZERO

    @staticmethod
    def from_rational(v: Scalar) -> "Expr":
        c = _as_fraction(v)
        return Expr({(): c} if c else {})

    @staticmethod
    def from_atom(a: Atom) -> "Expr":
        return Expr({((a, 1),): Fraction(1)})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NonPolynomialError(f"{self} is not a rational constant")
        return self._terms.get((), Fraction(0))

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(sorted(self._terms.items(), key=lambda t: _monomial_sort_key(t[0])))

    def atoms(self) -> set:
        """Atoms occurring at the top level (not inside function arguments)."""
        out = set()
        for mon in self._terms:
            for a, _ in mon:
                out.add(a)
        return out

    def term_count(self) -> int:
        return len(self._terms)

    def _canonical_key(self):
        if self._key is None:
            items = []
            for mon, c in self._terms.items():
                mk = tuple((a.sort_key(), k) for a, k in mon)
                items.append((mk, c))
            items.sort()
            self._key = tuple(items)
        return self._key

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        other = as_expr(other)
        if not self._terms:
            return other
        if not other._terms:
            return self
        terms = dict(self._terms)
        for mon, c in other._terms.items():
            s = terms.get(mon, Fraction(0)) + c
            if s:
                terms[mon] = s
            else:
                terms.pop(mon, None)
        return Expr(terms)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = as_expr(other)
        if not self._terms or not other._terms:
            return ZERO
        terms: dict = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mon = _merge_monomials(m1, m2)
                s = terms.get(mon, Fraction(0)) + c1 * c2
                if s:
                    terms[mon] = s
                else:
                    terms.pop(mon, None)
        return Expr(terms)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        # the kernel is polynomial: division only by rational constants
        if isinstance(other, Expr):
            other = other.as_rational()
        c = _as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division by zero")
        return Expr({m: v / c for m, v in self._terms.items()})

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            raise ValueError("negative powers are not representable in the polynomial kernel")
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- equality / hashing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Expr):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == as_expr(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self._hashval is None:
            self._hashval = hash(self._canonical_key())
        return self._hashval

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mon, c in self.terms():
            body = "*".join(
                a.render() if k == 1 else f"{a.render()}^{k}" for a, k in mon
            )
            mag = abs(c)
            if not body:
                frag = str(mag)
            elif mag == 1:
                frag = body
            else:
                frag = f"{mag}*{body}"
            if not parts:
                parts.append(frag if c > 0 else f"-{frag}")
            else:
                parts.append(f" + {frag}" if c > 0 else f" - {frag}")
        return "".join(parts)

    __str__ = render
    __repr__ = render


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Expr.from_rational(v)


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    powers: dict = {}
    for a, k in m1:
        powers[a] = k
    for a, k in m2:
        powers[a] = powers.get(a, 0) + k
    return tuple(sorted(powers.items(), key=lambda p: p[0].sort_key()))


def _monomial_sort_key(mon: Monomial):
    # graded order: total degree first, then lexicographic on atom keys;
    # higher-degree terms render first
    deg = sum(k for _, k in mon)
    return (-deg, tuple((a.sort_key(), -k) for a, k in mon))


ZERO = Expr({})
ONE = Expr({(): Fraction(1)})


# convenience constructors -----------------------------------------------------


def rational(p: int, q: int = 1) -> Expr:
    return Expr.from_rational(Fraction(p, q))


def jet(tier: int, alpha: int, nt: int = 0, nx: int = 0) -> Expr:
    return Expr.from_atom(JetCoord(tier, alpha, nt, nx))


T = Expr.from_atom(T_ATOM)
X = Expr.from_atom(X_ATOM)


def _func(fname: str, arg) -> Expr:
    return Expr.from_atom(FuncApp(fname, as_expr(arg)))


def exp(arg) -> Expr:
    return _func("exp", arg)


def sin(arg) -> Expr:
    return _func("sin", arg)


def cos(arg) -> Expr:
    return _func("cos", arg)


def sinh(arg) -> Expr:
    return _func("sinh", arg)


def cosh(arg) -> Expr:
    return _func("cosh", arg)


def tanh(arg) -> Expr:
    return _func("tanh", arg)


_FUNC_DERIVATIVE: dict[str, Callable[[Expr], Expr]] = {
    "exp": lambda a: _func("exp", a),
    "sin": lambda a: _func("cos", a),
    "cos": lambda a: -_func("sin", a),
    "sinh": lambda a: _func("cosh", a),
    "cosh": lambda a: _func("sinh", a),
    "tanh": lambda a: ONE - _func("tanh", a) ** 2,
}

_FUNC_EVAL = {
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}


# ---------------------------------------------------------------------------
# differentiation


def _leibniz(e: Expr, atom_diff: Callable[[Atom], Expr]) -> Expr:
    out = ZERO
    for mon, c in e._terms.items():
        for i, (a, k) in enumerate(mon):
            da = atom_diff(a)
            if da.is_zero():
                continue
            rest = list(mon[:i]) + list(mon[i + 1:])
            if k > 1:
                rest.append((a, k - 1))
            rest.sort(key=lambda p: p[0].sort_key())
            out = out + Expr({tuple(rest): c * k}) * da
    return out


def _atom_total(a: Atom, v: Var) -> Expr:
    if isinstance(a, Var):
        return ONE if a == v else ZERO
    if isinstance(a, JetCoord):
        return Expr.from_atom(a.bumped(v))
    if isinstance(a, OpaqueDeriv):
        out = ZERO
        for slot, arg in enumerate(a.symbol.args):
            d_arg = _atom_total(arg, v)
            if not d_arg.is_zero():
                out = out + Expr.from_atom(a.bumped(slot)) * d_arg
        return out
    if isinstance(a, FuncApp):
        return _FUNC_DERIVATIVE[a.fname](a.arg) * total_derivative(a.arg, v)
    raise TypeError(f"unknown atom {a!r}")


def total_derivative(e: Expr, v) -> Expr:
    """Total derivative D/Dv on jet space: jet coordinates gain one
    derivative in ``v``, opaque symbols chain over their declared
    arguments."""
    if isinstance(v, str):
        v = Var(v)
    if not isinstance(v, Var):
        raise TypeError("differentiation variable must be t or x")
    return _leibniz(e, lambda a: _atom_total(a, v))


def _atom_partial(a: Atom, wrt: Atom) -> Expr:
    if a == wrt:
        return ONE
    if isinstance(a, OpaqueDeriv) and wrt in a.symbol.args:
        return Expr.from_atom(a.bumped(a.symbol.slot(wrt)))
    if isinstance(a, FuncApp):
        inner = partial_derivative(a.arg, wrt)
        if inner.is_zero():
            return ZERO
        return _FUNC_DERIVATIVE[a.fname](a.arg) * inner
    return ZERO


def partial_derivative(e: Expr, wrt: Atom) -> Expr:
    """Partial derivative treating all other atoms as independent; opaque
    symbols depend on their declared arguments."""
    return _leibniz(e, lambda a: _atom_partial(a, wrt))


# ---------------------------------------------------------------------------
# substitution


def contains_atom(e: Expr, atom: Atom) -> bool:
    for mon in e._terms:
        for a, _ in mon:
            if a == atom:
                return True
            if isinstance(a, FuncApp) and contains_atom(a.arg, atom):
                return True
    return False


class SubstitutionMap:
    """Rewrite rules atom -> Expr, closed against each other at
    construction so that :meth:`apply` is a single pass.

    A rule depends on every left-hand atom in its right-hand side,
    including atoms inside function arguments.  Construction visits the
    rules in dependency order and substitutes each rule's closed
    dependencies into it, so no right-hand side keeps a left-hand atom.
    A rule whose right-hand side contains its own atom raises
    ``ValueError``; rules that depend on each other in a cycle raise
    :class:`SubstitutionCycleError`.  Independent variables and function
    applications cannot be rewritten.
    """

    def __init__(self, rules):
        if isinstance(rules, Mapping):
            rules = rules.items()
        self.rules: dict[Atom, Expr] = {}
        deps: dict[Atom, dict[Atom, None]] = {}
        for atom, rhs in rules:
            if isinstance(atom, Expr):
                atom = _single_atom(atom)
            if isinstance(atom, (Var, FuncApp)):
                raise ValueError(f"{atom.render()} cannot be substituted")
            rhs = as_expr(rhs)
            deps[atom] = _nested_atoms(rhs)
            if atom in deps[atom]:
                raise ValueError(f"rule for {atom.render()} maps to an expression containing it")
            self.rules[atom] = rhs

        closed: dict[Atom, bool] = {}  # False while a rule's dependencies are being closed

        def close(atom: Atom):
            state = closed.get(atom)
            if state is False:
                raise SubstitutionCycleError(f"substitution rules are cyclic through {atom.render()}")
            if state:
                return
            closed[atom] = False
            pending = [a for a in deps[atom] if a in self.rules]
            for a in pending:
                close(a)
            if pending:
                self.rules[atom] = self._apply_once(self.rules[atom])
            closed[atom] = True

        for atom in self.rules:
            close(atom)

    def __len__(self) -> int:
        return len(self.rules)

    def apply(self, e: Expr) -> Expr:
        """Rewrite every left-hand atom of ``e``, in one pass."""
        return self._apply_once(e)

    def _apply_once(self, e: Expr) -> Expr:
        out = ZERO
        for mon, c in e._terms.items():
            factor = Expr.from_rational(c)
            for a, k in mon:
                rhs = self.rules.get(a)
                if rhs is None and isinstance(a, FuncApp):
                    arg = self._apply_once(a.arg)
                    if arg != a.arg:
                        rhs = Expr.from_atom(FuncApp(a.fname, arg))
                if rhs is None:
                    factor = factor * Expr({((a, k),): Fraction(1)})
                else:
                    factor = factor * rhs ** k
            out = out + factor
        return out


def _nested_atoms(e: Expr) -> dict[Atom, None]:
    """Atoms of ``e`` in order of first occurrence, including those
    inside function arguments (the atoms :func:`contains_atom` sees)."""
    out: dict[Atom, None] = {}
    for mon in e._terms:
        for a, _ in mon:
            out[a] = None
            if isinstance(a, FuncApp):
                out.update(_nested_atoms(a.arg))
    return out


def _single_atom(e: Expr) -> Atom:
    if len(e._terms) == 1:
        (mon, c), = e._terms.items()
        if c == 1 and len(mon) == 1 and mon[0][1] == 1:
            return mon[0][0]
    raise ValueError(f"{e} is not a single atom")


def substitute(e: Expr, rules) -> Expr:
    """Apply ``rules`` (a :class:`SubstitutionMap` or anything its
    constructor accepts) to ``e``."""
    if not isinstance(rules, SubstitutionMap):
        rules = SubstitutionMap(rules)
    return rules.apply(e)


# ---------------------------------------------------------------------------
# coefficient collection


def collect_coefficients(e: Expr, variables: Iterable) -> dict[Expr, Expr]:
    """Decompose ``e`` as a polynomial in the given jet coordinates.

    Returns a mapping {monomial -> coefficient} whose sum of products
    reconstructs ``e`` exactly; the constant monomial is the key ``1``.
    Raises :class:`NonPolynomialError` if a collection variable occurs
    inside a function argument or an opaque-symbol signature.
    """
    vset = set()
    for v in variables:
        vset.add(_single_atom(v) if isinstance(v, Expr) else v)
    out: dict[Expr, Expr] = {}
    for mon, c in e._terms.items():
        var_part = []
        coeff_part = []
        for a, k in mon:
            if a in vset:
                var_part.append((a, k))
                continue
            if isinstance(a, FuncApp) and any(contains_atom(a.arg, v) for v in vset):
                raise NonPolynomialError(
                    f"non-polynomial dependence on a collection variable inside {a.render()}"
                )
            if isinstance(a, OpaqueDeriv) and any(v in a.symbol.args for v in vset):
                raise NonPolynomialError(
                    f"{a.symbol.name} depends non-polynomially on a collection variable"
                )
            coeff_part.append((a, k))
        key = Expr({tuple(var_part): Fraction(1)})
        add = Expr({tuple(coeff_part): c})
        out[key] = out.get(key, ZERO) + add
    return {k: v for k, v in out.items() if not v.is_zero()}


# ---------------------------------------------------------------------------
# tier relabeling and numeric evaluation


def relabel_tiers(e: Expr, mapping: Mapping[int, int]) -> Expr:
    """Rebuild ``e`` with jet-coordinate tiers renamed via ``mapping``."""

    def relabel_atom(a: Atom) -> Atom:
        if isinstance(a, JetCoord) and a.tier in mapping:
            return JetCoord(mapping[a.tier], a.alpha, a.nt, a.nx)
        if isinstance(a, FuncApp):
            return FuncApp(a.fname, relabel_tiers(a.arg, mapping))
        if isinstance(a, OpaqueDeriv):
            args = tuple(relabel_atom(x) for x in a.symbol.args)
            if args != a.symbol.args:
                return OpaqueDeriv(OpaqueSymbol(a.symbol.name, args), a.orders)
        return a

    terms: dict = {}
    for mon, c in e._terms.items():
        new = tuple(sorted(((relabel_atom(a), k) for a, k in mon),
                           key=lambda p: p[0].sort_key()))
        terms[new] = terms.get(new, Fraction(0)) + c
    return Expr._make(terms)


def eval_expr(e: Expr, env: Mapping[Atom, float]) -> float:
    """Numeric (float64) evaluation; every atom must resolve through
    ``env`` or be an elementary function of resolvable atoms."""

    def atom_value(a: Atom) -> float:
        if a in env:
            return float(env[a])
        if isinstance(a, FuncApp):
            return _FUNC_EVAL[a.fname](eval_expr(a.arg, env))
        raise SymbolicError(f"no numeric value for atom {a.render()}")

    total = 0.0
    for mon, c in e._terms.items():
        val = float(c)
        for a, k in mon:
            val *= atom_value(a) ** k
        total += val
    return total


def point_env(t: float, x: float) -> dict[Atom, float]:
    return {T_ATOM: t, X_ATOM: x}
