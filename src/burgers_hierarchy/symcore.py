"""Exact symbolic kernel for computations on jet space.

An :class:`Expr` is a multivariate polynomial with rational coefficients
over a set of *atoms*: independent variables (:class:`Var`), jet
coordinates (:class:`JetCoord`), partial derivatives of opaque function
symbols (:class:`OpaqueDeriv`), and applications of a small set of
elementary functions (:class:`FuncApp`).  Expressions are canonical by
construction -- sums of monomials with like terms merged -- so
structural equality is plain ``==`` and canonically zero means "the term
dictionary is empty".  Rendering, hashing and :meth:`Expr.terms` order
monomials by a fixed total order on atoms (:meth:`Atom.sort_key`).

Monomials are *packed*: each atom is interned once per process, in order
of first use, to an index that owns a fixed bit field of one Python
``int``, and the field holds the atom's exponent.  Multiplying two
monomials is one integer addition; differentiating by an atom subtracts
that atom's unit.  t and x are interned first and own 32-bit fields at
the low end; every other atom owns an 8-bit field.  The top bit of each
field is a guard: exponents stay below 2**31 for t and x and below 2**7
= 128 for other atoms.  Every result is checked once against the guard
bits, and an exponent past its field raises ``OverflowError`` instead of
wrapping into the neighbouring field.  Fields never carry, so comparing
packed monomials as integers is a monomial order.  No result depends on
the order of a term dict: :func:`eval_expr` sums the terms in the order
of :meth:`Expr.terms`, from a float layout cached on the expression
(:func:`_float_form`), so a float depends only on the polynomial.  No
other module reads the packed format: they go through
:func:`collect_coefficients`, :func:`powers_of`,
:func:`coefficient_rows` and :func:`exact_divide`.

Differentiation is one derivation, given by the images of atoms and
extended by the Leibniz rule in one pass (:func:`derivation`).  Total and
partial derivatives and the action of a (prolonged) vector field differ
only in the images they give.

All arithmetic is exact and floats are rejected.  An expression holds
``int`` numerators over one positive ``int`` denominator in lowest terms
(``gcd(den, *numerators) == 1``), so the hot loops do ``int`` arithmetic
only and each value has one representation; each result is reduced once,
by one ``math.gcd`` call (none when the denominator is 1).  A
``fractions.Fraction`` is built only where a coefficient leaves the
kernel: :meth:`Expr.terms`, :meth:`Expr.as_rational`,
:func:`coefficient_rows` (sparse rows, one Fraction per nonzero
coefficient and none for a zero), rendering and the canonical key.
Expressions are immutable and hashable, hence safe to share between
threads; the atom registry only grows, under a lock.

The tier label of a jet coordinate (the superscript used when several
families of dependent variables coexist) participates in atom identity:
``u[1,1]`` and ``u[2,1]`` are distinct coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
import math
from operator import or_
import threading
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class SymbolicError(Exception):
    """Base class for kernel errors."""


class NonPolynomialError(SymbolicError):
    """An operation required polynomial dependence on a coordinate."""


class InexactDivisionError(ArithmeticError):
    """A polynomial has no polynomial quotient by another."""


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
            if a not in self.args:
                raise ValueError(f"{a.render()} is not an argument of {self.name}")
            orders[self.args.index(a)] += 1
        return Expr.from_atom(OpaqueDeriv(self, tuple(orders)))


@dataclass(frozen=True)
class OpaqueDeriv(Atom):
    """Partial derivative of an opaque symbol; ``orders[i]`` counts
    derivatives with respect to argument slot ``i``.  Symbols of one name
    are ordered by their arguments, but render alike."""

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
        return (2, self.symbol.name, self.orders, tuple(a.sort_key() for a in self.symbol.args))

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
# packed monomials

Monomial = tuple  # decoded: tuple[tuple[Atom, int], ...], atoms sorted, exponents >= 1

_WIDE = 32    # field width of t and x, guard bit included
_NARROW = 8   # field width of every other atom
_LOW = 2 * _WIDE  # bits held by the fields of t and x

_ATOMS: list[Atom] = []      # atom of each index
_INDEX: dict[Atom, int] = {}
_SHIFT: list[int] = []       # lowest bit of each atom's field
_FIELD: list[int] = []       # mask of each atom's field
_KEYS: list = []             # sort_key() of each atom
_GUARD = 0                   # top bit of every field
_FUNC_MASK = 0               # fields of FuncApp atoms
_LOCK = threading.Lock()


def _intern(a: Atom) -> int:
    i = _INDEX.get(a)
    if i is None:
        with _LOCK:
            i = _INDEX.get(a)
            if i is None:
                i = _register(a)
    return i


def _register(a: Atom) -> int:
    global _GUARD, _FUNC_MASK
    i = len(_ATOMS)
    if i < 2:
        width, shift = _WIDE, _WIDE * i
    else:
        width, shift = _NARROW, _LOW + _NARROW * (i - 2)
    field = ((1 << width) - 1) << shift
    _KEYS.append(a.sort_key())
    _SHIFT.append(shift)
    _FIELD.append(field)
    _ATOMS.append(a)
    _GUARD |= 1 << (shift + width - 1)
    if isinstance(a, FuncApp):
        _FUNC_MASK |= field
    _INDEX[a] = i  # last, so an index found is complete
    return i


for _a in (T_ATOM, X_ATOM):  # the wide fields sit at the two lowest positions
    _intern(_a)


def _field_at(bit: int) -> int:
    """Index of the atom whose field holds ``bit``."""
    return bit // _WIDE if bit < _LOW else (bit - _LOW) // _NARROW + 2


def _fields(p: int) -> list[int]:
    """Indices of the atoms with a nonzero field in ``p``, lowest field first."""
    out = []
    while p:
        i = _field_at((p & -p).bit_length() - 1)
        out.append(i)
        p &= ~_FIELD[i]
    return out


def _exponent(p: int, i: int) -> int:
    return (p & _FIELD[i]) >> _SHIFT[i]


def _monomial(p: int) -> Monomial:
    """Decode a packed monomial into (atom, exponent) pairs in atom order."""
    idx = _fields(p)
    idx.sort(key=_KEYS.__getitem__)
    return tuple((_ATOMS[i], _exponent(p, i)) for i in idx)


def _overflow(i: int) -> OverflowError:
    width = _WIDE if i < 2 else _NARROW
    return OverflowError(f"exponent of {_ATOMS[i].render()} exceeds {(1 << (width - 1)) - 1}, "
                         f"the limit of its {width}-bit field")


def _checked(terms: dict) -> dict:
    """``terms``, once no exponent has reached the guard bit of its field."""
    over = reduce(or_, terms, 0) & _GUARD
    if over:
        raise _overflow(_field_at((over & -over).bit_length() - 1))
    return terms


# ---------------------------------------------------------------------------
# coefficients


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        raise TypeError("floats are not allowed inside symbolic expressions")
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two numerator dicts; the denominators multiply.  A term
    that cancels is dropped at once."""
    out = {}
    get = out.get
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            p = p1 + p2
            s = get(p, 0) + c1 * c2
            if s:
                out[p] = s
            else:
                del out[p]
    return _checked(out)


def _add_into(out: dict, terms: dict, f: int):
    """out += f * terms; a term that cancels is dropped at once."""
    get = out.get
    for p, c in terms.items():
        s = get(p, 0) + c * f
        if s:
            out[p] = s
        else:
            del out[p]


def _rescale(terms: dict, f: int):
    """Multiply every numerator in ``terms`` by ``f``, in place."""
    for p in terms:
        terms[p] *= f


def _reduced(terms: dict, den: int) -> "Expr":
    """The Expr with numerators ``terms`` over ``den`` > 0, in lowest terms."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            for p in terms:
                terms[p] //= g
    return Expr(terms, den)


# ---------------------------------------------------------------------------
# expressions


class Expr:
    """Canonical polynomial over atoms: ``_terms`` maps each packed
    monomial to a nonzero ``int`` numerator over the one denominator
    ``_den`` > 0, with ``gcd(_den, *numerators) == 1``.  So ``_den == 1``
    when every coefficient is integral, zero is ``({}, 1)``, x/2 is
    ``({x: 1}, 2)``, and equal values have equal ``_terms`` and ``_den``."""

    __slots__ = ("_terms", "_den", "_key", "_hashval", "_floats")

    def __init__(self, terms: dict, den: int = 1):
        # internal -- use the factory helpers below; (terms, den) must
        # already be in lowest terms (see _reduced)
        self._terms = terms
        self._den = den
        self._key = None
        self._hashval = None
        self._floats = None

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_rational(v) -> "Expr":
        if type(v) is int:
            return Expr({0: v} if v else {})
        c = _as_fraction(v)
        return Expr({0: c.numerator} if c else {}, c.denominator)

    @staticmethod
    def from_atom(a: Atom) -> "Expr":
        return Expr({1 << _SHIFT[_intern(a)]: 1})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NonPolynomialError(f"{self} is not a rational constant")
        return Fraction(self._terms.get(0, 0), self._den)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        den = self._den
        return ((mon, Fraction(c, den)) for mon, c in _sorted_terms(self))

    def atoms(self) -> set:
        """Atoms occurring at the top level (not inside function arguments)."""
        return {_ATOMS[i] for i in _fields(reduce(or_, self._terms, 0))}

    def term_count(self) -> int:
        return len(self._terms)

    def _canonical_key(self):
        # coefficients by rational value: FuncApp.sort_key embeds this key
        if self._key is None:
            den = self._den
            items = []
            for p, c in self._terms.items():
                idx = _fields(p)
                idx.sort(key=_KEYS.__getitem__)
                items.append((tuple((_KEYS[i], _exponent(p, i)) for i in idx),
                              c if den == 1 else Fraction(c, den)))
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
        den = math.lcm(self._den, other._den)
        f = den // self._den
        terms = dict(self._terms) if f == 1 else {p: c * f for p, c in self._terms.items()}
        _add_into(terms, other._terms, den // other._den)
        return _reduced(terms, den)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = as_expr(other)
        if not self._terms or not other._terms:
            return ZERO
        return _reduced(_mul_terms(self._terms, other._terms), self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        # the kernel is polynomial: division only by rational constants
        if isinstance(other, Expr):
            other = other.as_rational()
        c = _as_fraction(other)
        if c == 0:
            raise ZeroDivisionError("division by zero")
        n, d = c.numerator, c.denominator
        if n < 0:
            n, d = -n, -d
        return _reduced({m: v * d for m, v in self._terms.items()}, self._den * n)

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
            k >>= 1
            if k:
                base = base * base
        return out

    # -- equality / hashing ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = as_expr(other)
        elif not isinstance(other, Expr):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

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


def _monomial_sort_key(mon: Monomial):
    # graded order: total degree first, then lexicographic on atom keys;
    # higher-degree terms render first
    deg = sum(k for _, k in mon)
    return (-deg, tuple((a.sort_key(), -k) for a, k in mon))


def _sorted_terms(e: Expr) -> list[tuple[Monomial, int]]:
    """(decoded monomial, numerator) per term of ``e``, in term order: the
    graded order of :func:`_monomial_sort_key`, which rendering shows."""
    return sorted(((_monomial(p), c) for p, c in e._terms.items()),
                  key=lambda t: _monomial_sort_key(t[0]))


ZERO = Expr({})
ONE = Expr({0: 1})


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


def derivation(e: Expr, image: Callable[[Atom], Expr | None]) -> Expr:
    """The derivation sending each atom ``a`` to ``image(a)`` unless that is
    None; then an opaque symbol chains over its declared arguments, a
    function application over its argument, and t, x and jet coordinates
    go to 0.  One pass: over monomials and their atoms, the monomial with
    one power of the atom taken off times the atom's image."""
    terms = e._terms
    diffs: dict[int, Expr] = {}  # atom index -> its nonzero image
    seen = 0  # fields of the atoms whose image is known
    for p in terms:  # images in order of first occurrence
        new = p & ~seen
        if new:
            for i in _fields(new):
                d = _atom_derivative(_ATOMS[i], image)
                if d._terms:
                    diffs[i] = d
                seen |= _FIELD[i]
    if not diffs:
        return ZERO
    # each image's numerators over one common denominator, once
    den = math.lcm(*(d._den for d in diffs.values()))
    images = {}
    live = 0  # fields of the atoms with a nonzero image
    for i, d in diffs.items():
        f = den // d._den
        images[i] = d._terms.items() if f == 1 else [(q, c * f) for q, c in d._terms.items()]
        live |= _FIELD[i]
    out: dict = {}
    get = out.get
    for p, c in terms.items():
        hit = p & live
        if not hit:
            continue
        for i in _fields(hit):
            base = p - (1 << _SHIFT[i])
            ck = c * _exponent(p, i)
            for q, d in images[i]:
                r = base + q
                s = get(r, 0) + ck * d
                if s:
                    out[r] = s
                else:
                    del out[r]
    return _reduced(_checked(out), e._den * den)


def _atom_derivative(a: Atom, image: Callable[[Atom], Expr | None]) -> Expr:
    d = image(a)
    if d is not None:
        return d
    if isinstance(a, OpaqueDeriv):
        out = ZERO
        for slot, arg in enumerate(a.symbol.args):
            d_arg = _atom_derivative(arg, image)
            if d_arg._terms:
                out = out + Expr.from_atom(a.bumped(slot)) * d_arg
        return out
    if isinstance(a, FuncApp):
        inner = derivation(a.arg, image)
        return _FUNC_DERIVATIVE[a.fname](a.arg) * inner if inner._terms else ZERO
    return ZERO


def total_derivative(e: Expr, v) -> Expr:
    """Total derivative D/Dv on jet space: jet coordinates gain one
    derivative in ``v``, opaque symbols chain over their declared
    arguments."""
    if isinstance(v, str):
        v = Var(v)
    if not isinstance(v, Var):
        raise TypeError("differentiation variable must be t or x")
    return derivation(e, lambda a: ONE if a == v else
                      Expr.from_atom(a.bumped(v)) if isinstance(a, JetCoord) else None)


def partial_derivative(e: Expr, wrt: Atom) -> Expr:
    """Partial derivative treating all other atoms as independent; opaque
    symbols depend on their declared arguments."""
    return derivation(e, lambda a: ONE if a == wrt else None)


# ---------------------------------------------------------------------------
# substitution


def contains_atom(e: Expr, atom: Atom) -> bool:
    present = reduce(or_, e._terms, 0)
    i = _INDEX.get(atom)
    if i is not None and present & _FIELD[i]:
        return True
    return any(contains_atom(_ATOMS[j].arg, atom) for j in _fields(present & _FUNC_MASK))


class SubstitutionMap:
    """Independent rewrite rules atom -> Expr, applied in one pass.

    No right-hand side may hold a left-hand atom, including atoms inside
    function arguments; such a rule set (a rule that uses itself,
    another rule's atom, or a cycle) raises ``ValueError``.  So one pass
    rewrites every left-hand atom, and applying the rules again changes
    nothing.  Independent variables and function applications cannot be
    rewritten.
    """

    def __init__(self, rules):
        if isinstance(rules, Mapping):
            rules = rules.items()
        self.rules: dict[Atom, Expr] = {}
        self._mask = 0  # fields of the left-hand atoms
        for atom, rhs in rules:
            if isinstance(atom, Expr):
                atom = _single_atom(atom)
            if isinstance(atom, (Var, FuncApp)):
                raise ValueError(f"{atom.render()} cannot be substituted")
            self.rules[atom] = as_expr(rhs)
            self._mask |= _FIELD[_intern(atom)]
        for atom, rhs in self.rules.items():
            used = next((a for a in _nested_atoms(rhs) if a in self.rules), None)
            if used is not None:
                raise ValueError(f"rule for {atom.render()} maps to an expression containing "
                                 f"the left-hand atom {used.render()}")

    def apply(self, e: Expr) -> Expr:
        """Rewrite every left-hand atom of ``e``, in one pass."""
        return self._apply_once(e)

    def _replacement(self, i: int) -> Expr | None:
        """What atom ``i`` becomes, or None when it stays."""
        a = _ATOMS[i]
        rhs = self.rules.get(a)
        if rhs is None and isinstance(a, FuncApp):
            arg = self._apply_once(a.arg)
            if arg != a.arg:
                rhs = Expr.from_atom(FuncApp(a.fname, arg))
        return rhs

    def _apply_once(self, e: Expr) -> Expr:
        # each monomial becomes its kept atoms times the replaced atoms'
        # powers, added into one dict of numerators over e's denominator
        # times den
        out: dict = {}
        get = out.get
        den = 1
        mask = self._mask | _FUNC_MASK
        for p, c in e._terms.items():
            subs = [(i, rhs) for i in _fields(p & mask) if (rhs := self._replacement(i)) is not None]
            if not subs:
                s = get(p, 0) + c * den
                if s:
                    out[p] = s
                else:
                    del out[p]
                continue
            rest = p
            for i, _ in subs:
                rest &= ~_FIELD[i]
            prod, prod_den = {rest: c}, 1
            for i, rhs in subs:
                k = _exponent(p, i)
                power = rhs if k == 1 else rhs ** k
                prod = _mul_terms(prod, power._terms)
                prod_den *= power._den
            if den % prod_den:
                f = prod_den // math.gcd(den, prod_den)
                _rescale(out, f)
                den *= f
            _add_into(out, prod, den // prod_den)
        return _reduced(out, e._den * den)


def _nested_atoms(e: Expr) -> dict[Atom, None]:
    """Atoms of ``e`` in order of first occurrence, including those
    inside function arguments (the atoms :func:`contains_atom` sees)."""
    out: dict[Atom, None] = {}
    for p in e._terms:
        for a, _ in _monomial(p):
            out[a] = None
            if isinstance(a, FuncApp):
                out.update(_nested_atoms(a.arg))
    return out


def _single_atom(e: Expr) -> Atom:
    if len(e._terms) == 1 and e._den == 1:
        (p, c), = e._terms.items()
        if c == 1 and p:
            i = _field_at(p.bit_length() - 1)
            if p == 1 << _SHIFT[i]:
                return _ATOMS[i]
    raise ValueError(f"{e} is not a single atom")


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
    vmask = 0
    for v in variables:
        a = _single_atom(v) if isinstance(v, Expr) else v
        vset.add(a)
        i = _INDEX.get(a)
        if i is not None:
            vmask |= _FIELD[i]
    groups: dict[int, dict] = {}  # variable part -> coefficient terms
    checked = 0  # fields of the coefficient atoms found independent of vset
    for p, c in e._terms.items():
        rest = p & ~vmask
        for i in sorted(_fields(rest & ~checked), key=_KEYS.__getitem__):
            a = _ATOMS[i]
            if isinstance(a, FuncApp) and any(contains_atom(a.arg, v) for v in vset):
                raise NonPolynomialError(
                    f"non-polynomial dependence on a collection variable inside {a.render()}"
                )
            if isinstance(a, OpaqueDeriv) and any(v in a.symbol.args for v in vset):
                raise NonPolynomialError(
                    f"{a.symbol.name} depends non-polynomially on a collection variable"
                )
            checked |= _FIELD[i]
        group = groups.setdefault(p & vmask, {})
        s = group.get(rest, 0) + c
        if s:
            group[rest] = s
        else:
            del group[rest]
    return {Expr({vp: 1}): _reduced(g, e._den) for vp, g in groups.items() if g}


def powers_of(e: Expr, atom: Atom) -> dict[int, Expr]:
    """Split ``e`` by powers of ``atom``: {k -> coefficient of atom**k},
    each coefficient free of ``atom`` at the top level."""
    i = _intern(atom)
    shift, field = _SHIFT[i], _FIELD[i]
    parts: dict[int, dict] = {}
    for p, c in e._terms.items():
        parts.setdefault((p & field) >> shift, {})[p & ~field] = c
    return {k: _reduced(terms, e._den) for k, terms in parts.items()}


def coefficient_rows(exprs: Sequence[Expr]) -> list[dict[int, Fraction]]:
    """The coefficients of ``exprs`` as sparse rows, one per monomial in
    any of them (in order of first occurrence): {k: the monomial's
    coefficient in exprs[k]}, for the k where that is nonzero."""
    rows: dict[int, dict[int, Fraction]] = {}
    for k, e in enumerate(exprs):
        for p, c in e._terms.items():
            rows.setdefault(p, {})[k] = Fraction(c, e._den)
    return list(rows.values())


# ---------------------------------------------------------------------------
# exact division


def _degrees(terms: dict) -> int:
    """The packed monomial of each atom's highest exponent in ``terms``."""
    return sum(max(p & _FIELD[i] for p in terms) for i in _fields(reduce(or_, terms, 0)))


def exact_divide(p: Expr, d: Expr) -> Expr:
    """Return q with p == q*d, raising :class:`InexactDivisionError` if no
    polynomial quotient exists.  Multivariate long division in the order
    of the packed monomials as integers (lexicographic, the latest-interned
    atom first): fields never carry, so that is a monomial order, and under
    any monomial order the division of a multiple of d returns the one q.
    How long a division takes depends on the order in which the atoms were
    interned; its result does not."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if d.is_rational():
        return p / d.as_rational()
    if p.is_zero():
        return ZERO

    # p/d is (P/D) * (d's denominator / p's) for the numerator polynomials
    # P and D.  P/D is found with the remainder's numerators over scale,
    # which grows only when a leading coefficient is not a multiple of D's.
    d_lead = max(d._terms)
    d_lc = d._terms[d_lead]
    # deg_a(q) = deg_a(p) - deg_a(d) for each atom a: within it, no remainder outgrows p
    bound = _degrees(p._terms) - _degrees(d._terms)

    quotient: dict = {}  # monomial -> (numerator, scale when it was found)
    rem = dict(p._terms)
    scale = 1
    while rem:
        p_lead = max(rem)
        # a field of q_mon below 0 or above bound's borrows from the next
        # field and so sets its own guard bit
        q_mon = p_lead - d_lead
        if q_mon < 0 or bound < q_mon or (q_mon | bound - q_mon) & _GUARD:
            raise InexactDivisionError("leading term not divisible")
        r = rem[p_lead]
        if r % d_lc:
            f = abs(d_lc) // math.gcd(r, d_lc)
            _rescale(rem, f)
            scale *= f
            r *= f
        b = r // d_lc
        # the leading monomial strictly decreases, so q_mon is new
        quotient[q_mon] = (b, scale)
        for mon, c in _mul_terms({q_mon: b}, d._terms).items():
            s = rem.get(mon, 0) - c
            if s:
                rem[mon] = s
            else:
                del rem[mon]
    return _reduced({m: b * (scale // at) * d._den for m, (b, at) in quotient.items()},
                    scale * p._den)


# ---------------------------------------------------------------------------
# numeric evaluation


def _float_form(e: Expr) -> tuple:
    """The float layout of ``e``, built once per expression: its distinct
    atoms in order of first occurrence, and its terms in term order (the
    order of :meth:`Expr.terms`), each a float coefficient with ((atom
    position, exponent), ...) in the atoms' ``sort_key`` order."""
    if e._floats is None:
        den = e._den
        position: dict = {}
        # int / int is correctly rounded, as float(Fraction) is
        terms = tuple((c / den, tuple((position.setdefault(a, len(position)), k) for a, k in mon))
                      for mon, c in _sorted_terms(e))
        e._floats = tuple(position), terms
    return e._floats


_MISSING = object()  # env.get's default: no value for the atom


def eval_expr(e: Expr, env: Mapping[Atom, float]) -> float:
    """Numeric (float64) evaluation; every atom must resolve through
    ``env`` or be an elementary function of resolvable atoms.  Each
    distinct atom is resolved once per call, in order of first occurrence,
    so a missing atom raises before any term is computed; then each term
    is ``c * v_a ** k_a * v_b ** k_b ...`` from left to right, added to
    0.0 in the term order of :meth:`Expr.terms`."""
    atoms, terms = e._floats or _float_form(e)  # the cached layout without a call
    values = []
    for a in atoms:
        v = env.get(a, _MISSING)  # one hash of the atom, where `in` and [] take two
        if v is not _MISSING:
            values.append(float(v))
        elif isinstance(a, FuncApp):
            values.append(_FUNC_EVAL[a.fname](eval_expr(a.arg, env)))
        else:
            raise SymbolicError(f"no numeric value for atom {a.render()}")
    total = 0.0
    for val, factors in terms:
        for i, k in factors:
            val *= values[i] ** k
        total += val
    return total
