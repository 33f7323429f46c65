"""Recursive-descent parser for the expression grammar.

Grammar (EBNF)::

    expr     = term , { ("+" | "-") , term } ;
    term     = factor , { ("*" | "/") , factor } ;
    factor   = ( "-" | "+" ) , factor | power ;
    power    = primary , [ ("^" | "**") , natural ] ;
    primary  = natural | jet | call | name | "(" , expr , ")" ;
    jet      = "u" , "[" , natural , "," , natural , "]" , { "_t" | "_x" } ;
    call     = "pd" , "(" , name , { "," , natural } , ")"
             | name , "(" , expr , { "," , expr } , ")" ;
    name     = letter , { letter | digit } ;
    natural  = digit , { digit } ;

Semantics:

* ``u[k,a]`` is the jet coordinate of tier ``k``, component ``a``; the
  suffix markers ``_t`` / ``_x`` add derivatives (``u[1,1]_t_x_x``).
* ``exp``, ``sin``, ``cos``, ``sinh``, ``cosh``, ``tanh`` are the known
  elementary functions.
* ``D(e, t)`` / ``D(e, x)`` applies the total derivative while parsing.
* ``pd(f, i, j, ...)`` is the partial derivative of a declared opaque
  symbol ``f`` with respect to its 1-based argument slots ``i, j, ...``.
* A bare name resolves against the declared opaque symbols; ``t`` and
  ``x`` are always known.
* Division is only defined for nonzero rational divisors, so ``2/4``
  normalizes to ``1/2`` and ``x/2`` is ``1/2*x``; ``1/x`` is an error.
* A digit is ASCII ``0``-``9``.  A character the grammar has no place for
  is an error where the parser reaches it, so the first error wins.

The parser is total on valid input and returns a canonical
:class:`~burgers_hierarchy.symcore.Expr`.
"""

from __future__ import annotations

from itertools import chain
import re
from typing import Mapping

from .symcore import (Expr, OpaqueDeriv, OpaqueSymbol, Var, jet, rational,
                      total_derivative, _FUNC_DERIVATIVE, _func)


class ParseError(ValueError):
    """Syntax error; carries the 0-based input position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ParseError):
    """An identifier that is neither built in nor declared."""


_TOKEN = re.compile(r"\s*(?:(?P<natural>[0-9]+)|(?P<name>[^\W\d_](?:[^\W\d_]|[0-9])*)"
                    r"|(?P<suffix>(?:_[tx])+)|(?P<op>\*\*|[-+*/^(),\[\]])|(?P<error>\S))")


class _Parser:
    def __init__(self, text: str, symbols: Mapping[str, OpaqueSymbol]):
        self.tokens = chain(((m["op"] or m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                             for m in _TOKEN.finditer(text)), [("end", "", len(text))])
        # the next token: its kind (an operator's kind is its text), text and start
        self.kind, self.text, self.pos = next(self.tokens)
        self.end = 0  # where the last consumed token ends
        self.symbols = symbols

    def take(self, kind: str) -> str | None:
        """Consume the next token and return its text if it is of ``kind``."""
        if self.kind != kind:
            return None
        text, self.end = self.text, self.pos + len(self.text)
        self.kind, self.text, self.pos = next(self.tokens)
        return text

    def expect(self, lit: str):
        if not self.take(lit):
            raise ParseError(f"expected {lit!r}", self.pos)

    def parse(self) -> Expr:
        e = self.expr()
        if self.kind != "end":
            raise ParseError("unexpected trailing input", self.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while op := self.take("+") or self.take("-"):
            e = e + self.term() if op == "+" else e - self.term()
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.take("*") or self.take("/"):
            pos = self.end
            rhs = self.factor()
            if op == "*":
                e = e * rhs
            elif not rhs.is_rational() or rhs.is_zero():
                raise ParseError("division only by nonzero rational constants", pos)
            else:
                e = e / rhs.as_rational()
        if self.kind == "**":
            # "**" after an exponent (x^2**3): "*", then a factor starting "*"
            raise ParseError("unexpected character '*'", self.pos + 1)
        return e

    def factor(self) -> Expr:
        if sign := self.take("-") or self.take("+"):
            return -self.factor() if sign == "-" else self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.take("^") or self.take("**"):
            return base ** self.natural()
        return base

    def natural(self) -> int:
        if (digits := self.take("natural")) is None:
            raise ParseError("expected a number", self.pos)
        return int(digits)

    def primary(self) -> Expr:
        if self.kind == "natural":
            return rational(self.natural())
        if self.take("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.kind == "name":
            return self.name_or_call()
        if self.kind == "end":
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected character {self.text[0]!r}", self.pos)

    def name_or_call(self) -> Expr:
        start = self.pos
        name = self.take("name")
        if name == "u" and self.kind == "[":
            return self.jet_tail(start)
        if not self.take("("):
            if name in ("t", "x"):
                return Expr.from_atom(Var(name))
            if name in self.symbols:
                return self.symbols[name].expr()
            raise UnknownSymbolError(f"unknown symbol {name!r}", start)
        if name == "pd":
            return self.partial_call()
        args = [self.expr()]
        while self.take(","):
            args.append(self.expr())
        self.expect(")")
        if name == "D":
            if len(args) != 2:
                raise ParseError("D takes an expression and a variable", start)
            for v in ("t", "x"):
                if args[1] == Expr.from_atom(Var(v)):
                    return total_derivative(args[0], v)
            raise ParseError("the second argument of D must be t or x", start)
        if name in _FUNC_DERIVATIVE:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", start)
            return _func(name, args[0])
        raise UnknownSymbolError(f"unknown function {name!r}", start)

    def jet_tail(self, start: int) -> Expr:
        self.expect("[")
        tier = self.natural()
        self.expect(",")
        alpha = self.natural()
        self.expect("]")
        if tier < 1 or alpha < 1:
            raise ParseError("jet indices are 1-based", start)
        # suffix markers count only directly after the "]"
        suffixes = (self.pos == self.end and self.take("suffix")) or ""
        return jet(tier, alpha, suffixes.count("t"), suffixes.count("x"))

    def partial_call(self) -> Expr:
        nstart = self.pos
        name = self.take("name") or ""
        if name not in self.symbols:
            raise UnknownSymbolError(f"unknown symbol {name!r} in pd()", nstart)
        sym = self.symbols[name]
        orders = [0] * len(sym.args)
        while self.take(","):
            slot = self.natural()
            if not 1 <= slot <= len(sym.args):
                raise ParseError(f"{name} has no argument slot {slot}", self.end)
            orders[slot - 1] += 1
        self.expect(")")
        return Expr.from_atom(OpaqueDeriv(sym, tuple(orders)))


def parse_expr(text: str, symbols: Mapping[str, OpaqueSymbol] | None = None) -> Expr:
    """Parse ``text`` in the documented grammar into a canonical Expr."""
    return _Parser(text, symbols or {}).parse()
