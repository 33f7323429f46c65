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

The parser is total on valid input and returns a canonical
:class:`~burgers_hierarchy.symcore.Expr`.
"""

from __future__ import annotations

from typing import Mapping

from .symcore import (
    Expr,
    OpaqueDeriv,
    OpaqueSymbol,
    Var,
    jet,
    rational,
    total_derivative,
    _FUNC_DERIVATIVE,
)


class ParseError(ValueError):
    """Syntax error; carries the 0-based input position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ParseError):
    """An identifier that is neither built in nor declared."""


class _Parser:
    def __init__(self, text: str, symbols: Mapping[str, OpaqueSymbol]):
        self.text = text
        self.pos = 0
        self.symbols = symbols

    # -- character helpers ---------------------------------------------------

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, lit: str) -> bool:
        self.skip_ws()
        return self.text.startswith(lit, self.pos)

    def match(self, lit: str) -> bool:
        if self.peek(lit):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.match(lit):
            raise ParseError(f"expected {lit!r}", self.pos)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Expr:
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError("unexpected trailing input", self.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            if self.match("+"):
                e = e + self.term()
            elif self.match("-"):
                e = e - self.term()
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            # "**" never reaches term level: power() consumes it after a primary
            if self.match("*"):
                e = e * self.factor()
            elif self.match("/"):
                pos = self.pos
                divisor = self.factor()
                if not divisor.is_rational() or divisor.is_zero():
                    raise ParseError("division only by nonzero rational constants", pos)
                e = e / divisor.as_rational()
            else:
                return e

    def factor(self) -> Expr:
        if self.match("-"):
            return -self.factor()
        if self.match("+"):
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.match("^") or self.match("**"):
            self.skip_ws()
            n = self.natural()
            return base ** n
        return base

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        return int(self.text[start:self.pos])

    def primary(self) -> Expr:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of input", self.pos)
        ch = self.text[self.pos]
        if ch.isdigit():
            return rational(self.natural())
        if ch == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if ch.isalpha():
            return self.name_or_call()
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def name_or_call(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[start:self.pos]
        if name == "u" and self.peek("["):
            return self.jet_tail(start)
        if self.peek("("):
            return self.call(name, start)
        if name == "t":
            return Expr.from_atom(Var("t"))
        if name == "x":
            return Expr.from_atom(Var("x"))
        if name in self.symbols:
            return self.symbols[name].expr()
        raise UnknownSymbolError(f"unknown symbol {name!r}", start)

    def jet_tail(self, start: int) -> Expr:
        self.expect("[")
        tier = self.natural()
        self.expect(",")
        alpha = self.natural()
        self.expect("]")
        if tier < 1 or alpha < 1:
            raise ParseError("jet indices are 1-based", start)
        nt = nx = 0
        while True:
            if self.text.startswith("_t", self.pos):
                self.pos += 2
                nt += 1
            elif self.text.startswith("_x", self.pos):
                self.pos += 2
                nx += 1
            else:
                break
        return jet(tier, alpha, nt, nx)

    def call(self, name: str, start: int) -> Expr:
        self.expect("(")
        if name == "pd":
            return self.partial_call(start)
        args = [self.expr()]
        while self.match(","):
            args.append(self.expr())
        self.expect(")")
        if name == "D":
            if len(args) != 2:
                raise ParseError("D takes an expression and a variable", start)
            v = args[1]
            if v == Expr.from_atom(Var("t")):
                return total_derivative(args[0], "t")
            if v == Expr.from_atom(Var("x")):
                return total_derivative(args[0], "x")
            raise ParseError("the second argument of D must be t or x", start)
        if name in _FUNC_DERIVATIVE:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", start)
            from .symcore import _func

            return _func(name, args[0])
        raise UnknownSymbolError(f"unknown function {name!r}", start)

    def partial_call(self, start: int) -> Expr:
        self.skip_ws()
        nstart = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalnum():
            self.pos += 1
        name = self.text[nstart:self.pos]
        if name not in self.symbols:
            raise UnknownSymbolError(f"unknown symbol {name!r} in pd()", nstart)
        sym = self.symbols[name]
        orders = [0] * len(sym.args)
        while self.match(","):
            slot = self.natural()
            if not 1 <= slot <= len(sym.args):
                raise ParseError(f"{name} has no argument slot {slot}", self.pos)
            orders[slot - 1] += 1
        self.expect(")")
        return Expr.from_atom(OpaqueDeriv(sym, tuple(orders)))


def parse_expr(text: str, symbols: Mapping[str, OpaqueSymbol] | None = None) -> Expr:
    """Parse ``text`` in the documented grammar into a canonical Expr."""
    return _Parser(text, symbols or {}).parse()
