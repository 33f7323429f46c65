"""Grammar coverage and parse/render round trips."""

import random
import re
from pathlib import Path

import pytest

from burgers_hierarchy import parser
from burgers_hierarchy.parser import ParseError, UnknownSymbolError, parse_expr
from burgers_hierarchy.symcore import (
    JetCoord,
    OpaqueSymbol,
    T_ATOM,
    X_ATOM,
    exp,
    jet,
    rational,
    sin,
    total_derivative,
)

XI = OpaqueSymbol("xi", (T_ATOM, X_ATOM, JetCoord(1, 1)))
SYMS = {"xi": XI}


def test_jet_times_derivative():
    assert parse_expr("u[1,1]*D(u[1,1],x)") == jet(1, 1) * jet(1, 1, nx=1)


def test_rational_normalization():
    assert parse_expr("2/4") == rational(1, 2)


def test_like_terms():
    assert parse_expr("u[1,1]+u[1,1]") == 2 * jet(1, 1)


def test_suffix_markers():
    assert parse_expr("u[2,3]_t_x_x") == jet(2, 3, nt=1, nx=2)


def test_precedence_and_unary():
    assert parse_expr("-u[1,1]^2") == -(jet(1, 1) ** 2)
    assert parse_expr("2*u[1,1]+3*x") == 2 * jet(1, 1) + 3 * parse_expr("x")
    assert parse_expr("1/2*u[1,1]") == jet(1, 1) / 2
    assert parse_expr("u[1,1]**3") == jet(1, 1) ** 3
    assert parse_expr("-+-u[1,1]") == jet(1, 1)  # factor = ("-" | "+"), factor


def test_functions_and_d():
    assert parse_expr("exp(t*x)") == exp(parse_expr("t*x"))
    assert parse_expr("D(exp(2*x),x)") == 2 * exp(2 * parse_expr("x"))
    assert parse_expr("sin(x)") == sin(parse_expr("x"))


def test_opaque_and_pd():
    assert parse_expr("xi", SYMS) == XI.expr()
    assert parse_expr("pd(xi,3,3)", SYMS) == XI.d(JetCoord(1, 1), JetCoord(1, 1))
    assert parse_expr("D(xi,x)", SYMS) == total_derivative(XI.expr(), "x")


def test_unknown_symbol_error_position():
    with pytest.raises(UnknownSymbolError) as err:
        parse_expr("u[1,1] + bogus")
    assert err.value.pos == 9


def test_syntax_errors():
    with pytest.raises(ParseError):
        parse_expr("u[1,1")
    with pytest.raises(ParseError):
        parse_expr("2*")
    with pytest.raises(ParseError):
        parse_expr("u[1,1] u[1,2]")
    with pytest.raises(ParseError):
        parse_expr("1/x")  # division only by rational constants
    with pytest.raises(ParseError):
        parse_expr("u[0,1]")


def test_whitespace_insensitive():
    assert parse_expr(" u[1,1] * ( t + 2 ) ") == jet(1, 1) * (parse_expr("t") + 2)


def test_round_trip_random():
    from tests_support import random_kernel_expr

    rng = random.Random(23)
    for _ in range(60):
        e = random_kernel_expr(rng)
        assert parse_expr(str(e), SYMS) == e


def _ebnf_rules(block: str) -> list[str]:
    """Rules of an EBNF block, one string per rule, whitespace collapsed."""
    return [" ".join(r.split()) + " ;" for r in block.split(";") if r.strip()]


def test_readme_grammar_is_the_parser_grammar():
    doc = parser.__doc__.split("Grammar (EBNF)::", 1)[1].split("Semantics:", 1)[0]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Expression grammar", 1)[1]
    block = section.split("```\n", 2)[1]
    rules = _ebnf_rules(doc)
    assert rules == _ebnf_rules(block)
    # every rule used is defined, and every rule defined is used
    defined = [r.split(" = ", 1)[0] for r in rules]
    used = {name for r in rules
            for name in re.findall(r"\b[a-z]+\b", re.sub(r'"[^"]*"', "", r.split(" = ", 1)[1]))}
    assert used - set(defined) == {"letter", "digit"}
    assert set(defined) <= used


@pytest.mark.parametrize("text, pos", [("2²", 1), ("x^²", 2), ("u[1,²]", 4), ("٣", 0)])
def test_non_ascii_digits_are_not_numbers(text, pos):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.pos == pos


@pytest.mark.parametrize("text, message", [
    ("x^2**3", "unexpected character '*' (at position 4)"),  # "*", then the factor "*3"
    ("1/ x", "division only by nonzero rational constants (at position 2)"),
    ("u[1,1] _t", "unexpected trailing input (at position 7)"),  # suffixes follow "]" directly
    ("pd(xi, 4)", "xi has no argument slot 4 (at position 8)"),
    ("(x $ é", "expected ')' (at position 3)"),
    ("é $", "unknown symbol 'é' (at position 0)"),
    ("x +", "unexpected end of input (at position 3)"),
])
def test_error_messages_and_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_expr(text, SYMS)
    assert str(err.value) == message
