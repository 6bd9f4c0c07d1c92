r"""Surface syntax for elements.

Grammar (ASCII whitespace ``[ \t\n\r\f\v]+`` between tokens is skipped)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom
    atom    := INT ['/' INT]
             | 'phi' ['^' exponent] '(' point ')'
             | ('D' | 'Dplus') '(' point ',' point ')' ['^' exponent]
             | '(' expr ')'
    point   := [A-Za-z][A-Za-z0-9_]*
    INT     := [0-9]+

``phi^0(x)`` normalizes to the unit.  Propagator atoms exist so that every
string the pretty-printers emit parses back to an equal element.  Parse
errors, a zero denominator and an integer literal past Python's
int-to-string limit among them, carry the byte offset and the
expected-token set; negative exponents raise
:class:`~qftalg.errors.PowerError`.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ExprSyntaxError, PowerError
from .hopf import Element, Generator, Monomial
from .scalar import D, Dplus, PropPoly

#: the ``point`` rule of the grammar; the vertex-file reader checks labels by it
_POINT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"(?P<INT>[0-9]+)|(?P<NAME>{_POINT_RE.pattern})|(?P<OP>[-+*/^(),])")
_WS_RE = re.compile(r"[ \t\n\r\f\v]+")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        ws = _WS_RE.match(text, pos)
        if ws:
            pos = ws.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, value, offset = self.peek()
        shown = "end of input" if kind == "EOF" else repr(value)
        raise ExprSyntaxError(f"unexpected {shown}", offset, expected)

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "OP" or value != op:
            self.fail([f"'{op}'"])
        return self.advance()

    def at_op(self, *ops):
        kind, value, _ = self.peek()
        return kind == "OP" and value in ops

    def integer(self, expected) -> int:
        """Consume an INT token and convert it; a literal past Python's
        int-to-string limit is a syntax error at its offset."""
        kind, value, offset = self.peek()
        if kind != "INT":
            self.fail([expected])
        self.advance()
        try:
            return int(value)
        except ValueError:
            raise ExprSyntaxError(f"integer of {len(value)} digits is too long", offset) from None

    def parse(self) -> Element:
        value = self.expr()
        if self.peek()[0] != "EOF":
            self.fail(["'+'", "'-'", "'*'", "end of input"])
        return value

    def expr(self) -> Element:
        value = self.term()
        while self.at_op("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Element:
        factors = [self.factor()]
        while self.at_op("*"):
            self.advance()
            factors.append(self.factor())
        return _product(factors)

    def factor(self) -> Element:
        if self.at_op("-"):
            self.advance()
            return -self.factor()
        return self.atom()

    def exponent(self) -> int:
        self.expect_op("^")
        negative = self.at_op("-")
        if negative:
            self.advance()
        offset = self.peek()[2]
        power = self.integer("integer")
        if negative:
            raise PowerError(-power, offset)
        return power

    def point(self) -> str:
        kind, value, _ = self.peek()
        if kind != "NAME":
            self.fail(["point label"])
        self.advance()
        return value

    def atom(self) -> Element:
        kind, value, offset = self.peek()
        if kind == "INT":
            numerator = self.integer("rational")
            if self.at_op("/"):
                self.advance()
                doffset = self.peek()[2]
                denominator = self.integer("integer denominator")
                if not denominator:
                    raise ExprSyntaxError("zero denominator", doffset)
                return Element.scalar(Fraction(numerator, denominator))
            return Element.scalar(Fraction(numerator))
        if kind == "NAME" and value == "phi":
            self.advance()
            power = 1
            if self.at_op("^"):
                power = self.exponent()
            self.expect_op("(")
            point = self.point()
            self.expect_op(")")
            if power == 0:
                return Element.one()
            return Element.from_monomial(Monomial.of(Generator(point, power)))
        if kind == "NAME" and value in ("D", "Dplus"):
            self.advance()
            self.expect_op("(")
            a = self.point()
            self.expect_op(",")
            b = self.point()
            self.expect_op(")")
            power = 1
            if self.at_op("^"):
                power = self.exponent()
            sym = D(a, b) if value == "D" else Dplus(a, b)
            return Element.scalar(PropPoly.symbol(sym, power))
        if self.at_op("("):
            self.advance()
            value = self.expr()
            self.expect_op(")")
            return value
        self.fail(["rational", "'phi'", "'D'", "'Dplus'", "'('"])


def _product(factors: list[Element]) -> Element:
    """The product of parsed factors, built once: the one-term factors
    become one monomial and one coefficient, and only the factors with
    several terms (or none) are multiplied in after them."""
    if len(factors) == 1:
        return factors[0]
    occurrences, coeff, rest = [], PropPoly.one(), []
    for f in factors:
        if len(f.terms) == 1:
            (mono, c), = f.terms.items()
            occurrences.extend(mono.factors)
            coeff = coeff * c
        else:
            rest.append(f)
    value = Element.from_monomial(Monomial(occurrences), coeff)
    for f in rest:
        value = value * f
    return value


def parse(text: str) -> Element:
    """Parse surface syntax into a canonical element."""
    return _Parser(text).parse()
