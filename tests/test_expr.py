from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qftalg.errors import ExprSyntaxError, PowerError
from qftalg.expr import parse
from qftalg import hopf
from qftalg.hopf import Element, Generator, Monomial
from qftalg.scalar import D, Dplus, PropPoly

from oracles import mono, phi


class TestParseExamples:
    def test_powers_and_product(self):
        assert parse("phi^2(x1)*phi^2(x2)") == Element.from_monomial(mono(("x1", 2), ("x2", 2)))

    def test_square_of_field_is_multiset(self):
        got = parse("phi(x)*phi(x)")
        assert got == Element.from_monomial(mono(("x", 1), ("x", 1)))
        assert got != parse("phi^2(x)")

    def test_rational_scalars_and_power_zero(self):
        got = parse("2/3 * phi(x) + phi^0(y)")
        assert got == Fraction(2, 3) * phi("x") + Element.one()

    def test_long_product_is_built_once(self):
        # the factors of a product are collected, not folded pairwise, so
        # no intermediate monomial is cached per factor
        before = hopf._monomial_product.cache_info().currsize
        got = parse("*".join(f"phi(x{i})" for i in range(1200)))
        assert got == Element.from_monomial(
            Monomial.from_occurrences(Generator(f"x{i}", 1) for i in range(1200))
        )
        assert hopf._monomial_product.cache_info().currsize == before

    def test_product_of_sums_and_scalars(self):
        got = parse("2*phi(x)*(phi(y)+1)*D(x,y)*-phi(x)")
        x2 = mono(("x", 1), ("x", 1))
        expected = PropPoly.symbol(D("x", "y"), 1, -2) * (
            Element.from_monomial(x2) * phi("y") + Element.from_monomial(x2)
        )
        assert got == expected
        assert parse("phi(x)*(phi(y)-phi(y))*3") == Element.zero()

    def test_whitespace_insensitive(self):
        assert parse(" phi ( x ) * phi^2(y) ") == parse("phi(x)*phi^2(y)")

    def test_propagator_atoms(self):
        got = parse("2*D(x,y)^2 + Dplus(y,x)")
        expected = Element.scalar(
            PropPoly.symbol(D("x", "y"), 2, 2) + PropPoly.symbol(Dplus("y", "x"))
        )
        assert got == expected

    def test_difference_and_parens(self):
        got = parse("(phi(x) + phi(y)) - phi(y)")
        assert got == phi("x")

    def test_unary_minus(self):
        assert parse("-phi(x)") == -phi("x")


class TestParseErrors:
    def test_syntax_error_offset_and_expected(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("phi(x) + + phi(y)")
        assert err.value.offset == 9
        assert err.value.expected

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("phi(x")

    def test_stray_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("phi(x) @ phi(y)")
        assert err.value.offset == 7

    def test_negative_power_rejected(self):
        with pytest.raises(PowerError) as err:
            parse("phi^-1(x)")
        assert err.value.power == -1
        with pytest.raises(PowerError):
            parse("D(x,y)^-2")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("phi(x))")

    def test_zero_denominator_at_its_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("phi(x) + 3/ 0")
        assert err.value.offset == 12
        assert str(err.value) == "zero denominator at offset 12"


_points = st.sampled_from(["x1", "x2", "y", "z_3"])


@st.composite
def elements(draw):
    acc = Element.zero()
    for _ in range(draw(st.integers(1, 3))):
        coeff = PropPoly.constant(
            Fraction(draw(st.integers(-3, 3)) or 1, draw(st.integers(1, 3)))
        )
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["D", "Dplus"]))
            a, b = draw(_points), draw(_points)
            sym = D(a, b) if kind == "D" else Dplus(a, b)
            coeff = coeff * PropPoly.symbol(sym, draw(st.integers(1, 2)))
        factors = [
            (draw(_points), draw(st.integers(1, 3)))
            for _ in range(draw(st.integers(0, 3)))
        ]
        acc = acc + coeff * Element.from_monomial(mono(*factors))
    return acc


@given(elements())
def test_pretty_round_trip(u):
    assert parse(str(u)) == u


@given(elements())
def test_pretty_is_stable(u):
    assert str(parse(str(u))) == str(u)


def test_round_trip_specific_outputs():
    from qftalg.coqts import chronological, t_functional

    u = parse("phi(x1)*phi(x2)*phi(x3)*phi(x4)")
    scalar = t_functional(u)
    assert parse(str(scalar)) == Element.scalar(scalar)
    product = chronological(u)
    assert parse(str(product)) == product
