import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import qftalg
from qftalg import scalar
from qftalg.coqts import RMode, twisted_product
from qftalg.errors import MissingSymbol
from qftalg.expr import parse
from qftalg.scalar import (
    D,
    Dplus,
    PropPoly,
    _poly_dot,
    _poly_dots,
    _poly_sum,
    frac_str,
    parse_frac,
    poly_add,
    poly_eval,
    poly_mul,
)

X, Y, Z = "x", "y", "z"


def test_symmetric_symbol_canonicalized():
    assert D(X, Y) == D(Y, X)
    assert D(Y, X).a == "x"


def test_oriented_symbol_keeps_order():
    assert Dplus(X, Y) != Dplus(Y, X)
    assert Dplus(X, X) == Dplus(X, X)


def test_poly_add_identity_and_cancellation():
    p = PropPoly.symbol(D(X, Y), 2, 2)
    assert poly_add(PropPoly.zero(), p) == p
    assert poly_add(PropPoly.symbol(D(X, Y)), PropPoly.symbol(D(X, Y), 1, -1)) == PropPoly.zero()


def test_poly_mul_cancelling_terms_leave_no_key():
    d = PropPoly.symbol(D(X, Y))
    product = (d + 1) * (d - 1)
    assert product.terms == {((D(X, Y), 2),): 1, (): -1}
    assert (d - d).terms == {}


def test_poly_add_merges_like_terms():
    two = PropPoly.symbol(D(X, Y), 2, 2)
    three = PropPoly.symbol(D(X, Y), 2, 3)
    assert poly_add(two, three) == PropPoly.symbol(D(X, Y), 2, 5)


def test_poly_mul_identity_exponents_distributivity():
    p = PropPoly.symbol(D(X, Y)) + PropPoly.symbol(D(X, Z))
    assert poly_mul(PropPoly.one(), p) == p
    assert poly_mul(PropPoly.symbol(D(X, Y)), PropPoly.symbol(D(X, Y))) == PropPoly.symbol(D(X, Y), 2)
    product = poly_mul(p, PropPoly.symbol(D(Y, Z)))
    expected = PropPoly.from_symbol_powers([(D(X, Y), 1), (D(Y, Z), 1)]) + PropPoly.from_symbol_powers(
        [(D(X, Z), 1), (D(Y, Z), 1)]
    )
    assert product == expected


def test_poly_eval_examples():
    assert poly_eval(PropPoly.zero(), {}) == 0
    p = PropPoly.symbol(D(X, Y), 2, 2)
    assert poly_eval(p, {D(X, Y): Fraction(3)}) == 18
    q = PropPoly.symbol(D(X, Y)) + PropPoly.symbol(D(X, Z))
    assert poly_eval(q, {D(X, Y): Fraction(1, 2), D(X, Z): Fraction(1, 3)}) == Fraction(5, 6)


def test_poly_eval_missing_symbol():
    p = PropPoly.symbol(D(X, Y))
    with pytest.raises(MissingSymbol):
        poly_eval(p, {})


def test_canonicalization_idempotent():
    p = PropPoly.symbol(D(X, Y), 2) + PropPoly.symbol(Dplus(X, Y)) + PropPoly.constant(Fraction(1, 3))
    again = PropPoly(p.terms)
    assert again == p
    assert again.terms == p.terms


class TestConstructor:
    """``PropPoly(terms)`` stores canonical terms whatever keys it is given."""

    s = D(X, Y)
    t = D("a", "b")

    def test_keys_that_sort_equal_are_summed(self):
        p = PropPoly({((self.s, 1), (self.t, 1)): 1, ((self.t, 1), (self.s, 1)): 2})
        assert p == PropPoly.from_symbol_powers([(self.s, 1), (self.t, 1)], 3)
        assert str(p) == "3*D(a,b)*D(x,y)"
        assert PropPoly({((self.s, 1), (self.t, 1)): 1, ((self.t, 1), (self.s, 1)): -1}) == 0

    def test_repeated_symbol_merges(self):
        assert PropPoly({((self.s, 1), (self.s, 1)): 1}) == PropPoly.symbol(self.s, 2)

    def test_zero_exponent_drops(self):
        p = PropPoly({((self.s, 0),): 5})
        assert p == 5
        assert str(p) == "5"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            PropPoly({((self.s, -1),): 5})

    @pytest.mark.parametrize("exponent", [2.0, 1.5, True, Fraction(2)])
    def test_exponent_that_is_not_an_int_rejected(self, exponent):
        with pytest.raises(ValueError, match="symbol exponents must be integers"):
            PropPoly.symbol(self.s, exponent)
        with pytest.raises(ValueError, match="symbol exponents must be integers"):
            PropPoly({((self.t, exponent),): 1})

    def test_rejected_float_exponent_is_not_interned(self):
        # an equal float exponent, once interned, printed in every later
        # polynomial with that symbol map
        with pytest.raises(ValueError):
            PropPoly.symbol(D("fx", "fy"), 2.0)
        assert str(parse("D(fx,fy)^2")) == "D(fx,fy)^2"


def test_frac_str_round_trip():
    assert frac_str(Fraction(2)) == "2/1"
    assert parse_frac("2/1") == 2
    assert parse_frac("-3/4") == Fraction(-3, 4)
    assert parse_frac("7") == 7


@pytest.mark.parametrize("text", ["0.5", "1e-3", "1e9", "1e3000000", "1_000", " 1/2 ", "+3",
                                  "1/-2", "", "1/2\n"])
def test_parse_frac_accepts_only_p_over_q_or_an_integer(text):
    # Fraction() read decimals, exponents (building a 3,000,000-digit
    # integer for "1e3000000"), underscores, spaces and a leading "+"
    with pytest.raises(ValueError, match="p/q or an integer"):
        parse_frac(text)


_symbols = [D(X, Y), D(X, Z), D(Y, Z), Dplus(X, Y), Dplus(Y, X)]


@st.composite
def polys(draw):
    n_terms = draw(st.integers(0, 4))
    acc = PropPoly.zero()
    for _ in range(n_terms):
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 4)))
        term = PropPoly.constant(coeff)
        for _ in range(draw(st.integers(0, 3))):
            sym = draw(st.sampled_from(_symbols))
            term = term * PropPoly.symbol(sym)
        acc = acc + term
    return acc


@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == PropPoly.zero()


@given(polys(), polys())
def test_eval_is_ring_homomorphism(a, b):
    assignment = {sym: Fraction(i - 2, 3) for i, sym in enumerate(_symbols)}
    assert poly_eval(a * b, assignment) == poly_eval(a, assignment) * poly_eval(b, assignment)
    assert poly_eval(a + b, assignment) == poly_eval(a, assignment) + poly_eval(b, assignment)


def test_json_schema_and_order():
    p = PropPoly.symbol(D(Y, X), 2, Fraction(5, 3)) + PropPoly.symbol(Dplus(X, Y), 1, -1)
    data = p.to_json()
    assert data == [
        {"coeff": "5/3", "symbols": [{"kind": "D", "a": "x", "b": "y", "pow": 2}]},
        {"coeff": "-1/1", "symbols": [{"kind": "Dplus", "a": "x", "b": "y", "pow": 1}]},
    ]


def test_integral_coefficients_are_ints():
    p = PropPoly.symbol(D(X, Y), 1, Fraction(4, 2)) + PropPoly.constant("3/2")
    assert p.terms == {((D(X, Y), 1),): 2, (): Fraction(3, 2)}
    assert type(p.terms[((D(X, Y), 1),)]) is int
    assert type((p * 2).terms[()]) is int
    assert type(p.constant_term()) is Fraction
    assert str(p) == "3/2 + 2*D(x,y)"


def seeded_poly(rng: random.Random) -> PropPoly:
    """A polynomial of up to four terms with int and Fraction coefficients,
    some of them integral Fractions."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = tuple((rng.choice(_symbols), rng.randint(0, 2)) for _ in range(rng.randint(0, 3)))
        num = rng.randint(-6, 6)
        terms[key] = num if rng.random() < 0.5 else Fraction(num, rng.choice([1, 2, 3]))
    return PropPoly(terms)


class TestSympyOracle:
    """Polynomial arithmetic against sympy, on seeded polynomials."""

    def to_sympy(self, sympy, p):
        total = sympy.Integer(0)
        for symmap, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for sym, exp in symmap:
                term *= sympy.Symbol(f"{sym.kind}_{sym.a}_{sym.b}") ** exp
            total += term
        return total

    def assert_canonical(self, p):
        for symmap, c in p.terms.items():
            assert c != 0
            assert type(c) is (int if c.denominator == 1 else Fraction), (symmap, c)
            assert all(exp >= 1 for _, exp in symmap)
            assert list(symmap) == sorted(symmap)

    def test_arithmetic(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20241)

        def same(p, expected):
            self.assert_canonical(p)
            assert sympy.expand(self.to_sympy(sympy, p) - expected) == 0

        for _ in range(60):
            a, b, c = (seeded_poly(rng) for _ in range(3))
            sa, sb, sc = (self.to_sympy(sympy, p) for p in (a, b, c))
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            same(a + b, sa + sb)
            same(a * b, sa * sb)
            same(a * q, sa * sympy.Rational(q.numerator, q.denominator))
            same(_poly_sum([a, b, c]), sa + sb + sc)
            same(_poly_dot([(a, b), (q, c), (1, a), (3, b)]),
                 sa * sb + sympy.Rational(q.numerator, q.denominator) * sc + sa + 3 * sb)



_rationals = st.one_of(
    st.integers(-6, 6),
    st.booleans(),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


@st.composite
def entries(draw):
    """A weighted ``(key, k, a, b)`` entry: the weight and a rational ``a``
    drawn as ints, bools or Fractions (negative ones too), the polynomials
    with up to three terms over three symbols."""

    def poly():
        return PropPoly({
            tuple((sym, draw(st.integers(0, 2))) for sym in _symbols[:3]): draw(_rationals)
            for _ in range(draw(st.integers(0, 3)))
        })

    a = poly() if draw(st.booleans()) else draw(_rationals)
    return draw(st.sampled_from("pq")), draw(_rationals), a, poly()


def reference_dots(entries) -> dict:
    """``{key: {symbol monomial: sum k*a*b}}``, one term product at a
    time in ``Fraction``, zero coefficients and empty keys dropped."""
    out: dict = {}
    for key, k, a, b in entries:
        acc = out.setdefault(key, {})
        for m1, c1 in (a.terms if isinstance(a, PropPoly) else {(): a}).items():
            for m2, c2 in b.terms.items():
                (m,) = PropPoly.from_symbol_powers(m1 + m2).terms
                acc[m] = acc.get(m, Fraction(0)) + Fraction(k) * Fraction(c1) * Fraction(c2)
    return {
        key: terms
        for key, acc in out.items()
        if (terms := {m: c for m, c in acc.items() if c})
    }


class TestWeightedPolyDots:
    """``_poly_dots`` sums ``k*a*b`` per key, the weight ``k`` an int or a
    Fraction, against the same sums formed with the operators and against
    a reference summed one term product at a time in ``Fraction``."""

    def test_matches_the_operators(self):
        rng = random.Random(1515)
        for _ in range(60):
            entries = []
            expected = {}
            for key in rng.choices("pqr", k=6):
                k = rng.choice([0, 1, -2, 5, Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
                a = seeded_poly(rng) if rng.random() < 0.7 else Fraction(
                    rng.randint(-3, 3), rng.randint(1, 3)
                )
                b = seeded_poly(rng)
                entries.append((key, k, a, b))
                expected[key] = expected.get(key, PropPoly.zero()) + k * a * b
            got = _poly_dots(entries)
            assert got == {key: p for key, p in expected.items() if p}
            for p in got.values():
                assert all(type(c) is (int if c.denominator == 1 else Fraction)
                           for c in p.terms.values())

    def test_zero_weight_adds_nothing(self):
        d = PropPoly.symbol(D(X, Y)) + Fraction(1, 3)
        assert _poly_dots([("k", 0, d, d), ("k", 0, Fraction(2, 3), d)]) == {}
        assert _poly_dots([("k", 0, d, d), ("k", 1, 2, d)]) == {"k": 2 * d}

    def test_a_key_whose_weighted_terms_cancel_is_dropped(self):
        d = PropPoly.symbol(D(X, Y))
        got = _poly_dots([
            ("gone", 2, d, d + 1),
            ("gone", Fraction(1, 2), d, -4 * d - 4),
            ("kept", 3, Fraction(1, 3), d),
            ("kept", -1, d + 1, d + Fraction(1, 2)),
            ("kept", 1, d, d + Fraction(3, 2)),
        ])
        # kept: d - (d^2 + 3d/2 + 1/2) + (d^2 + 3d/2) = d - 1/2
        assert list(got) == ["kept"]
        assert got["kept"].terms == {((D(X, Y), 1),): 1, (): Fraction(-1, 2)}
        assert type(got["kept"].terms[((D(X, Y), 1),)]) is int

    @given(st.lists(entries(), max_size=8))
    @example([
        ("k", 1, Fraction(1, 2), PropPoly.symbol(D(X, Y))),
        ("k", True, PropPoly.symbol(D(X, Z), 1, Fraction(-3, 4)), PropPoly.symbol(D(X, Y)) + 1),
        ("j", Fraction(-2, 3), False, PropPoly.one()),
        ("j", Fraction(-2, 3), True, PropPoly.constant(Fraction(5, 7))),
    ])
    def test_matches_a_fraction_reference(self, drawn):
        got = _poly_dots(drawn)
        assert {key: p.terms for key, p in got.items()} == reference_dots(drawn)
        for p in got.values():
            for c in p.terms.values():
                assert c and type(c) is (int if c.denominator == 1 else Fraction)

    def test_common_denominator_grows_partway(self):
        # one key meets denominators 2, 3, 4 and 6 in turn: 3 and 4 do not
        # divide the running denominator, so the earlier numerators are
        # rescaled, and 6 divides 12
        d, e = PropPoly.symbol(D(X, Y)), PropPoly.symbol(Dplus(X, Y))
        got = _poly_dots([
            ("k", 1, Fraction(1, 2), d),
            ("k", 1, Fraction(1, 3), e),
            ("k", 3, Fraction(1, 4), d),
            ("k", 1, Fraction(5, 6), PropPoly.one()),
            ("k", -1, d, PropPoly.constant(Fraction(1, 4))),
        ])
        assert got["k"].terms == {
            ((D(X, Y), 1),): 1,
            ((Dplus(X, Y), 1),): Fraction(1, 3),
            (): Fraction(5, 6),
        }
        assert type(got["k"].terms[((D(X, Y), 1),)]) is int

    def test_a_rational_sum_that_cancels_to_an_integer_is_an_int(self):
        d = PropPoly.symbol(D(X, Y))
        got = _poly_dots([
            ("k", 1, Fraction(1, 3), d),
            ("k", Fraction(5, 2), Fraction(-2, 3), PropPoly.one()),
            ("k", 2, d, PropPoly.constant(Fraction(1, 3))),
            ("k", 1, Fraction(2, 3), PropPoly.one()),
        ])
        assert got["k"].terms == {((D(X, Y), 1),): 1, (): -1}
        assert all(type(c) is int for c in got["k"].terms.values())

    def test_a_rational_sum_that_cancels_to_zero_is_dropped(self):
        d = PropPoly.symbol(D(X, Y))
        got = _poly_dots([
            ("k", 1, Fraction(1, 6), d),
            ("k", Fraction(1, 2), Fraction(1, 3), PropPoly.one()),
            ("k", Fraction(-1, 3), Fraction(1, 2), d),
            ("gone", 3, Fraction(1, 4), d + Fraction(1, 5)),
            ("gone", Fraction(3, 4), -1, d),
            ("gone", True, Fraction(-3, 20), PropPoly.one()),
        ])
        assert list(got) == ["k"]
        assert got["k"].terms == {(): Fraction(1, 6)}

    def test_no_fraction_arithmetic(self, monkeypatch):
        # the kernel adds and multiplies integer numerators only: with
        # Fraction's operators refusing, rational entries and twisted
        # products of rational elements still give the same values
        d = PropPoly.symbol(D(X, Y), 1, Fraction(2, 3)) + Fraction(-1, 4)
        dots = [
            ("k", Fraction(3, 5), d, d),
            ("k", 2, Fraction(-1, 6), d),
            ("j", True, d, PropPoly.constant(Fraction(7, 2))),
        ]
        u = parse("1/2*phi(x_nf)*phi^2(y_nf) - 2/3*phi^2(x_nf) + 5/6")
        v = parse("-3/4*phi(y_nf)*phi(x_nf) + 1/6*phi^3(y_nf)")
        expected_dots = _poly_dots(dots)
        expected = {mode: twisted_product(u, v, mode) for mode in RMode}

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in the multiply-accumulate")

        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            monkeypatch.setattr(Fraction, name, refuse)
        assert _poly_dots(dots) == expected_dots
        for mode in RMode:
            assert twisted_product(u, v, mode) == expected[mode]


def test_len_counts_terms():
    assert len(PropPoly.zero()) == 0
    assert len(PropPoly.one()) == 1
    assert len(PropPoly.symbol(D(X, Y)) + PropPoly.symbol(D(X, Z)) + 1) == 3


def test_operands_of_every_type():
    # the operators test for an exact PropPoly first; a subclass, an int, a
    # bool and a Fraction still take the isinstance path, and a foreign
    # operand is refused
    class Sub(PropPoly):
        pass

    p = PropPoly.symbol(D(X, Y)) + 1
    sub = Sub._raw(p._terms)
    for other, as_poly in [(sub, p), (3, PropPoly.constant(3)), (True, PropPoly.one()),
                           (Fraction(1, 2), PropPoly.constant(Fraction(1, 2)))]:
        assert p + other == as_poly + p == other + p
        assert p - other == p + -as_poly
        assert other - p == as_poly - p
        assert p * other == as_poly * p == other * p
        assert (p == other) == (as_poly == p)
    for foreign in ["1", 1.5, None]:
        for op in (lambda: p + foreign, lambda: p - foreign, lambda: p * foreign):
            with pytest.raises(TypeError):
                op()
        assert p != foreign


def fresh_polys(tag: str) -> list[PropPoly]:
    """Polynomials on symbols that no other test uses, with their products."""
    syms = [D(f"{tag}{i}", f"{tag}{j}") for i in range(4) for j in range(i, 4)]
    polys = [
        PropPoly.from_symbol_powers([(s, 1 + k % 3), (t, 1)], k - 4)
        + PropPoly.symbol(t, 2) + k
        for k, (s, t) in enumerate(zip(syms, syms[1:] + syms[:1]))
    ]
    return polys + [a * b for a in polys for b in polys[:4]]


def test_interning_is_safe_under_threads():
    # threads that meet the same new symbol monomials at once must agree on
    # their ids: a tuple interned twice would make equal results differ;
    # each round starts all threads together on monomials not seen before
    n_threads, rounds = 6, 80
    barrier = threading.Barrier(n_threads)
    results = [[None] * rounds for _ in range(n_threads)]

    def build(k):
        for r in range(rounds):
            barrier.wait(timeout=60)
            results[k][r] = fresh_polys(f"thr{r}_")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == results[0] for r in results)
    for r in range(rounds):
        assert [p.terms for p in results[-1][r]] == [p.terms for p in fresh_polys(f"thr{r}_")]
    assert len(set(scalar._SYMMAPS)) == len(scalar._SYMMAPS)


def test_product_table_holds_each_pair_once():
    # the table of symbol-monomial products is keyed on the unordered pair,
    # so q*p finds the product p*q made and adds no entry of its own
    p = PropPoly.symbol(D("once", "p"))
    q = PropPoly.symbol(D("once", "q"), 2)
    before = len(scalar._SYMMAP_PRODUCT_CACHE)
    pq = p * q
    assert len(scalar._SYMMAP_PRODUCT_CACHE) == before + 1
    assert q * p == pq
    assert len(scalar._SYMMAP_PRODUCT_CACHE) == before + 1


PICKLE_IN_ANOTHER_PROCESS = """
import pickle, sys
from qftalg.scalar import D, PropPoly
# intern other symbol monomials first, so this process numbers them differently
for i in range(50):
    PropPoly.symbol(D("other", f"o{i}"), i + 1) * PropPoly.symbol(D("other", "p"))
p = PropPoly.symbol(D("pk", "a"), 2, 3) * PropPoly.symbol(D("pk", "b")) - PropPoly.constant("1/2")
sys.stdout.write(pickle.dumps(p).hex())
"""


def test_pickle_carries_symbol_monomials_across_processes():
    env = dict(os.environ, PYTHONPATH=str(Path(qftalg.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", PICKLE_IN_ANOTHER_PROCESS],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    got = pickle.loads(bytes.fromhex(out))
    expected = PropPoly.symbol(D("pk", "a"), 2, 3) * PropPoly.symbol(D("pk", "b")) - Fraction(1, 2)
    assert got == expected
    assert got.terms == expected.terms
    assert str(got) == "-1/2 + 3*D(a,pk)^2*D(b,pk)"
    assert pickle.loads(pickle.dumps(expected)) == expected
